#include "core/vb_masking.h"

#include <gtest/gtest.h>

#include "common/trace.h"
#include "imaging/color.h"
#include "imaging/draw.h"
#include "synth/recorder.h"
#include "video/frame_source.h"
#include "vbg/compositor.h"
#include "vbg/virtual_source.h"

namespace bb::core {
namespace {

using imaging::Bitmap;
using imaging::Image;

TEST(MatchFractionTest, ExactAndTolerantMatching) {
  Image a(4, 4, {10, 10, 10});
  Image b = a;
  EXPECT_DOUBLE_EQ(MatchFraction(a, b, 0), 1.0);
  b(0, 0) = {50, 50, 50};
  EXPECT_DOUBLE_EQ(MatchFraction(a, b, 0), 15.0 / 16.0);
  b(0, 0) = {13, 10, 10};
  EXPECT_DOUBLE_EQ(MatchFraction(a, b, 2), 15.0 / 16.0);
  EXPECT_DOUBLE_EQ(MatchFraction(a, b, 3), 1.0);
}

synth::RawRecording SmallRecording(std::uint64_t seed = 77) {
  synth::RecordingSpec spec;
  spec.scene.width = 96;
  spec.scene.height = 72;
  spec.action.kind = synth::ActionKind::kRotate;
  spec.fps = 10.0;
  spec.duration_s = 4.0;
  spec.seed = seed;
  return synth::RecordCall(spec);
}

TEST(IdentifyKnownImageTest, PicksTheUsedBackground) {
  const auto raw = SmallRecording();
  const auto dict = vbg::AllStockImages(96, 72);
  // Composite with dictionary entry 2 (space).
  const vbg::StaticImageSource vb(dict[2]);
  const auto call = vbg::ApplyVirtualBackground(raw, vb);
  const DictionaryMatch match = IdentifyKnownImage(call.video, dict);
  EXPECT_EQ(match.index, 2);
  EXPECT_GT(match.score, 0.4);
}

TEST(IdentifyKnownVideoTest, PicksTheUsedVideo) {
  const auto raw = SmallRecording();
  std::vector<std::vector<Image>> dict;
  dict.push_back(vbg::MakeStockVideo(vbg::StockVideo::kWaves, 96, 72, 8));
  dict.push_back(vbg::MakeStockVideo(vbg::StockVideo::kStars, 96, 72, 8));
  const vbg::LoopingVideoSource vb(dict[1]);
  const auto call = vbg::ApplyVirtualBackground(raw, vb);
  const DictionaryMatch match =
      IdentifyKnownVideo(call.video, std::span(dict));
  EXPECT_EQ(match.index, 1);
}

TEST(VbReferenceTest, KnownImageIsFullyValid) {
  const auto ref = VbReference::KnownImage(Image(10, 10, {1, 2, 3}));
  EXPECT_FALSE(ref.is_video());
  EXPECT_DOUBLE_EQ(ref.ValidFraction(), 1.0);
}

// Both derivations are timed as the vb.derive trace stage, once per call,
// and the streaming one derives the same reference as the batch one.
TEST(VbReferenceTest, DerivationsRecordOneVbDeriveStageEach) {
  const auto raw = SmallRecording();
  const vbg::StaticImageSource vb(
      vbg::MakeStockImage(vbg::StockImage::kGradient, 96, 72));
  const auto call = vbg::ApplyVirtualBackground(raw, vb);
  const auto vb_derive_calls = [] {
    for (const trace::StageStats& st : trace::Capture().stages) {
      if (st.name == "vb.derive") return st.calls;
    }
    return std::uint64_t{0};
  };

  trace::Reset();
  trace::Enable();
  const VbReference batch = VbReference::DeriveImage(call.video);
  EXPECT_EQ(vb_derive_calls(), 1u);
  video::VideoStreamSource source(call.video);
  const VbReference streamed = VbReference::DeriveImageStreaming(source);
  EXPECT_EQ(vb_derive_calls(), 2u);
  trace::Disable();
  trace::Reset();

  const Image& frame = call.video.frame(0);
  EXPECT_EQ(batch.ImageFor(frame, 0), streamed.ImageFor(frame, 0));
  EXPECT_EQ(batch.ValidFor(frame, 0), streamed.ValidFor(frame, 0));
}

TEST(VbReferenceTest, DeriveImageRecoversStaticPixels) {
  const auto raw = SmallRecording();
  const Image vb_img = vbg::MakeStockImage(vbg::StockImage::kGradient, 96, 72);
  const vbg::StaticImageSource vb(vb_img);
  const auto call = vbg::ApplyVirtualBackground(raw, vb);

  const VbReference ref = VbReference::DeriveImage(call.video);
  EXPECT_GT(ref.ValidFraction(), 0.4);
  // Where valid, the derived reference matches the true VB closely.
  const Image& derived = ref.ImageFor(call.video.frame(0), 0);
  const Bitmap& valid = ref.ValidFor(call.video.frame(0), 0);
  int bad = 0, total = 0;
  for (int y = 0; y < 72; ++y) {
    for (int x = 0; x < 96; ++x) {
      if (!valid(x, y)) continue;
      ++total;
      bad += !imaging::NearlyEqual(derived(x, y), vb_img(x, y), 12);
    }
  }
  EXPECT_GT(total, 0);
  EXPECT_LT(static_cast<double>(bad) / total, 0.10);
}

TEST(VbReferenceTest, DeriveVideoFindsLoopAndPhases) {
  const auto raw = SmallRecording();
  const auto frames = vbg::MakeStockVideo(vbg::StockVideo::kWaves, 96, 72, 8);
  const vbg::LoopingVideoSource vb(frames);
  const auto call = vbg::ApplyVirtualBackground(raw, vb);

  const auto ref = VbReference::DeriveVideo(call.video);
  ASSERT_TRUE(ref.has_value());
  EXPECT_TRUE(ref->is_video());
  // Loop detection may report a multiple of the true period; it must be one.
  EXPECT_EQ(ref->period() % 8, 0);
}

TEST(VbReferenceTest, DeriveVideoReturnsNulloptForStatic) {
  // A static-VB call has period 1... which DetectLoopPeriod's min_period of
  // 4 can still report (any period "loops" for a static background). What
  // must NOT happen is a crash; and a non-looping noisy video must fail.
  video::VideoStream noise(10.0);
  std::uint64_t s = 99;
  for (int i = 0; i < 30; ++i) {
    Image f(32, 24);
    for (auto& p : f.pixels()) {
      s = s * 6364136223846793005ull + 1442695040888963407ull;
      p = {static_cast<std::uint8_t>(s >> 33),
           static_cast<std::uint8_t>(s >> 41),
           static_cast<std::uint8_t>(s >> 49)};
    }
    noise.Append(std::move(f));
  }
  EXPECT_FALSE(VbReference::DeriveVideo(noise).has_value());
}

TEST(VbReferenceTest, AugmentFillsHoles) {
  // Build two derived references with complementary validity by hand.
  const auto raw_a = SmallRecording(1);
  const auto raw_b = SmallRecording(2);
  const Image vb_img = vbg::MakeStockImage(vbg::StockImage::kBeach, 96, 72);
  const vbg::StaticImageSource vb(vb_img);
  const auto call_a = vbg::ApplyVirtualBackground(raw_a, vb);
  const auto call_b = vbg::ApplyVirtualBackground(raw_b, vb);

  VbReference ref_a = VbReference::DeriveImage(call_a.video);
  const VbReference ref_b = VbReference::DeriveImage(call_b.video);
  const double before = ref_a.ValidFraction();
  ref_a.AugmentWith(ref_b);
  EXPECT_GE(ref_a.ValidFraction(), before);
}

TEST(VbReferenceTest, AugmentRejectsPeriodMismatch) {
  VbReference a = VbReference::KnownImage(Image(8, 8));
  VbReference b = VbReference::KnownVideo(
      {Image(8, 8), Image(8, 8, {1, 1, 1})});
  EXPECT_THROW(a.AugmentWith(b), std::invalid_argument);
}

TEST(ComputeVbmTest, MatchesOnlyValidAgreeingPixels) {
  Image frame(3, 1);
  frame(0, 0) = {10, 10, 10};
  frame(1, 0) = {10, 10, 10};
  frame(2, 0) = {90, 90, 90};
  Image ref(3, 1, {10, 10, 10});
  Bitmap valid(3, 1, imaging::kMaskSet);
  valid(1, 0) = imaging::kMaskClear;
  const Bitmap vbm = ComputeVbm(frame, ref, valid, 4);
  EXPECT_TRUE(vbm(0, 0));
  EXPECT_FALSE(vbm(1, 0));  // invalid reference pixel
  EXPECT_FALSE(vbm(2, 0));  // mismatch
}

TEST(KnownVideoReferenceTest, SelectsBestPhasePerFrame) {
  auto frames = vbg::MakeStockVideo(vbg::StockVideo::kStars, 64, 48, 4);
  const VbReference ref = VbReference::KnownVideo(frames);
  // Feeding a pure VB frame must select exactly that phase.
  for (int p = 0; p < 4; ++p) {
    EXPECT_EQ(ref.ImageFor(frames[static_cast<std::size_t>(p)], 0),
              frames[static_cast<std::size_t>(p)])
        << "phase " << p;
  }
}

}  // namespace
}  // namespace bb::core
