#include "video/temporal.h"

#include <gtest/gtest.h>

#include "imaging/color.h"
#include "imaging/draw.h"

namespace bb::video {
namespace {

using imaging::Bitmap;
using imaging::Image;
using imaging::Rgb8;

// A video where the left half is static and the right half changes every
// frame.
VideoStream HalfStaticVideo(int frames) {
  VideoStream v(10.0);
  for (int i = 0; i < frames; ++i) {
    Image f(8, 4, {50, 60, 70});
    imaging::FillRect(f, {4, 0, 4, 4},
                      {static_cast<std::uint8_t>(i * 20), 0, 0});
    v.Append(std::move(f));
  }
  return v;
}

TEST(TemporalTest, StaticLayerSeparatesStaticFromDynamic) {
  // Static pixels hold for all 12 frames; dynamic ones change every frame,
  // so their longest stable run is at most 2.
  const VideoStream v = HalfStaticVideo(12);
  const StaticLayer full = EstimateStaticLayer(v, 12);
  EXPECT_TRUE(full.valid(0, 0));
  EXPECT_TRUE(full.valid(3, 3));
  EXPECT_FALSE(EstimateStaticLayer(v, 13).valid(0, 0));
  EXPECT_FALSE(EstimateStaticLayer(v, 3).valid(5, 1));
}

TEST(TemporalTest, StaticLayerToleratesJitter) {
  VideoStream v(10.0);
  for (int i = 0; i < 8; ++i) {
    // +/-2 jitter within the default tolerance of 4.
    const std::uint8_t c = static_cast<std::uint8_t>(100 + (i % 2) * 2);
    v.Append(Image(2, 2, {c, c, c}));
  }
  EXPECT_TRUE(EstimateStaticLayer(v, 8).valid(0, 0));
  EXPECT_FALSE(EstimateStaticLayer(v, 9).valid(0, 0));
}

TEST(TemporalTest, EstimateStaticLayerRecoversBackground) {
  const VideoStream v = HalfStaticVideo(15);
  const StaticLayer layer = EstimateStaticLayer(v, 10);
  EXPECT_TRUE(layer.valid(1, 1));
  EXPECT_TRUE(imaging::NearlyEqual(layer.color(1, 1), {50, 60, 70}, 4));
  EXPECT_FALSE(layer.valid(6, 2));
}

TEST(TemporalTest, StaticLayerMinRunBoundary) {
  const VideoStream v = HalfStaticVideo(9);
  EXPECT_TRUE(EstimateStaticLayer(v, 9).valid(0, 0));
  EXPECT_FALSE(EstimateStaticLayer(v, 10).valid(0, 0));
}

TEST(TemporalTest, MeanFrameDifference) {
  const Image a(4, 4, {10, 10, 10});
  const Image b(4, 4, {13, 10, 10});
  EXPECT_DOUBLE_EQ(MeanFrameDifference(a, a), 0.0);
  EXPECT_DOUBLE_EQ(MeanFrameDifference(a, b), 3.0);
}

TEST(TemporalTest, ChangedFraction) {
  Image a(4, 1, {10, 10, 10});
  Image b = a;
  b(0, 0) = {40, 10, 10};
  b(1, 0) = {14, 10, 10};
  EXPECT_DOUBLE_EQ(ChangedFraction(a, b, 8), 0.25);  // only pixel 0
  EXPECT_DOUBLE_EQ(ChangedFraction(a, b, 2), 0.5);   // pixels 0 and 1
  EXPECT_DOUBLE_EQ(ChangedFraction(a, a, 0), 0.0);
}

VideoStream LoopingVideo(int period, int repeats, int w = 8, int h = 6) {
  VideoStream v(10.0);
  for (int r = 0; r < repeats; ++r) {
    for (int p = 0; p < period; ++p) {
      Image f(w, h, {20, 20, 20});
      imaging::FillRect(f, {p % w, 0, 1, h}, {240, 240, 240});
      v.Append(std::move(f));
    }
  }
  return v;
}

TEST(TemporalTest, DetectLoopPeriodFindsExactPeriod) {
  const VideoStream v = LoopingVideo(6, 5);
  const auto period = DetectLoopPeriod(v, {.min_period = 2, .max_period = 20});
  ASSERT_TRUE(period.has_value());
  EXPECT_EQ(*period, 6);
}

TEST(TemporalTest, DetectLoopPeriodRejectsNonLooping) {
  VideoStream v(10.0);
  std::uint64_t s = 12345;
  for (int i = 0; i < 40; ++i) {
    Image f(8, 6);
    for (auto& p : f.pixels()) {
      s = s * 6364136223846793005ull + 1442695040888963407ull;
      p = {static_cast<std::uint8_t>(s >> 33),
           static_cast<std::uint8_t>(s >> 41),
           static_cast<std::uint8_t>(s >> 49)};
    }
    v.Append(std::move(f));
  }
  EXPECT_FALSE(DetectLoopPeriod(v, {.min_period = 2,
                                    .max_period = 12,
                                    .max_changed_fraction = 0.6})
                   .has_value());
}

TEST(TemporalTest, DetectLoopPeriodNeedsEnoughFrames) {
  const VideoStream v = LoopingVideo(6, 1);
  EXPECT_FALSE(DetectLoopPeriod(v, {.min_period = 6}).has_value());
}

TEST(TemporalTest, EstimateLoopFramesRecoversPhases) {
  const VideoStream v = LoopingVideo(4, 6);
  const LoopEstimate est = EstimateLoopFrames(v, 4);
  ASSERT_EQ(est.phase_frames.size(), 4u);
  for (int p = 0; p < 4; ++p) {
    EXPECT_EQ(est.phase_frames[static_cast<std::size_t>(p)],
              v.frame(p));
    EXPECT_EQ(imaging::CountSet(est.phase_valid[static_cast<std::size_t>(p)]),
              est.phase_valid[static_cast<std::size_t>(p)].pixel_count());
  }
}

TEST(TemporalTest, EstimateLoopFramesMajorityBeatsOccluder) {
  // Loop of period 2; an "occluder" covers a pixel in a minority of
  // occurrences.
  VideoStream v(10.0);
  for (int r = 0; r < 5; ++r) {
    for (int p = 0; p < 2; ++p) {
      Image f(4, 4, {static_cast<std::uint8_t>(40 + 40 * p), 10, 10});
      if (r == 2) imaging::FillRect(f, {1, 1, 2, 2}, {222, 222, 222});
      v.Append(std::move(f));
    }
  }
  const LoopEstimate est = EstimateLoopFrames(v, 2);
  EXPECT_TRUE(imaging::NearlyEqual(est.phase_frames[0](1, 1), {40, 10, 10}, 4));
  EXPECT_TRUE(est.phase_valid[0](1, 1));
}

TEST(TemporalTest, EstimateLoopFramesHandlesInvalidPeriod) {
  const VideoStream v = LoopingVideo(3, 3);
  EXPECT_TRUE(EstimateLoopFrames(v, 0).phase_frames.empty());
}

}  // namespace
}  // namespace bb::video
