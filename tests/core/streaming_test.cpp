// Golden bit-identity suite for the streaming reconstruction core: at every
// window size and thread count, StreamingReconstructor must produce results
// byte-identical to the batch Reconstructor::Run on the same call. This is
// the contract that lets the batch entry point be a thin wrapper over the
// streaming core without perturbing any pinned golden value.
#include "core/streaming.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/faultinject.h"
#include "common/parallel.h"
#include "core/metrics.h"
#include "segmentation/segmenter.h"
#include "synth/recorder.h"
#include "vbg/compositor.h"
#include "video/frame_source.h"

namespace bb::core {
namespace {

using imaging::Image;

// A 64x48, 40-frame composited call with ground truth.
struct StreamFixture {
  synth::RawRecording raw;
  vbg::CompositedCall call;
  Image vb_image;

  StreamFixture() {
    synth::RecordingSpec spec;
    spec.scene.width = 64;
    spec.scene.height = 48;
    spec.action.kind = synth::ActionKind::kArmWave;
    spec.fps = 10.0;
    spec.duration_s = 4.0;
    spec.seed = 77;
    raw = synth::RecordCall(spec);
    vb_image = vbg::MakeStockImage(vbg::StockImage::kBeach, 64, 48);
    const vbg::StaticImageSource vb(vb_image);
    call = vbg::ApplyVirtualBackground(raw, vb);
  }

  static const StreamFixture& Shared() {
    static const StreamFixture f;
    return f;
  }
};

void ExpectIdentical(const ReconstructionResult& a,
                     const ReconstructionResult& b, const std::string& what) {
  EXPECT_EQ(a.background, b.background) << what;
  EXPECT_EQ(a.coverage, b.coverage) << what;
  EXPECT_EQ(a.leak_counts, b.leak_counts) << what;
  EXPECT_EQ(a.per_frame_leak_fraction, b.per_frame_leak_fraction) << what;
}

class StreamingIdentityTest : public ::testing::Test {
 protected:
  void TearDown() override { common::SetThreadCount(0); }
};

TEST_F(StreamingIdentityTest, BitIdenticalToBatchAcrossWindowsAndThreads) {
  const StreamFixture& f = StreamFixture::Shared();
  const VbReference ref = VbReference::KnownImage(f.vb_image);

  // Batch baseline at one thread.
  common::SetThreadCount(1);
  segmentation::NoisyOracleSegmenter batch_seg(f.raw.caller_masks, {}, 7);
  Reconstructor batch(ref, batch_seg);
  const ReconstructionResult baseline = batch.Run(f.call.video);

  for (int threads = 1; threads <= 8; ++threads) {
    common::SetThreadCount(threads);
    for (int window : {10, 16, 64}) {
      segmentation::NoisyOracleSegmenter seg(f.raw.caller_masks, {}, 7);
      StreamingOptions opts;
      opts.window_frames = window;
      StreamingReconstructor streaming(ref, seg, opts);
      video::VideoStreamSource source(f.call.video);
      const ReconstructionResult rec = streaming.Run(source).value();
      ExpectIdentical(rec, baseline,
                      "threads " + std::to_string(threads) + " window " +
                          std::to_string(window));
    }
  }
}

TEST_F(StreamingIdentityTest, VideoVbLoopPeriodPathIsBitIdentical) {
  synth::RecordingSpec spec;
  spec.scene.width = 64;
  spec.scene.height = 48;
  spec.action.kind = synth::ActionKind::kArmWave;
  spec.fps = 9.0;
  spec.duration_s = 4.0;  // 36 frames
  spec.seed = 31;
  const auto raw = synth::RecordCall(spec);
  auto frames = vbg::MakeStockVideo(vbg::StockVideo::kStars, 64, 48, 6);
  const vbg::LoopingVideoSource vb(frames);
  const auto call = vbg::ApplyVirtualBackground(raw, vb);

  // Derive the VB reference from the call itself, both ways: the streaming
  // derivation (loop-period detection + banded phase estimation) must agree
  // with the batch derivation bit-for-bit before reconstruction even starts.
  const auto batch_ref = VbReference::DeriveVideo(call.video);
  ASSERT_TRUE(batch_ref.has_value());
  video::VideoStreamSource ref_source(call.video);
  const auto stream_ref =
      VbReference::DeriveVideoStreaming(ref_source, /*window_frames=*/10);
  ASSERT_TRUE(stream_ref.has_value());

  common::SetThreadCount(1);
  segmentation::NoisyOracleSegmenter batch_seg(raw.caller_masks, {}, 7);
  Reconstructor batch(*batch_ref, batch_seg);
  const ReconstructionResult baseline = batch.Run(call.video);

  for (int threads : {1, 4}) {
    common::SetThreadCount(threads);
    for (int window : {10, 64}) {
      segmentation::NoisyOracleSegmenter seg(raw.caller_masks, {}, 7);
      StreamingOptions opts;
      opts.window_frames = window;
      StreamingReconstructor streaming(*stream_ref, seg, opts);
      video::VideoStreamSource source(call.video);
      const ReconstructionResult rec = streaming.Run(source).value();
      ExpectIdentical(rec, baseline,
                      "threads " + std::to_string(threads) + " window " +
                          std::to_string(window));
    }
  }
}

TEST_F(StreamingIdentityTest, KeepFrameMasksMatchesBatchPerFrame) {
  const StreamFixture& f = StreamFixture::Shared();
  const VbReference ref = VbReference::KnownImage(f.vb_image);
  ReconstructionOptions ropts;
  ropts.keep_frame_masks = true;

  segmentation::NoisyOracleSegmenter batch_seg(f.raw.caller_masks, {}, 7);
  Reconstructor batch(ref, batch_seg, ropts);
  const ReconstructionResult baseline = batch.Run(f.call.video);

  segmentation::NoisyOracleSegmenter seg(f.raw.caller_masks, {}, 7);
  StreamingOptions opts;
  opts.window_frames = 10;
  opts.recon = ropts;
  StreamingReconstructor streaming(ref, seg, opts);
  video::VideoStreamSource source(f.call.video);
  const ReconstructionResult rec = streaming.Run(source).value();

  ExpectIdentical(rec, baseline, "keep_frame_masks window 10");
  ASSERT_EQ(rec.frame_masks.size(), baseline.frame_masks.size());
  for (std::size_t i = 0; i < baseline.frame_masks.size(); ++i) {
    EXPECT_EQ(rec.frame_masks[i].vbm, baseline.frame_masks[i].vbm) << i;
    EXPECT_EQ(rec.frame_masks[i].bbm, baseline.frame_masks[i].bbm) << i;
    EXPECT_EQ(rec.frame_masks[i].vcm, baseline.frame_masks[i].vcm) << i;
    EXPECT_EQ(rec.frame_masks[i].lb, baseline.frame_masks[i].lb) << i;
  }
}

TEST(StreamingStatsTest, PeakResidencyBoundedByWindowAndPoolRecycles) {
  const StreamFixture& f = StreamFixture::Shared();
  const VbReference ref = VbReference::KnownImage(f.vb_image);
  segmentation::NoisyOracleSegmenter seg(f.raw.caller_masks, {}, 7);
  StreamingOptions opts;
  opts.window_frames = 10;
  StreamingReconstructor streaming(ref, seg, opts);
  video::VideoStreamSource source(f.call.video);
  ASSERT_TRUE(streaming.Run(source).ok());

  const StreamingStats& stats = streaming.stats();
  EXPECT_EQ(stats.window_capacity, 10);
  EXPECT_LE(stats.peak_window_frames, 10);
  EXPECT_EQ(stats.frames_pushed,
            static_cast<std::uint64_t>(f.call.video.frame_count()));
  EXPECT_EQ(stats.window_flushes, 4u);  // 40 frames / window 10
  EXPECT_GT(stats.pool_hits, 0u);
  // Steady state recycles a fixed buffer set: misses stay around one
  // window's worth, far below one per frame.
  EXPECT_LT(stats.pool_misses, stats.frames_pushed);
  // Raw masks are cached whatever the window: one segmentation per frame.
  EXPECT_EQ(stats.segments,
            static_cast<std::uint64_t>(f.call.video.frame_count()));
  EXPECT_GT(stats.raw_mask_bytes, 0u);
}

TEST(StreamingProtocolTest, WindowCoveringWholeCallCachesRawMasks) {
  const StreamFixture& f = StreamFixture::Shared();
  const VbReference ref = VbReference::KnownImage(f.vb_image);
  segmentation::NoisyOracleSegmenter seg(f.raw.caller_masks, {}, 7);
  StreamingOptions opts;
  opts.window_frames = f.call.video.frame_count();
  StreamingReconstructor streaming(ref, seg, opts);
  video::VideoStreamSource source(f.call.video);
  ASSERT_TRUE(streaming.Run(source).ok());
  EXPECT_EQ(streaming.stats().segments,
            static_cast<std::uint64_t>(f.call.video.frame_count()));
  EXPECT_EQ(streaming.stats().window_flushes, 1u);
}

TEST(StreamingProtocolTest, RejectsInvalidWindowAndOutOfOrderPushes) {
  const StreamFixture& f = StreamFixture::Shared();
  const VbReference ref = VbReference::KnownImage(f.vb_image);
  segmentation::NoisyOracleSegmenter seg(f.raw.caller_masks, {}, 7);

  StreamingOptions bad;
  bad.window_frames = 0;
  EXPECT_THROW(StreamingReconstructor(ref, seg, bad), std::invalid_argument);

  StreamingReconstructor streaming(ref, seg);
  video::VideoStreamSource source(f.call.video);
  streaming.Begin(source.info());
  streaming.BeginPass(0);
  Image frame;
  ASSERT_TRUE(source.Next(frame));
  streaming.PushFrame(frame, 0);
  // Skipping ahead violates the in-order contract.
  EXPECT_THROW(streaming.PushFrame(frame, 2), std::logic_error);
  // Passes must be visited in sequence.
  EXPECT_THROW(streaming.BeginPass(5), std::logic_error);
}

TEST(StreamingProtocolTest, SegmenterFailuresPropagate) {
  const StreamFixture& f = StreamFixture::Shared();
  const VbReference ref = VbReference::KnownImage(f.vb_image);
  // An oracle with no masks throws as soon as a frame is segmented.
  segmentation::NoisyOracleSegmenter seg({}, {}, 1);
  StreamingOptions opts;
  opts.window_frames = 10;
  StreamingReconstructor streaming(ref, seg, opts);
  video::VideoStreamSource source(f.call.video);
  EXPECT_THROW((void)streaming.Run(source), std::out_of_range);
}

// Forwards to a segmenter and counts Segment() calls per frame.
class CountingSegmenter final : public segmentation::PersonSegmenter {
 public:
  CountingSegmenter(segmentation::PersonSegmenter& inner, int frames)
      : inner_(inner), calls_(static_cast<std::size_t>(frames)) {}

  int AnalysisPasses() const override { return inner_.AnalysisPasses(); }
  void BeginAnalysisPass(int pass, const video::StreamInfo& info) override {
    inner_.BeginAnalysisPass(pass, info);
  }
  void PushAnalysisFrame(int pass, const Image& frame,
                         int frame_index) override {
    inner_.PushAnalysisFrame(pass, frame, frame_index);
  }
  void EndAnalysisPass(int pass) override { inner_.EndAnalysisPass(pass); }
  imaging::Bitmap Segment(const Image& frame, int frame_index) override {
    calls_[static_cast<std::size_t>(frame_index)].fetch_add(
        1, std::memory_order_relaxed);
    return inner_.Segment(frame, frame_index);
  }

  int Calls(int frame_index) const {
    return calls_[static_cast<std::size_t>(frame_index)].load();
  }
  std::uint64_t Total() const {
    std::uint64_t total = 0;
    for (const auto& c : calls_) total += static_cast<std::uint64_t>(c.load());
    return total;
  }

 private:
  segmentation::PersonSegmenter& inner_;
  std::vector<std::atomic<int>> calls_;
};

// Every frame outside `quarantined` was segmented exactly once.
void ExpectSegmentedOnce(const CountingSegmenter& seg, int frames,
                         const std::vector<int>& quarantined,
                         const std::string& what) {
  for (int i = 0; i < frames; ++i) {
    const bool bad = std::find(quarantined.begin(), quarantined.end(), i) !=
                     quarantined.end();
    EXPECT_EQ(seg.Calls(i), bad ? 0 : 1) << what << " frame " << i;
  }
}

class SegmentOnceTest : public ::testing::Test {
 protected:
  void TearDown() override {
    common::SetThreadCount(0);
    faultinject::Clear();
  }
};

TEST_F(SegmentOnceTest, BatchSegmentsEachFrameOnce) {
  const StreamFixture& f = StreamFixture::Shared();
  const int frames = f.call.video.frame_count();
  const VbReference ref = VbReference::KnownImage(f.vb_image);
  for (int threads : {1, 4}) {
    common::SetThreadCount(threads);
    // The CLI path's segmenter, with its two analysis passes.
    segmentation::ClassicalSegmenter classical;
    CountingSegmenter seg(classical, frames);
    Reconstructor batch(ref, seg);
    (void)batch.Run(f.call.video);
    ExpectSegmentedOnce(seg, frames, {}, "batch");
  }
}

TEST_F(SegmentOnceTest, StreamSegmentsOnlyOnTheCallerPass) {
  const StreamFixture& f = StreamFixture::Shared();
  const int frames = f.call.video.frame_count();
  const VbReference ref = VbReference::KnownImage(f.vb_image);
  for (int threads : {1, 4}) {
    common::SetThreadCount(threads);
    for (int window : {1, 7, 64, frames, 3 * frames}) {
      const std::string what = "threads " + std::to_string(threads) +
                               " window " + std::to_string(window);
      segmentation::NoisyOracleSegmenter oracle(f.raw.caller_masks, {}, 7);
      CountingSegmenter seg(oracle, frames);
      StreamingOptions opts;
      opts.window_frames = window;
      StreamingReconstructor streaming(ref, seg, opts);
      video::VideoStreamSource source(f.call.video);
      streaming.Begin(source.info());
      const int caller_pass = streaming.TotalPasses() - 2;
      for (int pass = 0; pass < streaming.TotalPasses(); ++pass) {
        streaming.BeginPass(pass);
        for (int i = 0; i < frames; ++i) {
          streaming.PushFrame(f.call.video.frame(i), i);
        }
        streaming.EndPass(pass);
        // The caller pass has segmented every frame; the decomposition
        // pass must not segment any.
        if (pass >= caller_pass) ExpectSegmentedOnce(seg, frames, {}, what);
      }
      (void)streaming.Finalize();
      EXPECT_EQ(streaming.stats().segments,
                static_cast<std::uint64_t>(frames))
          << what;
    }
  }
}

TEST_F(SegmentOnceTest, QuarantinedFramesAreNeverSegmented) {
  const StreamFixture& f = StreamFixture::Shared();
  const int frames = f.call.video.frame_count();
  const VbReference ref = VbReference::KnownImage(f.vb_image);
  common::SetThreadCount(4);
  ASSERT_TRUE(faultinject::Configure("source@5=fail,source@21=fail").ok());
  segmentation::NoisyOracleSegmenter oracle(f.raw.caller_masks, {}, 7);
  CountingSegmenter seg(oracle, frames);
  StreamingOptions opts;
  opts.window_frames = 7;
  StreamingReconstructor streaming(ref, seg, opts);
  video::VideoStreamSource source(f.call.video);
  ASSERT_TRUE(streaming.Run(source).ok());
  EXPECT_EQ(streaming.QuarantinedFrames(), (std::vector<int>{5, 21}));
  ExpectSegmentedOnce(seg, frames, {5, 21}, "quarantine");
}

TEST_F(SegmentOnceTest, ShardWorkerSegmentsEachFrameOnce) {
  const StreamFixture& f = StreamFixture::Shared();
  const int frames = f.call.video.frame_count();
  const VbReference ref = VbReference::KnownImage(f.vb_image);
  common::SetThreadCount(4);
  segmentation::NoisyOracleSegmenter oracle(f.raw.caller_masks, {}, 7);
  CountingSegmenter seg(oracle, frames);
  StreamingOptions opts;
  opts.window_frames = 7;
  opts.shard_index = 1;
  opts.shard_count = 3;
  StreamingReconstructor streaming(ref, seg, opts);
  video::VideoStreamSource source(f.call.video);
  ASSERT_TRUE(streaming.RunPartial(source).ok());
  // The caller pass covers the whole stream (global color model); only
  // this worker's slice is decomposed, from the cached masks.
  ExpectSegmentedOnce(seg, frames, {}, "shard 1/3");
}

TEST_F(SegmentOnceTest, ResumedRunSegmentsEachFrameOnce) {
  const StreamFixture& f = StreamFixture::Shared();
  const int frames = f.call.video.frame_count();
  const VbReference ref = VbReference::KnownImage(f.vb_image);
  const std::string path =
      ::testing::TempDir() + "bb_segment_once_resume.bbck";
  std::remove(path.c_str());
  common::SetThreadCount(4);
  StreamingOptions opts;
  opts.window_frames = 10;
  opts.checkpoint_path = path;
  {
    // Interrupted after two decomposition flushes (frames [0, 20)).
    segmentation::NoisyOracleSegmenter oracle(f.raw.caller_masks, {}, 7);
    StreamingReconstructor interrupted(ref, oracle, opts);
    video::VideoStreamSource source(f.call.video);
    interrupted.Begin(source.info());
    interrupted.BeginPass(0);
    for (int i = 0; i < frames; ++i) {
      interrupted.PushFrame(f.call.video.frame(i), i);
    }
    interrupted.EndPass(0);
    interrupted.BeginPass(1);
    for (int i = 0; i < 25; ++i) {
      interrupted.PushFrame(f.call.video.frame(i), i);
    }
  }
  segmentation::NoisyOracleSegmenter oracle(f.raw.caller_masks, {}, 7);
  CountingSegmenter seg(oracle, frames);
  StreamingReconstructor resumed(ref, seg, opts);
  video::VideoStreamSource source(f.call.video);
  ASSERT_TRUE(resumed.Run(source).ok());
  ASSERT_TRUE(resumed.stats().resumed);
  EXPECT_EQ(resumed.stats().resume_frames_done, 20);
  ExpectSegmentedOnce(seg, frames, {}, "resumed");
}

}  // namespace
}  // namespace bb::core
