// Temporal pixel analysis.
//
// These primitives implement the signal the paper's *unknown virtual
// background* derivation relies on (sec. V-B): virtual-background pixels are
// static across frames while the caller and the blending ring are dynamic.
// For virtual *videos*, the VB loops, so the per-phase statistics become
// static once the loop period is known.
#pragma once

#include <optional>
#include <vector>

#include "imaging/image.h"
#include "video/frame_source.h"
#include "video/video.h"

namespace bb::video {

struct ConsistencyOptions {
  // Two samples of a pixel are "the same value" when every channel differs
  // by at most this much (blending/compression jitter tolerance).
  int channel_tolerance = 4;
};

// The static layer of a video. For each pixel, the longest run of
// consecutive frames over which its value stayed the same (within
// tolerance) is tracked: a pixel of the virtual background has a run close
// to the video length, caller pixels have short runs (paper threshold: a
// run of >= 10 frames at 30 fps is VB). `color` is the pixel's value over
// its longest run; pixels whose longest run is below `min_run` are
// reported in `valid` as 0.
struct StaticLayer {
  imaging::Image color;
  imaging::Bitmap valid;
};
StaticLayer EstimateStaticLayer(const VideoStream& video, int min_run,
                                const ConsistencyOptions& opts = {});

// Incremental form of EstimateStaticLayer: push frames in order, then
// Finalize. Holds O(1) frames of state (anchor + current best color + two
// int planes) regardless of stream length; the batch function is a thin
// wrapper over this and produces bit-identical results.
class StaticLayerAccumulator {
 public:
  explicit StaticLayerAccumulator(const ConsistencyOptions& opts = {})
      : opts_(opts) {}

  void Push(const imaging::Image& frame);
  int frames_seen() const { return frames_; }
  StaticLayer Finalize(int min_run) const;

 private:
  ConsistencyOptions opts_;
  int frames_ = 0;
  imaging::Image anchor_;     // value of the run currently in progress
  imaging::Image color_;      // representative value of the best run so far
  imaging::ImageT<int> run_;
  imaging::ImageT<int> best_;
};

// Mean absolute frame difference between frames i and j (over all pixels,
// max-channel metric).
double MeanFrameDifference(const imaging::Image& a, const imaging::Image& b);

// Fraction of pixels whose value differs beyond `channel_tolerance` between
// two frames.
double ChangedFraction(const imaging::Image& a, const imaging::Image& b,
                       int channel_tolerance);

// Detects the loop period (in frames) of a repeating background video by
// scanning candidate periods and scoring the fraction of pixels that change
// between frames one period apart. The metric is robust to a moving caller
// occupying part of the frame (the caller changes pixels at EVERY period,
// adding a constant floor, while a wrong period additionally changes the
// animated background). Returns nullopt when no candidate scores below
// `max_changed_fraction`. Periods in [min_period, max_period] are
// considered; among near-ties the smallest period wins.
struct LoopDetectOptions {
  int min_period = 4;
  int max_period = 120;
  double max_changed_fraction = 0.6;
  int channel_tolerance = 8;
};
std::optional<int> DetectLoopPeriod(const VideoStream& video,
                                    const LoopDetectOptions& opts = {});

// Single-pass streaming form of DetectLoopPeriod. Keeps a ring of the last
// max_period+1 frames (bounded by the options, never by the call length) and
// scores the same frame pairs as the batch function, so the two are
// bit-identical; DetectLoopPeriod is a wrapper over this.
std::optional<int> DetectLoopPeriodStreaming(FrameSource& source,
                                             const LoopDetectOptions& opts = {});

// Given a known loop period, estimates each phase's static frame by a
// per-pixel majority over all occurrences of that phase. `valid` marks
// pixels that were consistent across a majority of occurrences.
struct LoopEstimate {
  std::vector<imaging::Image> phase_frames;
  std::vector<imaging::Bitmap> phase_valid;
};
LoopEstimate EstimateLoopFrames(const VideoStream& video, int period,
                                const ConsistencyOptions& opts = {});

// Banded multi-pass form of EstimateLoopFrames for streams too long to
// materialize: each pass re-pulls the source and collects only a horizontal
// band of rows per frame, sized so all per-frame strips together hold about
// `window_frames` full frames. Produces bit-identical output to the batch
// function (same per-pixel medians over the same occurrence order).
LoopEstimate EstimateLoopFramesStreaming(FrameSource& source, int period,
                                         int window_frames,
                                         const ConsistencyOptions& opts = {});

}  // namespace bb::video
