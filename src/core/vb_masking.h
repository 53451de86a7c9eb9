// Virtual background masking (paper sec. V-B).
//
// First stage of the reconstruction framework: identify which pixels of each
// blended frame belong to the virtual background (VBM). Four scenarios:
//   1. known virtual image      - highest-likelihood match over D_img
//   2. known virtual video      - highest-likelihood match over all frames
//                                 of all videos in D_vid
//   3. unknown virtual image    - derive it from the call: pixels stable
//                                 across >= kDefaultStableRun frames are VB
//   4. unknown virtual video    - detect the loop period, derive each phase
//                                 frame, then per-frame match
// A derived reference can be augmented with derivations from other calls
// using the same VB (the paper's fix for fairly stationary callers).
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "imaging/image.h"
#include "video/frame_source.h"
#include "video/video.h"

namespace bb::core {

// Paper: "for a standard 30 fps video stream, a pixel consistent across 10
// or more frames has very high probability of belonging to the virtual
// background".
inline constexpr int kDefaultStableRun = 10;

struct VbMaskingOptions {
  // Per-channel tolerance of the matching function mu. The paper's mu is
  // exact equality; real blending and compression jitter pixels slightly,
  // so a tolerance is applied (0 restores the paper's exact mu).
  int match_tolerance = 10;
  // Frame sampling stride when scoring dictionary candidates.
  int score_frame_stride = 5;
  // Pixel sampling stride when scoring dictionary candidates.
  int score_pixel_stride = 2;
};

// Score of the paper's highest-likelihood estimator: fraction of sampled
// pixels of `frame` equal (within tolerance) to `candidate`.
double MatchFraction(const imaging::Image& frame,
                     const imaging::Image& candidate, int tolerance,
                     int pixel_stride = 1);

// Identifies the virtual image used in `call` from the dictionary; returns
// the best index and its mean match fraction.
struct DictionaryMatch {
  int index = -1;
  double score = 0.0;
};
DictionaryMatch IdentifyKnownImage(
    const video::VideoStream& call,
    std::span<const imaging::Image> dictionary,
    const VbMaskingOptions& opts = {});

// Identifies the virtual *video* used in `call`: returns which dictionary
// video matches best, scored by the best per-frame phase alignment.
DictionaryMatch IdentifyKnownVideo(
    const video::VideoStream& call,
    std::span<const std::vector<imaging::Image>> dictionary,
    const VbMaskingOptions& opts = {});

// A per-frame VB reference: the image to compare frame i against, plus a
// validity mask (derived references have holes where the caller always
// stood).
class VbReference {
 public:
  // Known static image: valid everywhere.
  static VbReference KnownImage(imaging::Image image);

  // Known looping video with known period; phase alignment is found per
  // frame by best match.
  static VbReference KnownVideo(std::vector<imaging::Image> frames);

  // Derives a static VB image from the call (unknown-image scenario): a
  // wrapper that runs DeriveImageStreaming over the in-memory call.
  static VbReference DeriveImage(const video::VideoStream& call,
                                 int min_stable_run = kDefaultStableRun,
                                 int channel_tolerance = 4);

  // Derives a looping VB video from the call (unknown-video scenario).
  // Returns nullopt when no loop period is detected.
  static std::optional<VbReference> DeriveVideo(
      const video::VideoStream& call, int min_stable_run = kDefaultStableRun,
      int channel_tolerance = 4);

  // Streaming forms of the two derivations: pull the call from a rewindable
  // source instead of a materialized stream, holding O(window) frame state.
  // Bit-identical to the batch forms on the same frames.
  static VbReference DeriveImageStreaming(
      video::FrameSource& source, int min_stable_run = kDefaultStableRun,
      int channel_tolerance = 4);
  static std::optional<VbReference> DeriveVideoStreaming(
      video::FrameSource& source, int window_frames,
      int min_stable_run = kDefaultStableRun, int channel_tolerance = 4);

  // Merges validity/content from another derivation of the SAME virtual
  // background (e.g. from a different call) - fills holes.
  void AugmentWith(const VbReference& other);

  // Reference image to compare the given call frame against. For video
  // references the best-matching phase is selected by pixel similarity.
  const imaging::Image& ImageFor(const imaging::Image& frame,
                                 int frame_index,
                                 const VbMaskingOptions& opts = {}) const;

  // Validity mask companion of ImageFor (all-set for known references).
  const imaging::Bitmap& ValidFor(const imaging::Image& frame,
                                  int frame_index,
                                  const VbMaskingOptions& opts = {}) const;

  bool is_video() const { return frames_.size() > 1; }
  int period() const { return static_cast<int>(frames_.size()); }

  // Fraction of reference pixels that are valid (1.0 for known refs).
  double ValidFraction() const;

 private:
  VbReference() = default;
  int BestPhase(const imaging::Image& frame,
                const VbMaskingOptions& opts) const;

  std::vector<imaging::Image> frames_;
  std::vector<imaging::Bitmap> valid_;
  bool derived_ = false;
};

// Generates the virtual background mask VBM for one frame: set where the
// frame pixel matches the (valid) reference pixel within tolerance.
imaging::Bitmap ComputeVbm(const imaging::Image& frame,
                           const imaging::Image& reference,
                           const imaging::Bitmap& reference_valid,
                           int tolerance);

// In-place form for pooled mask buffers: fully overwrites `*out` (reshaping
// it if needed). ComputeVbm is a wrapper over this.
void ComputeVbmInto(const imaging::Image& frame,
                    const imaging::Image& reference,
                    const imaging::Bitmap& reference_valid, int tolerance,
                    imaging::Bitmap* out);

}  // namespace bb::core
