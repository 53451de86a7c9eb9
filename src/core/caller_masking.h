// Video caller masking (paper sec. V-D).
//
// VCM = person segmentation (DeepLabv3 in the paper; a PersonSegmenter
// substitute here) refined by a statistical color-frequency correction:
// colors that appear with very low frequency inside the caller region
// across the whole call are presumed to be leaked background mistakenly
// kept by the segmenter, and those pixels are flipped out of the VCM.
// The paper's rationale: a leaked background pixel keeps the same color
// whenever it leaks, while true caller-boundary pixels vary as the caller
// moves - so leak colors are rare *within* the caller region but
// persistent, and statistically contrast with the caller's palette.
//
// The masker holds only the whole-call color model and the refinement;
// segmenting each frame and gathering the model is the streaming
// reconstructor's caller pass (core/streaming.h).
#pragma once

#include <optional>

#include "imaging/histogram.h"
#include "imaging/image.h"

namespace bb::core {

struct CallerMaskingOptions {
  // A color bucket whose relative frequency inside the segmented caller
  // region (over the whole call) is below this is treated as leaked
  // background.
  double rare_color_frequency = 0.0025;
  // Never flip pixels deeper than this inside the segmenter mask; the
  // correction targets the uncertain boundary band.
  double protect_core_px = 4.0;
};

class CallerMasker {
 public:
  explicit CallerMasker(const CallerMaskingOptions& opts = {});

  // Installs the caller color model: the colors of every frame's pixels
  // under its raw segmenter mask (ColorFrequency::AddMasked), summed over
  // the call. Must be called before Refine().
  void SetCallerColors(imaging::ColorFrequency colors);

  // Refines a raw segmenter mask into the VCM for `frame`. Thread-safe.
  imaging::Bitmap Refine(const imaging::Image& frame,
                         const imaging::Bitmap& raw) const;

 private:
  CallerMaskingOptions opts_;
  std::optional<imaging::ColorFrequency> colors_;
};

}  // namespace bb::core
