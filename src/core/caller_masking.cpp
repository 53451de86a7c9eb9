#include "core/caller_masking.h"

#include <stdexcept>
#include <utility>

#include "imaging/color.h"
#include "imaging/morphology.h"

namespace bb::core {

using imaging::Bitmap;

CallerMasker::CallerMasker(const CallerMaskingOptions& opts) : opts_(opts) {}

void CallerMasker::SetCallerColors(imaging::ColorFrequency colors) {
  colors_ = std::move(colors);
}

Bitmap CallerMasker::Refine(const imaging::Image& frame,
                            const imaging::Bitmap& raw) const {
  if (!colors_) throw std::logic_error("CallerMasker: no caller colors");
  Bitmap vcm = raw;
  if (colors_->total() == 0 || opts_.rare_color_frequency <= 0.0) return vcm;

  // Only the uncertain boundary band is eligible for flipping.
  const Bitmap core = imaging::ErodeDisc(raw, opts_.protect_core_px);

  const double threshold =
      opts_.rare_color_frequency * static_cast<double>(colors_->total());
  for (int y = 0; y < vcm.height(); ++y) {
    for (int x = 0; x < vcm.width(); ++x) {
      if (!vcm(x, y) || core(x, y)) continue;
      if (static_cast<double>(colors_->Count(frame(x, y))) < threshold) {
        vcm(x, y) = imaging::kMaskClear;
      }
    }
  }
  return vcm;
}

}  // namespace bb::core
