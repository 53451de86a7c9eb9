// Color statistics.
//
// The video-caller mask refinement (paper sec. V-D) reclassifies pixels
// whose color is statistically rare within the caller region; the location
// attack compares hue histograms. Both build on these counters.
#pragma once

#include <array>
#include <vector>

#include "imaging/color.h"
#include "imaging/image.h"

namespace bb::imaging {

// Counts of quantized colors (kColorBucketCount buckets, 4 bits/channel).
class ColorFrequency {
 public:
  ColorFrequency() : counts_(kColorBucketCount, 0) {}

  void Add(Rgb8 c) {
    ++counts_[static_cast<std::size_t>(ColorBucket(c))];
    ++total_;
  }

  // Adds every pixel of `img` where `mask` is set.
  void AddMasked(const Image& img, const Bitmap& mask);
  // Adds another histogram's counts. The counts are integers, so partial
  // histograms merge exactly in any order.
  void Add(const ColorFrequency& other);

  std::uint64_t Count(Rgb8 c) const {
    return counts_[static_cast<std::size_t>(ColorBucket(c))];
  }
  std::uint64_t total() const { return total_; }

  // Relative frequency of the color's bucket in [0, 1]; 0 when empty.
  double Frequency(Rgb8 c) const {
    if (total_ == 0) return 0.0;
    return static_cast<double>(Count(c)) / static_cast<double>(total_);
  }

 private:
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

// Hue histogram over `bins` equal slices of [0, 360); pixels with
// saturation or value below the thresholds are skipped (hue is meaningless
// for near-gray pixels).
struct HueHistogramOptions {
  int bins = 36;
  float min_saturation = 0.12f;
  float min_value = 0.08f;
};

std::vector<double> HueHistogram(const Image& img, const Bitmap& mask,
                                 const HueHistogramOptions& opts = {});

// Histogram intersection similarity in [0, 1] for two normalized
// histograms of the same size.
double HistogramIntersection(const std::vector<double>& a,
                             const std::vector<double>& b);

// Mean color of the masked region (black when the mask is empty).
Rgb8 MeanColor(const Image& img, const Bitmap& mask);

}  // namespace bb::imaging
