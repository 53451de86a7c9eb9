#include "imaging/histogram.h"

#include <gtest/gtest.h>

#include <numeric>

namespace bb::imaging {
namespace {

TEST(ColorFrequencyTest, CountsAndFrequencies) {
  ColorFrequency freq;
  EXPECT_DOUBLE_EQ(freq.Frequency({1, 2, 3}), 0.0);
  freq.Add({10, 20, 30});
  freq.Add({10, 20, 30});
  freq.Add({200, 10, 10});
  EXPECT_EQ(freq.total(), 3u);
  EXPECT_EQ(freq.Count({10, 20, 30}), 2u);
  EXPECT_NEAR(freq.Frequency({10, 20, 30}), 2.0 / 3.0, 1e-12);
  // Same bucket (4-bit quantization) counts together.
  EXPECT_EQ(freq.Count({11, 21, 31}), 2u);
}

TEST(ColorFrequencyTest, AddMaskedHonorsMask) {
  Image img(2, 1);
  img(0, 0) = {100, 0, 0};
  img(1, 0) = {0, 100, 0};
  Bitmap mask(2, 1);
  mask(1, 0) = kMaskSet;
  ColorFrequency freq;
  freq.AddMasked(img, mask);
  EXPECT_EQ(freq.total(), 1u);
  EXPECT_EQ(freq.Count({0, 100, 0}), 1u);
  EXPECT_EQ(freq.Count({100, 0, 0}), 0u);
}

TEST(ColorFrequencyTest, AddMergesPartialHistogramsExactly) {
  ColorFrequency a, b, whole;
  for (const Rgb8 c : {Rgb8{10, 20, 30}, Rgb8{200, 0, 0}, Rgb8{10, 20, 30}}) {
    a.Add(c);
    whole.Add(c);
  }
  for (const Rgb8 c : {Rgb8{200, 0, 0}, Rgb8{0, 0, 90}}) {
    b.Add(c);
    whole.Add(c);
  }
  a.Add(b);
  EXPECT_EQ(a.total(), whole.total());
  for (const Rgb8 c : {Rgb8{10, 20, 30}, Rgb8{200, 0, 0}, Rgb8{0, 0, 90}}) {
    EXPECT_EQ(a.Count(c), whole.Count(c));
  }
}

TEST(HueHistogramTest, PureHuesLandInExpectedBins) {
  Image img(3, 1);
  img(0, 0) = {255, 0, 0};  // hue 0
  img(1, 0) = {0, 255, 0};  // hue 120
  img(2, 0) = {0, 0, 255};  // hue 240
  Bitmap mask(3, 1, kMaskSet);
  const auto hist = HueHistogram(img, mask, {.bins = 36});
  EXPECT_NEAR(hist[0], 1.0 / 3.0, 1e-9);
  EXPECT_NEAR(hist[12], 1.0 / 3.0, 1e-9);
  EXPECT_NEAR(hist[24], 1.0 / 3.0, 1e-9);
  EXPECT_NEAR(std::accumulate(hist.begin(), hist.end(), 0.0), 1.0, 1e-9);
}

TEST(HueHistogramTest, GrayPixelsAreSkipped) {
  Image img(2, 1);
  img(0, 0) = {128, 128, 128};  // gray: no hue
  img(1, 0) = {255, 0, 0};
  Bitmap mask(2, 1, kMaskSet);
  const auto hist = HueHistogram(img, mask);
  EXPECT_NEAR(hist[0], 1.0, 1e-9);
}

TEST(HueHistogramTest, EmptyMaskYieldsZeroHistogram) {
  Image img(2, 2, Rgb8{255, 0, 0});
  Bitmap mask(2, 2);
  const auto hist = HueHistogram(img, mask);
  EXPECT_DOUBLE_EQ(std::accumulate(hist.begin(), hist.end(), 0.0), 0.0);
}

TEST(HistogramIntersectionTest, BoundsAndIdentity) {
  std::vector<double> a{0.5, 0.5, 0.0};
  std::vector<double> b{0.0, 0.5, 0.5};
  EXPECT_DOUBLE_EQ(HistogramIntersection(a, a), 1.0);
  EXPECT_DOUBLE_EQ(HistogramIntersection(a, b), 0.5);
  std::vector<double> c{1.0, 0.0, 0.0};
  std::vector<double> d{0.0, 1.0, 0.0};
  EXPECT_DOUBLE_EQ(HistogramIntersection(c, d), 0.0);
}

TEST(MeanColorTest, AveragesMaskedRegion) {
  Image img(2, 1);
  img(0, 0) = {100, 0, 0};
  img(1, 0) = {200, 0, 0};
  Bitmap mask(2, 1, kMaskSet);
  EXPECT_EQ(MeanColor(img, mask), (Rgb8{150, 0, 0}));
  Bitmap empty(2, 1);
  EXPECT_EQ(MeanColor(img, empty), Rgb8{});
}

}  // namespace
}  // namespace bb::imaging
