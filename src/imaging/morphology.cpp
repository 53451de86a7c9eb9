#include "imaging/morphology.h"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <vector>

#include "imaging/kernels/kernels.h"

namespace bb::imaging {

namespace {

constexpr float kInf = std::numeric_limits<float>::max() / 4.0f;

// 1-D squared distance transform (Felzenszwalb & Huttenlocher 2012).
void Dt1d(const float* f, float* d, int n, int* v, float* z) {
  int k = 0;
  v[0] = 0;
  z[0] = -kInf;
  z[1] = kInf;
  for (int q = 1; q < n; ++q) {
    float s = ((f[q] + static_cast<float>(q) * q) -
               (f[v[k]] + static_cast<float>(v[k]) * v[k])) /
              (2.0f * (q - v[k]));
    while (s <= z[k]) {
      --k;
      s = ((f[q] + static_cast<float>(q) * q) -
           (f[v[k]] + static_cast<float>(v[k]) * v[k])) /
          (2.0f * (q - v[k]));
    }
    ++k;
    v[k] = q;
    z[k] = s;
    z[k + 1] = kInf;
  }
  k = 0;
  for (int q = 0; q < n; ++q) {
    while (z[k + 1] < static_cast<float>(q)) ++k;
    const float dq = static_cast<float>(q - v[k]);
    d[q] = dq * dq + f[v[k]];
  }
}

// The cutoff was chosen by measurement (EXPERIMENTS.md, "Exact
// small-radius disc morphology"); half-widths must stay below the row
// distance saturation.
static_assert(kDiscStencilMaxRadius < kernels::kRowDistanceFar);

// The disc's half-widths: half[dy] is the largest dx >= 0 with
// float(dx*dx + dy*dy) <= float(r*r), for every dy >= 0 that has one. This
// is the predicate ThresholdLE applies to the EDT.
std::vector<std::uint8_t> DiscHalfWidths(double radius) {
  const float r2 = static_cast<float>(radius * radius);
  std::vector<std::uint8_t> half;
  for (int dy = 0; static_cast<float>(dy * dy) <= r2; ++dy) {
    int dx = 0;
    while (static_cast<float>((dx + 1) * (dx + 1) + dy * dy) <= r2) ++dx;
    half.push_back(static_cast<std::uint8_t>(dx));
  }
  return half;
}

// Exact disc dilation (or erosion) by row stencil. Dilation: output row y
// is the union over |dy| <= R of input row y+dy widened by half[|dy|].
// Erosion: a pixel is cleared when a clear pixel lies within the disc. Rows
// outside the image contribute nothing, so pixels outside count as clear
// for dilation and as set for erosion, as they do on the EDT path.
Bitmap StencilDisc(const Bitmap& mask, double radius, bool erode) {
  const int w = mask.width(), h = mask.height();
  const std::vector<std::uint8_t> half = DiscHalfWidths(radius);
  const int rows = static_cast<int>(half.size()) - 1;
  // Per row, the distance to the nearest pixel that flips the output:
  // a set pixel for dilation, a clear one for erosion.
  ImageT<std::uint8_t> dist(w, h);
  for (int y = 0; y < h; ++y) {
    kernels::RowDistanceTo(mask.row(y), !erode, dist.row(y));
  }
  const std::uint8_t flipped = erode ? kMaskClear : kMaskSet;
  Bitmap out(w, h, erode ? kMaskSet : kMaskClear);
  for (int y = 0; y < h; ++y) {
    for (int dy = std::max(-rows, -y); dy <= std::min(rows, h - 1 - y);
         ++dy) {
      kernels::StampWithinReach(dist.row(y + dy), half[std::abs(dy)],
                                flipped, out.row(y));
    }
  }
  return out;
}

}  // namespace

FloatImage SquaredDistanceToSet(const Bitmap& mask) {
  const int w = mask.width(), h = mask.height();
  FloatImage dist(w, h);
  if (w == 0 || h == 0) return dist;

  // Initialize: 0 inside the set, +inf outside.
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      dist(x, y) = mask(x, y) ? 0.0f : kInf;
    }
  }

  const int n = std::max(w, h);
  std::vector<float> f(n), d(n), z(n + 1);
  std::vector<int> v(n);

  // Transform along columns.
  for (int x = 0; x < w; ++x) {
    for (int y = 0; y < h; ++y) f[y] = dist(x, y);
    Dt1d(f.data(), d.data(), h, v.data(), z.data());
    for (int y = 0; y < h; ++y) dist(x, y) = d[y];
  }
  // Transform along rows.
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) f[x] = dist(x, y);
    Dt1d(f.data(), d.data(), w, v.data(), z.data());
    for (int x = 0; x < w; ++x) dist(x, y) = d[x];
  }
  return dist;
}

Bitmap DilateDisc(const Bitmap& mask, double radius) {
  if (radius <= 0.0) return mask;
  if (radius <= kDiscStencilMaxRadius) {
    return StencilDisc(mask, radius, /*erode=*/false);
  }
  const FloatImage dist = SquaredDistanceToSet(mask);
  const float r2 = static_cast<float>(radius * radius);
  Bitmap out(mask.width(), mask.height());
  kernels::ThresholdLE(dist.pixels(), r2, out.pixels());
  return out;
}

Bitmap ErodeDisc(const Bitmap& mask, double radius) {
  if (radius <= 0.0) return mask;
  if (radius <= kDiscStencilMaxRadius) {
    return StencilDisc(mask, radius, /*erode=*/true);
  }
  return Not(DilateDisc(Not(mask), radius));
}

Bitmap OpenDisc(const Bitmap& mask, double radius) {
  return DilateDisc(ErodeDisc(mask, radius), radius);
}

Bitmap CloseDisc(const Bitmap& mask, double radius) {
  return ErodeDisc(DilateDisc(mask, radius), radius);
}

Bitmap BoundaryRing(const Bitmap& mask, double radius) {
  return AndNot(DilateDisc(mask, radius), mask);
}

}  // namespace bb::imaging
