#include "imaging/morphology.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "imaging/draw.h"
#include "imaging/kernels/kernels.h"

namespace bb::imaging {
namespace {

// Brute-force reference distance transform.
FloatImage BruteForceSquaredDistance(const Bitmap& mask) {
  FloatImage out(mask.width(), mask.height(),
                 std::numeric_limits<float>::max() / 8.0f);
  for (int y = 0; y < mask.height(); ++y) {
    for (int x = 0; x < mask.width(); ++x) {
      float best = out(x, y);
      for (int sy = 0; sy < mask.height(); ++sy) {
        for (int sx = 0; sx < mask.width(); ++sx) {
          if (!mask(sx, sy)) continue;
          const float d = static_cast<float>((x - sx) * (x - sx) +
                                             (y - sy) * (y - sy));
          best = std::min(best, d);
        }
      }
      out(x, y) = best;
    }
  }
  return out;
}

TEST(MorphologyTest, DistanceTransformZeroInsideSet) {
  Bitmap m(8, 8);
  FillRect(m, {2, 2, 3, 3});
  const FloatImage d = SquaredDistanceToSet(m);
  for (int y = 2; y < 5; ++y) {
    for (int x = 2; x < 5; ++x) EXPECT_FLOAT_EQ(d(x, y), 0.0f);
  }
  EXPECT_FLOAT_EQ(d(5, 2), 1.0f);
  EXPECT_FLOAT_EQ(d(6, 2), 4.0f);
  EXPECT_FLOAT_EQ(d(6, 6), 8.0f);  // diagonal 2,2 from (4,4)
}

// Property: exact transform matches brute force on random masks.
class DistanceTransformPropertyTest
    : public ::testing::TestWithParam<int> {};

TEST_P(DistanceTransformPropertyTest, MatchesBruteForce) {
  std::uint64_t s = static_cast<std::uint64_t>(GetParam()) * 48271u + 3;
  auto next = [&s]() {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  };
  Bitmap m(13, 9);
  for (auto& v : m.pixels()) v = (next() % 5) == 0;
  if (CountSet(m) == 0) m(0, 0) = kMaskSet;

  const FloatImage fast = SquaredDistanceToSet(m);
  const FloatImage slow = BruteForceSquaredDistance(m);
  for (int y = 0; y < m.height(); ++y) {
    for (int x = 0; x < m.width(); ++x) {
      EXPECT_NEAR(fast(x, y), slow(x, y), 1e-3f) << x << "," << y;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DistanceTransformPropertyTest,
                         ::testing::Range(0, 10));

TEST(MorphologyTest, DilateDiscGrowsByRadius) {
  Bitmap m(15, 15);
  m(7, 7) = kMaskSet;
  const Bitmap d = DilateDisc(m, 3.0);
  EXPECT_TRUE(d(7, 7));
  EXPECT_TRUE(d(7, 4));   // distance 3
  EXPECT_TRUE(d(9, 9));   // distance 2.83
  EXPECT_FALSE(d(7, 3));  // distance 4
  EXPECT_FALSE(d(10, 10));
}

TEST(MorphologyTest, DilateZeroRadiusIsIdentity) {
  Bitmap m(5, 5);
  m(2, 2) = kMaskSet;
  EXPECT_EQ(DilateDisc(m, 0.0), m);
  EXPECT_EQ(DilateDisc(m, -1.0), m);
}

TEST(MorphologyTest, ErodeShrinksByRadius) {
  Bitmap m(15, 15);
  FillCircle(m, 7, 7, 5);
  const Bitmap e = ErodeDisc(m, 2.0);
  EXPECT_TRUE(e(7, 7));
  EXPECT_FALSE(e(7, 2));  // was boundary
  EXPECT_LT(CountSet(e), CountSet(m));
}

TEST(MorphologyTest, ErodeThenDilateRemovesSmallSpecks) {
  Bitmap m(20, 20);
  FillCircle(m, 6, 6, 4);
  m(15, 15) = kMaskSet;  // speck
  const Bitmap opened = OpenDisc(m, 1.5);
  EXPECT_FALSE(opened(15, 15));
  EXPECT_TRUE(opened(6, 6));
}

TEST(MorphologyTest, CloseFillsSmallHoles) {
  Bitmap m(20, 20);
  FillCircle(m, 10, 10, 6);
  m(10, 10) = kMaskClear;  // pinhole
  const Bitmap closed = CloseDisc(m, 1.5);
  EXPECT_TRUE(closed(10, 10));
}

TEST(MorphologyTest, BoundaryRingExcludesMask) {
  Bitmap m(15, 15);
  FillCircle(m, 7, 7, 3);
  const Bitmap ring = BoundaryRing(m, 2.0);
  EXPECT_EQ(CountSet(And(ring, m)), 0u);
  EXPECT_TRUE(ring(7, 2));   // 2 outside the radius-3 disc edge
  EXPECT_FALSE(ring(7, 7));
  EXPECT_FALSE(ring(0, 0));
}

TEST(MorphologyTest, DilationMonotoneInRadius) {
  Bitmap m(21, 21);
  FillRect(m, {9, 9, 3, 3});
  const Bitmap d2 = DilateDisc(m, 2.0);
  const Bitmap d5 = DilateDisc(m, 5.0);
  // d2 subset of d5.
  EXPECT_EQ(CountSet(AndNot(d2, d5)), 0u);
  EXPECT_LT(CountSet(d2), CountSet(d5));
}

TEST(MorphologyTest, EmptyMaskDilatesToEmpty) {
  Bitmap m(6, 6);
  EXPECT_EQ(CountSet(DilateDisc(m, 3.0)), 0u);
}

TEST(MorphologyTest, FullMaskStaysFullUnderErosion) {
  // Border convention: pixels outside the image count as set, so a full
  // mask has no boundary to erode from.
  Bitmap m(8, 8, kMaskSet);
  const Bitmap e = ErodeDisc(m, 1.0);
  EXPECT_EQ(CountSet(e), m.pixel_count());
}

// ---- The row stencil against the EDT and against the disc itself --------

// The radii the tests sweep: the segmenter's and compositor's small radii
// (1.05 and 3.15 are the compositor's 1.05x margin on blend radii 1 and 3),
// the fractional cases between integer rings, and the stencil cutoff.
const double kSweepRadii[] = {0.5, 1.0, 1.05, 1.4, 1.5,  2.0,
                              2.5, 3.0, 3.15, 3.5, 4.0,
                              kDiscStencilMaxRadius};

// The EDT formulation, which the disc operations run above the cutoff.
Bitmap EdtDilate(const Bitmap& m, double radius) {
  Bitmap out(m.width(), m.height());
  kernels::ThresholdLE(SquaredDistanceToSet(m).pixels(),
                       static_cast<float>(radius * radius), out.pixels());
  return out;
}
Bitmap EdtErode(const Bitmap& m, double radius) {
  return Not(EdtDilate(Not(m), radius));
}

// The disc by its defining predicate, applied pixel by pixel. Pixels
// outside the image count as clear for dilation and as set for erosion.
Bitmap BruteForceDisc(const Bitmap& m, double radius, bool erode) {
  const float r2 = static_cast<float>(radius * radius);
  const int reach = static_cast<int>(std::ceil(radius));
  std::vector<Point> disc;
  for (int dy = -reach; dy <= reach; ++dy) {
    for (int dx = -reach; dx <= reach; ++dx) {
      if (static_cast<float>(dx * dx + dy * dy) <= r2) disc.push_back({dx, dy});
    }
  }
  Bitmap out(m.width(), m.height());
  for (int y = 0; y < m.height(); ++y) {
    for (int x = 0; x < m.width(); ++x) {
      bool hit = false;
      for (const Point& o : disc) {
        const int nx = x + o.x, ny = y + o.y;
        if (!m.InBounds(nx, ny)) continue;
        hit = hit || (erode ? !m(nx, ny) : m(nx, ny) != 0);
      }
      out(x, y) = hit != erode ? kMaskSet : kMaskClear;
    }
  }
  return out;
}

enum class MaskKind { kSparse, kDense, kBlobs, kBorder };

Bitmap MakeMask(MaskKind kind, int w, int h, std::uint64_t seed) {
  std::uint64_t s = seed * 0x9E3779B97F4A7C15ull + 1;
  auto next = [&s]() {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  };
  Bitmap m(w, h);
  switch (kind) {
    case MaskKind::kSparse:
      for (auto& v : m.pixels()) v = (next() % 12) == 0;
      break;
    case MaskKind::kDense:
      for (auto& v : m.pixels()) v = (next() % 10) < 7;
      break;
    case MaskKind::kBlobs:
    case MaskKind::kBorder:
      for (int k = 0; k < 3; ++k) {
        const int cx = static_cast<int>(next() % static_cast<unsigned>(w));
        const int cy = static_cast<int>(next() % static_cast<unsigned>(h));
        FillCircle(m, cx, cy, static_cast<int>(next() % 6));
        FillRect(m, {cx, cy, static_cast<int>(next() % 7) + 1,
                     static_cast<int>(next() % 5) + 1});
      }
      if (kind == MaskKind::kBorder) {
        // Runs along all four edges, so every disc reaches past the image.
        for (int x = 0; x < w; ++x) {
          if (next() % 3 != 0) m(x, 0) = kMaskSet;
          if (next() % 3 != 0) m(x, h - 1) = kMaskSet;
        }
        for (int y = 0; y < h; ++y) {
          if (next() % 3 != 0) m(0, y) = kMaskSet;
          if (next() % 3 != 0) m(w - 1, y) = kMaskSet;
        }
      }
      break;
  }
  return m;
}

::testing::AssertionResult SameMask(const Bitmap& got, const Bitmap& want,
                                    const std::string& what) {
  if (got == want) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << what << ": " << CountSet(AndNot(got, want)) << " extra and "
         << CountSet(AndNot(want, got)) << " missing pixels";
}

struct Shape {
  int w, h;
};

// Every mask kind at every size, with the all-clear and all-set masks.
std::vector<Bitmap> SweepMasks() {
  const Shape shapes[] = {{1, 1}, {1, 17}, {17, 1}, {2, 9},
                          {13, 9}, {23, 17}, {40, 31}};
  std::vector<Bitmap> masks;
  for (const Shape& sh : shapes) {
    masks.emplace_back(sh.w, sh.h);
    masks.emplace_back(sh.w, sh.h, kMaskSet);
    for (MaskKind kind : {MaskKind::kSparse, MaskKind::kDense,
                          MaskKind::kBlobs, MaskKind::kBorder}) {
      for (std::uint64_t seed = 0; seed < 10; ++seed) {
        masks.push_back(MakeMask(kind, sh.w, sh.h, seed));
      }
    }
  }
  return masks;
}

TEST(MorphologyTest, StencilMatchesEdtAndBruteForceDisc) {
  const std::vector<Bitmap> masks = SweepMasks();
  for (std::size_t i = 0; i < masks.size(); ++i) {
    const Bitmap& m = masks[i];
    for (double r : kSweepRadii) {
      const std::string at = "mask " + std::to_string(i) + " (" +
                             std::to_string(m.width()) + "x" +
                             std::to_string(m.height()) +
                             ") r=" + std::to_string(r);
      const Bitmap dilated = DilateDisc(m, r);
      const Bitmap eroded = ErodeDisc(m, r);
      ASSERT_TRUE(SameMask(dilated, BruteForceDisc(m, r, false),
                           "dilate vs disc, " + at));
      ASSERT_TRUE(SameMask(eroded, BruteForceDisc(m, r, true),
                           "erode vs disc, " + at));
      ASSERT_TRUE(SameMask(dilated, EdtDilate(m, r), "dilate vs EDT, " + at));
      ASSERT_TRUE(SameMask(eroded, EdtErode(m, r), "erode vs EDT, " + at));
      ASSERT_TRUE(SameMask(CloseDisc(m, r), EdtErode(EdtDilate(m, r), r),
                           "close vs EDT, " + at));
    }
  }
}

// Just above the cutoff the disc operations take the EDT path; they must
// still be the same disc.
TEST(MorphologyTest, EdtPathAboveCutoffIsTheSameDisc) {
  const double r = kDiscStencilMaxRadius + 0.5;
  for (MaskKind kind : {MaskKind::kSparse, MaskKind::kBorder}) {
    const Bitmap m = MakeMask(kind, 90, 70, 3);
    EXPECT_TRUE(SameMask(DilateDisc(m, r), BruteForceDisc(m, r, false),
                         "dilate above cutoff"));
    EXPECT_TRUE(SameMask(ErodeDisc(m, r), BruteForceDisc(m, r, true),
                         "erode above cutoff"));
  }
}

}  // namespace
}  // namespace bb::imaging
