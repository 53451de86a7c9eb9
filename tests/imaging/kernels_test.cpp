#include "imaging/kernels/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <span>
#include <vector>

#include "synth/rng.h"

namespace bb::imaging::kernels {
namespace {

// Each primitive has one implementation (DESIGN.md section 15). The
// KernelReferenceTest cases check it against a per-element statement of
// what the primitive computes, written out here independently of the loop
// bodies; the KernelBoundsTest cases check the bounded kernels' contracts:
// an abandoned result must still be exact enough for the pruning caller
// that relies on it. Both run at every span length in kLengths (odd tails
// and chunk boundaries included).

// Lengths chosen to straddle the internal chunk sizes (32 for
// SadRgbBounded, 64 for MatchHsvBounded) and exercise odd tails.
constexpr std::size_t kLengths[] = {0, 1, 3, 31, 32, 33, 63, 64, 65, 127, 200};

std::vector<Rgb8> RandomPixels(synth::Rng& rng, std::size_t n) {
  std::vector<Rgb8> px(n);
  for (auto& p : px) {
    p = {static_cast<std::uint8_t>(rng.UniformInt(0, 255)),
         static_cast<std::uint8_t>(rng.UniformInt(0, 255)),
         static_cast<std::uint8_t>(rng.UniformInt(0, 255))};
  }
  return px;
}

std::vector<std::uint8_t> RandomMask(synth::Rng& rng, std::size_t n) {
  std::vector<std::uint8_t> m(n);
  for (auto& v : m) v = rng.Chance(0.5) ? kMaskSet : kMaskClear;
  return m;
}

std::uint8_t Bit(bool set) { return set ? kMaskSet : kMaskClear; }

int MaxAbsChannelDiff(Rgb8 a, Rgb8 b) {
  return std::max({std::abs(a.r - b.r), std::abs(a.g - b.g),
                   std::abs(a.b - b.b)});
}

TEST(KernelReferenceTest, MaskCombinators) {
  synth::Rng rng(1);
  for (std::size_t n : kLengths) {
    const auto a = RandomMask(rng, n);
    auto b = RandomMask(rng, n);
    // Any non-zero byte counts as set.
    for (auto& v : b) v = v ? static_cast<std::uint8_t>(7) : v;
    std::vector<std::uint8_t> and_(n), or_(n), andnot(n), not_(n), nor(n);
    MaskAnd(a, b, and_);
    MaskOr(a, b, or_);
    MaskAndNot(a, b, andnot);
    MaskNot(a, not_);
    MaskNor(a, b, nor);
    std::uint64_t set_a = 0, inter = 0, uni = 0, region = 0, masked = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const bool sa = a[i] != 0, sb = b[i] != 0;
      EXPECT_EQ(and_[i], Bit(sa && sb)) << "MaskAnd n=" << n << " i=" << i;
      EXPECT_EQ(or_[i], Bit(sa || sb)) << "MaskOr n=" << n << " i=" << i;
      EXPECT_EQ(andnot[i], Bit(sa && !sb)) << "MaskAndNot n=" << n;
      EXPECT_EQ(not_[i], Bit(!sa)) << "MaskNot n=" << n << " i=" << i;
      EXPECT_EQ(nor[i], Bit(!sa && !sb)) << "MaskNor n=" << n << " i=" << i;
      set_a += sa;
      inter += sa && sb;
      uni += sa || sb;
      region += sb;
      masked += sb && sa;
    }
    EXPECT_EQ(CountSet(a), set_a) << "CountSet n=" << n;
    std::uint64_t got_inter = 1, got_uni = 1;
    CountAndOr(a, b, &got_inter, &got_uni);
    EXPECT_EQ(got_inter, inter) << "CountAndOr n=" << n;
    EXPECT_EQ(got_uni, uni) << "CountAndOr n=" << n;
    std::uint64_t got_total = 1, got_masked = 1;
    CountMaskedPair(b, a, &got_total, &got_masked);
    EXPECT_EQ(got_total, region) << "CountMaskedPair n=" << n;
    EXPECT_EQ(got_masked, masked) << "CountMaskedPair n=" << n;
  }
}

TEST(KernelReferenceTest, RgbSelectLerpSaturate) {
  synth::Rng rng(2);
  for (std::size_t n : kLengths) {
    const auto a = RandomPixels(rng, n);
    const auto b = RandomPixels(rng, n);
    const auto m = RandomMask(rng, n);
    std::vector<float> alpha(n);
    for (auto& t : alpha) t = static_cast<float>(rng.Uniform(-0.2, 1.2));
    std::vector<Rgb8> sel(n), lerp(n), add(n), sub(n);
    std::vector<float> fm(n);
    SelectRgb(m, a, b, sel);
    LerpRgb(a, b, alpha, lerp);
    AddSaturate(a, b, add);
    SubSaturate(a, b, sub);
    MaskToFloat(m, fm);
    const auto sat = [](int v) {
      return static_cast<std::uint8_t>(std::clamp(v, 0, 255));
    };
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(sel[i], m[i] ? a[i] : b[i]) << "SelectRgb n=" << n;
      // Out-of-range alphas clamp to the end points.
      EXPECT_EQ(lerp[i], Lerp(a[i], b[i], alpha[i])) << "LerpRgb n=" << n;
      if (alpha[i] <= 0.0f) {
        EXPECT_EQ(lerp[i], a[i]) << "LerpRgb n=" << n;
      }
      if (alpha[i] >= 1.0f) {
        EXPECT_EQ(lerp[i], b[i]) << "LerpRgb n=" << n;
      }
      const Rgb8 want_add{sat(a[i].r + b[i].r), sat(a[i].g + b[i].g),
                          sat(a[i].b + b[i].b)};
      const Rgb8 want_sub{sat(a[i].r - b[i].r), sat(a[i].g - b[i].g),
                          sat(a[i].b - b[i].b)};
      EXPECT_EQ(add[i], want_add) << "AddSaturate n=" << n << " i=" << i;
      EXPECT_EQ(sub[i], want_sub) << "SubSaturate n=" << n << " i=" << i;
      EXPECT_EQ(fm[i], m[i] ? 1.0f : 0.0f) << "MaskToFloat n=" << n;
    }
  }
}

TEST(KernelReferenceTest, ToleranceMatching) {
  synth::Rng rng(3);
  for (std::size_t n : kLengths) {
    const auto a = RandomPixels(rng, n);
    auto b = a;
    // Half the pixels drift a little, some are replaced, so the tolerance
    // predicate sees matches, near-misses, and clear misses.
    for (std::size_t i = 0; i < n; ++i) {
      if (rng.Chance(0.5)) {
        b[i].r = static_cast<std::uint8_t>(
            std::clamp(b[i].r + rng.UniformInt(-15, 15), 0, 255));
      } else if (rng.Chance(0.3)) {
        b[i] = {static_cast<std::uint8_t>(rng.UniformInt(0, 255)), 0, 200};
      }
    }
    const auto valid = RandomMask(rng, n);
    const auto cov = RandomMask(rng, n);
    for (int tol : {0, 10, 255}) {
      std::vector<std::uint8_t> masked(n), all(n);
      MatchMask(a, b, valid, tol, masked);
      MatchMask(a, b, {}, tol, all);
      // ChangedUnion only ever sets bits: seed it with a pattern to keep.
      auto accum = RandomMask(rng, n);
      const auto seeded = accum;
      ChangedUnion(a, b, tol, accum);
      std::uint64_t claimed = 0, verified = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const bool near = MaxAbsChannelDiff(a[i], b[i]) <= tol;
        EXPECT_EQ(masked[i], Bit(valid[i] && near))
            << "MatchMask n=" << n << " tol=" << tol << " i=" << i;
        EXPECT_EQ(all[i], Bit(near))
            << "MatchMask(all) n=" << n << " tol=" << tol << " i=" << i;
        EXPECT_EQ(accum[i], Bit(seeded[i] || !near))
            << "ChangedUnion n=" << n << " tol=" << tol << " i=" << i;
        claimed += cov[i] != 0;
        verified += cov[i] && near;
      }
      for (std::size_t stride : {std::size_t{1}, std::size_t{3}}) {
        std::size_t want = 0;
        for (std::size_t i = 0; i < n; i += stride) {
          want += MaxAbsChannelDiff(a[i], b[i]) <= tol;
        }
        EXPECT_EQ(MatchCountStrided(a, b, tol, stride), want)
            << "MatchCountStrided n=" << n << " stride=" << stride;
      }
      std::uint64_t got_c = 0, got_v = 0;
      CountClaimedVerified(cov, a, b, tol, &got_c, &got_v);
      EXPECT_EQ(got_c, claimed) << "CountClaimedVerified n=" << n;
      EXPECT_EQ(got_v, verified) << "CountClaimedVerified n=" << n;
    }
  }
}

TEST(KernelReferenceTest, DiffAndThreshold) {
  synth::Rng rng(4);
  for (std::size_t n : kLengths) {
    const auto a = RandomPixels(rng, n);
    const auto b = RandomPixels(rng, n);
    std::vector<float> diff(n);
    AbsDiffMax(a, b, diff);
    std::uint64_t sad = 0;
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(diff[i], static_cast<float>(MaxAbsChannelDiff(a[i], b[i])))
          << "AbsDiffMax n=" << n << " i=" << i;
      sad += std::abs(a[i].r - b[i].r) + std::abs(a[i].g - b[i].g) +
             std::abs(a[i].b - b[i].b);
    }
    EXPECT_EQ(SadRgb(a, b), sad) << "SadRgb n=" << n;

    // Every third value sits exactly on the threshold: both comparisons
    // are inclusive.
    std::vector<float> in(n);
    for (std::size_t i = 0; i < n; ++i) {
      in[i] = i % 3 == 0 ? 128.0f
                         : static_cast<float>(rng.Uniform(-10.0, 300.0));
    }
    std::vector<std::uint8_t> ge(n), le(n);
    ThresholdGE(in, 128.0f, ge);
    ThresholdLE(in, 128.0f, le);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(ge[i], Bit(!(in[i] < 128.0f))) << "ThresholdGE i=" << i;
      EXPECT_EQ(le[i], Bit(!(in[i] > 128.0f))) << "ThresholdLE i=" << i;
    }
  }
}

TEST(KernelReferenceTest, SplitMergeAndHsv) {
  synth::Rng rng(5);
  for (std::size_t n : kLengths) {
    const auto px = RandomPixels(rng, n);
    std::vector<float> r(n), g(n), b(n);
    SplitRgb(px, r, g, b);
    std::vector<Rgb8> merged(n);
    MergeRgb(r, g, b, merged);
    EXPECT_EQ(merged, px) << "MergeRgb(SplitRgb(px)) n=" << n;
    std::vector<Hsv> hsv(n);
    RgbToHsvSpan(px, hsv);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(r[i], static_cast<float>(px[i].r)) << "SplitRgb i=" << i;
      EXPECT_EQ(g[i], static_cast<float>(px[i].g)) << "SplitRgb i=" << i;
      EXPECT_EQ(b[i], static_cast<float>(px[i].b)) << "SplitRgb i=" << i;
      const Hsv want = RgbToHsv(px[i]);
      EXPECT_EQ(hsv[i].h, want.h) << "RgbToHsvSpan i=" << i;
      EXPECT_EQ(hsv[i].s, want.s) << "RgbToHsvSpan i=" << i;
      EXPECT_EQ(hsv[i].v, want.v) << "RgbToHsvSpan i=" << i;
    }
    // Out-of-range and fractional planes round and clamp per channel.
    for (std::size_t i = 0; i < n; ++i) {
      r[i] = static_cast<float>(rng.Uniform(-40.0, 300.0));
    }
    MergeRgb(r, g, b, merged);
    for (std::size_t i = 0; i < n; ++i) {
      const float want =
          std::floor(std::clamp(r[i], 0.0f, 255.0f) + 0.5f);
      EXPECT_EQ(merged[i].r, static_cast<std::uint8_t>(want))
          << "MergeRgb r=" << r[i];
      EXPECT_EQ(merged[i].g, px[i].g);
      EXPECT_EQ(merged[i].b, px[i].b);
    }
  }
}

TEST(KernelReferenceTest, HistogramsAndAccumulators) {
  synth::Rng rng(6);
  for (std::size_t n : kLengths) {
    const auto px = RandomPixels(rng, n);
    const auto m = RandomMask(rng, n);
    // Histograms add onto whatever the caller's bins already hold.
    std::vector<std::uint64_t> counts(kColorBucketCount, 3), want_counts;
    want_counts = counts;
    std::vector<std::uint64_t> bins(360, 5), want_bins = bins;
    std::uint64_t masked = 0, hue_binned = 0, sums[3] = {0, 0, 0};
    for (std::size_t i = 0; i < n; ++i) {
      if (!m[i]) continue;
      ++masked;
      ++want_counts[static_cast<std::size_t>(
          (px[i].r / 16) * 256 + (px[i].g / 16) * 16 + px[i].b / 16)];
      sums[0] += px[i].r;
      sums[1] += px[i].g;
      sums[2] += px[i].b;
      const Hsv hsv = RgbToHsv(px[i]);
      if (hsv.s >= 0.2f && hsv.v >= 0.1f) {
        const int bin = std::clamp(
            static_cast<int>(std::floor(hsv.h / 360.0f * 360.0f)), 0, 359);
        ++want_bins[static_cast<std::size_t>(bin)];
        ++hue_binned;
      }
    }
    EXPECT_EQ(ColorBucketHistogram(px, m, counts), masked) << "n=" << n;
    EXPECT_EQ(counts, want_counts) << "ColorBucketHistogram n=" << n;
    EXPECT_EQ(HueHistogramAccum(px, m, 0.2f, 0.1f, bins), hue_binned);
    EXPECT_EQ(bins, want_bins) << "HueHistogramAccum n=" << n;
    std::uint64_t got[3] = {1, 1, 1};
    EXPECT_EQ(MaskedSumRgb(px, m, &got[0], &got[1], &got[2]), masked);
    EXPECT_EQ(got[0], sums[0]) << "MaskedSumRgb n=" << n;
    EXPECT_EQ(got[1], sums[1]) << "MaskedSumRgb n=" << n;
    EXPECT_EQ(got[2], sums[2]) << "MaskedSumRgb n=" << n;

    // MaskedAccumulateRgb on pre-seeded accumulators: the doubles hold
    // integer values throughout, so results must be exactly equal.
    std::vector<int> cnt(n, 2);
    std::vector<double> acc[6];
    for (auto& plane : acc) plane.assign(n, 100.0);
    EXPECT_EQ(MaskedAccumulateRgb(px, m, cnt, acc[0], acc[1], acc[2], acc[3],
                                  acc[4], acc[5]),
              masked);
    for (std::size_t i = 0; i < n; ++i) {
      const bool leaked = m[i] != 0;
      const double ch[3] = {static_cast<double>(px[i].r),
                            static_cast<double>(px[i].g),
                            static_cast<double>(px[i].b)};
      EXPECT_EQ(cnt[i], leaked ? 3 : 2) << "MaskedAccumulateRgb i=" << i;
      for (int k = 0; k < 3; ++k) {
        EXPECT_EQ(acc[k][i], leaked ? 100.0 + ch[k] : 100.0);
        EXPECT_EQ(acc[k + 3][i], leaked ? 100.0 + ch[k] * ch[k] : 100.0);
      }
    }
  }
}

TEST(KernelBoundsTest, SadRgbBoundedIsExactUnlessItExceedsTheBound) {
  synth::Rng rng(4);
  int stopped_early = 0;
  for (std::size_t n : kLengths) {
    const auto a = RandomPixels(rng, n);
    const auto b = RandomPixels(rng, n);
    const std::uint64_t full = SadRgb(a, b);
    // Below, at and above the full sum, plus the extremes.
    const std::uint64_t bounds[] = {0,
                                    full / 2,
                                    full > 0 ? full - 1 : 0,
                                    full,
                                    full + 1,
                                    ~std::uint64_t{0}};
    for (std::uint64_t bound : bounds) {
      const std::uint64_t got = SadRgbBounded(a, b, bound);
      if (full <= bound) {
        EXPECT_EQ(got, full) << "n=" << n << " bound=" << bound;
      } else {
        EXPECT_GT(got, bound) << "n=" << n << " bound=" << bound;
        EXPECT_LE(got, full) << "n=" << n << " bound=" << bound;
        stopped_early += got < full;
      }
    }
  }
  EXPECT_GT(stopped_early, 0) << "the bound never cut a sum short";
}

// Builds a random bounded-match scenario: a gw x gh HSV grid, sample
// coordinates (some deliberately out of bounds after the shift), and a
// coverage plane.
struct HsvCase {
  std::vector<Hsv> tmpl;
  std::vector<std::int32_t> xs, ys;
  std::vector<Hsv> grid;
  std::vector<std::uint8_t> cov;
  std::int32_t gw = 24, gh = 18;

  explicit HsvCase(synth::Rng& rng, std::size_t n) {
    grid.resize(static_cast<std::size_t>(gw) * gh);
    cov.resize(grid.size());
    for (auto& g : grid) {
      g = RgbToHsv({static_cast<std::uint8_t>(rng.UniformInt(0, 255)),
                    static_cast<std::uint8_t>(rng.UniformInt(0, 255)),
                    static_cast<std::uint8_t>(rng.UniformInt(0, 255))});
    }
    for (auto& c : cov) c = rng.Chance(0.7) ? kMaskSet : kMaskClear;
    for (std::size_t i = 0; i < n; ++i) {
      const int x = rng.UniformInt(-4, gw + 3);
      const int y = rng.UniformInt(-4, gh + 3);
      xs.push_back(x);
      ys.push_back(y);
      // Bias half the samples toward matching the grid pixel underneath.
      if (rng.Chance(0.5) && x >= 0 && x < gw && y >= 0 && y < gh) {
        tmpl.push_back(grid[static_cast<std::size_t>(y) * gw + x]);
      } else {
        tmpl.push_back(
            RgbToHsv({static_cast<std::uint8_t>(rng.UniformInt(0, 255)),
                      static_cast<std::uint8_t>(rng.UniformInt(0, 255)),
                      static_cast<std::uint8_t>(rng.UniformInt(0, 255))}));
      }
    }
  }
};

// The score of the first `limit` samples at shift (dx, dy), counted one
// sample at a time with no bound.
WindowScore PlainHsvScore(const HsvCase& c, std::span<const std::uint8_t> cov,
                          std::int32_t dx, std::int32_t dy,
                          const HsvMatchParams& p, std::size_t limit) {
  WindowScore ws;
  for (std::size_t k = 0; k < limit; ++k) {
    const std::int32_t x = c.xs[k] + dx;
    const std::int32_t y = c.ys[k] + dy;
    if (x < 0 || y < 0 || x >= c.gw || y >= c.gh) continue;
    const std::size_t idx = static_cast<std::size_t>(y * c.gw + x);
    if (!cov.empty() && !cov[idx]) continue;
    ++ws.compared;
    ws.matched += HsvPixelsMatch(c.tmpl[k], c.grid[idx], p);
  }
  return ws;
}

TEST(KernelReferenceTest, MatchHsvBoundedUnboundedCountsEveryEligibleSample) {
  synth::Rng rng(7);
  const HsvMatchParams params;
  for (std::size_t n : kLengths) {
    const HsvCase c(rng, n);
    for (int dx : {-3, 0, 5}) {
      // With coverage, and empty coverage: every in-bounds pixel eligible.
      for (const bool use_cov : {true, false}) {
        const std::span<const std::uint8_t> cov =
            use_cov ? std::span<const std::uint8_t>(c.cov)
                    : std::span<const std::uint8_t>();
        const WindowScore got = MatchHsvBounded(
            c.tmpl, c.xs, c.ys, c.grid, c.gw, c.gh, cov, dx, 2, params, 0, 0,
            false, 0);
        const WindowScore want = PlainHsvScore(c, cov, dx, 2, params, n);
        EXPECT_FALSE(got.abandoned) << "n=" << n << " dx=" << dx;
        EXPECT_EQ(got.matched, want.matched) << "n=" << n << " dx=" << dx;
        EXPECT_EQ(got.compared, want.compared) << "n=" << n << " dx=" << dx;
      }
    }
  }
}

TEST(KernelBoundsTest, MatchHsvBoundedAbandonsOnlyAtChunkBoundaries) {
  // An abandoned score is the exact partial count at some 64-sample chunk
  // boundary short of the end; a completed one is the full count.
  synth::Rng rng(9);
  const HsvMatchParams params;
  struct Bound {
    std::int64_t m, cmp;
    bool tie;
    std::int32_t min_c;
  };
  int abandoned_seen = 0;
  for (std::size_t n : kLengths) {
    const HsvCase c(rng, n);
    // A tight incumbent, a tie-winning incumbent, and a min_compared floor
    // no window with out-of-bounds samples can reach.
    const Bound bounds[] = {{9, 10, false, 0},
                            {9, 10, true, 0},
                            {1, 2, false, static_cast<std::int32_t>(n)}};
    for (const auto& bd : bounds) {
      for (int dx : {-3, 0, 5}) {
        const WindowScore got = MatchHsvBounded(
            c.tmpl, c.xs, c.ys, c.grid, c.gw, c.gh, c.cov, dx, 2, params,
            bd.m, bd.cmp, bd.tie, bd.min_c);
        if (!got.abandoned) {
          const WindowScore full = PlainHsvScore(c, c.cov, dx, 2, params, n);
          EXPECT_EQ(got.matched, full.matched) << "n=" << n << " dx=" << dx;
          EXPECT_EQ(got.compared, full.compared) << "n=" << n << " dx=" << dx;
          continue;
        }
        ++abandoned_seen;
        bool at_boundary = false;
        for (std::size_t k = 64; k < n; k += 64) {
          const WindowScore part = PlainHsvScore(c, c.cov, dx, 2, params, k);
          at_boundary |= part.matched == got.matched &&
                         part.compared == got.compared;
        }
        EXPECT_TRUE(at_boundary) << "n=" << n << " dx=" << dx << " partial "
                                 << got.matched << "/" << got.compared;
      }
    }
  }
  EXPECT_GT(abandoned_seen, 0) << "bounds never triggered; test is vacuous";
}

TEST(KernelBoundsTest, MatchHsvBoundedAbandonmentIsExact) {
  // An abandoned window really could not have beaten the incumbent: replay
  // without a bound and check the completed fraction against it.
  synth::Rng rng(8);
  const HsvMatchParams params;
  int abandoned_seen = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const HsvCase c(rng, 160);
    const std::int64_t bm = rng.UniformInt(10, 150);
    const std::int64_t bc = bm + rng.UniformInt(0, 30);
    const WindowScore bounded =
        MatchHsvBounded(c.tmpl, c.xs, c.ys, c.grid, c.gw, c.gh, c.cov, 1, -2,
                        params, bm, bc, false, 0);
    const WindowScore full =
        MatchHsvBounded(c.tmpl, c.xs, c.ys, c.grid, c.gw, c.gh, c.cov, 1, -2,
                        params, 0, 0, false, 0);
    if (bounded.abandoned) {
      ++abandoned_seen;
      EXPECT_FALSE(
          FractionGreater(full.matched, full.compared, bm, bc))
          << "abandoned a window that beats the incumbent";
    } else {
      EXPECT_EQ(bounded.matched, full.matched);
      EXPECT_EQ(bounded.compared, full.compared);
    }
  }
  EXPECT_GT(abandoned_seen, 0) << "bounds never triggered; test is vacuous";
}

TEST(FractionCompareTest, CrossMultiplicationMatchesDoubles) {
  EXPECT_TRUE(FractionGreater(3, 4, 1, 2));    // 0.75 > 0.5
  EXPECT_FALSE(FractionGreater(1, 2, 3, 4));
  EXPECT_FALSE(FractionGreater(2, 4, 1, 2));   // equal
  EXPECT_TRUE(FractionEqual(2, 4, 1, 2));
  EXPECT_FALSE(FractionEqual(2, 4, 1, 3));
  // Empty scores lose to everything and equal only each other.
  EXPECT_FALSE(FractionGreater(0, 0, 0, 1));
  EXPECT_TRUE(FractionGreater(0, 1, 0, 0));
  EXPECT_TRUE(FractionEqual(0, 0, 0, 0));
  EXPECT_FALSE(FractionEqual(0, 0, 0, 5));
  // Distinguishes fractions adjacent at double precision's edge.
  EXPECT_TRUE(FractionGreater(1000001, 2000001, 1000000, 2000000));
}

}  // namespace
}  // namespace bb::imaging::kernels
