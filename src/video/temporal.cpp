#include "video/temporal.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "imaging/color.h"

namespace bb::video {

namespace {

bool Same(imaging::Rgb8 a, imaging::Rgb8 b, int tol) {
  return imaging::NearlyEqual(a, b, tol);
}

std::uint8_t MedianOf(std::vector<std::uint8_t>& v) {
  const auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
  std::nth_element(v.begin(), mid, v.end());
  return *mid;
}

}  // namespace

StaticLayer EstimateStaticLayer(const VideoStream& video, int min_run,
                                const ConsistencyOptions& opts) {
  StaticLayerAccumulator acc(opts);
  for (int i = 0; i < video.frame_count(); ++i) acc.Push(video.frame(i));
  return acc.Finalize(min_run);
}

void StaticLayerAccumulator::Push(const imaging::Image& frame) {
  if (frames_ == 0) {
    anchor_ = frame;
    color_ = frame;
    run_ = imaging::ImageT<int>(frame.width(), frame.height(), 1);
    best_ = imaging::ImageT<int>(frame.width(), frame.height(), 1);
    frames_ = 1;
    return;
  }
  imaging::RequireSameShape(frame, anchor_, "StaticLayerAccumulator::Push");
  auto pf = frame.pixels();
  auto pa = anchor_.pixels();
  auto pr = run_.pixels();
  auto pb = best_.pixels();
  auto pc = color_.pixels();
  // bblint: allow(no-per-pixel-loop) -- run-length state machine updates five planes per element
  for (std::size_t k = 0; k < pf.size(); ++k) {
    if (Same(pf[k], pa[k], opts_.channel_tolerance)) {
      ++pr[k];
    } else {
      pa[k] = pf[k];
      pr[k] = 1;
    }
    if (pr[k] > pb[k]) {
      pb[k] = pr[k];
      pc[k] = pa[k];  // representative value of the current best run
    }
  }
  ++frames_;
}

StaticLayer StaticLayerAccumulator::Finalize(int min_run) const {
  StaticLayer out;
  if (frames_ == 0) {
    out.color = imaging::Image(0, 0);
    out.valid = imaging::Bitmap(0, 0);
    return out;
  }
  out.color = color_;
  out.valid = imaging::Bitmap(color_.width(), color_.height());
  auto pb = best_.pixels();
  auto pv = out.valid.pixels();
  // bblint: allow(no-per-pixel-loop) -- finalize reads the run-length state planes produced above
  for (std::size_t k = 0; k < pb.size(); ++k) {
    pv[k] = pb[k] >= min_run ? imaging::kMaskSet : imaging::kMaskClear;
  }
  return out;
}

double MeanFrameDifference(const imaging::Image& a, const imaging::Image& b) {
  imaging::RequireSameShape(a, b, "MeanFrameDifference");
  if (a.pixel_count() == 0) return 0.0;
  double sum = 0.0;
  auto pa = a.pixels(), pb = b.pixels();
  // bblint: allow(no-per-pixel-loop) -- tolerance compare feeding the temporal state machine
  for (std::size_t i = 0; i < pa.size(); ++i) {
    sum += std::max({std::abs(pa[i].r - pb[i].r), std::abs(pa[i].g - pb[i].g),
                     std::abs(pa[i].b - pb[i].b)});
  }
  return sum / static_cast<double>(a.pixel_count());
}

double ChangedFraction(const imaging::Image& a, const imaging::Image& b,
                       int channel_tolerance) {
  imaging::RequireSameShape(a, b, "ChangedFraction");
  if (a.pixel_count() == 0) return 0.0;
  std::size_t changed = 0;
  auto pa = a.pixels(), pb = b.pixels();
  // bblint: allow(no-per-pixel-loop) -- tolerance compare feeding the temporal state machine
  for (std::size_t i = 0; i < pa.size(); ++i) {
    changed += !imaging::NearlyEqual(pa[i], pb[i], channel_tolerance);
  }
  return static_cast<double>(changed) / static_cast<double>(a.pixel_count());
}

std::optional<int> DetectLoopPeriod(const VideoStream& video,
                                    const LoopDetectOptions& opts) {
  VideoStreamSource source(video);
  return DetectLoopPeriodStreaming(source, opts);
}

std::optional<int> DetectLoopPeriodStreaming(FrameSource& source,
                                             const LoopDetectOptions& opts) {
  const StreamInfo si = source.info();
  const int n = si.frame_count;
  if (n < 2 * opts.min_period) return std::nullopt;
  const int max_period = std::min(opts.max_period, n / 2);
  if (max_period < opts.min_period) return std::nullopt;

  // One accumulator per candidate period; when frame j arrives, every pair
  // (j - period, j) whose left index is a multiple of that period's stride
  // is scored against the ring. Per-period pairs are visited in the same
  // ascending order as the batch scan, so the sums are bit-identical.
  const int candidates = max_period - opts.min_period + 1;
  std::vector<double> sum(static_cast<std::size_t>(candidates), 0.0);
  std::vector<int> pairs(static_cast<std::size_t>(candidates), 0);
  std::vector<int> stride(static_cast<std::size_t>(candidates), 1);
  for (int period = opts.min_period; period <= max_period; ++period) {
    stride[static_cast<std::size_t>(period - opts.min_period)] =
        std::max(1, (n - period) / 8);
  }

  source.Reset();
  FrameWindow ring(max_period + 1);
  BufferPool pool;
  std::vector<std::uint8_t> valid(static_cast<std::size_t>(n), 0);
  imaging::Image buf = pool.AcquireImage(si.width, si.height);
  int j = 0;
  while (j < n) {
    const FramePull pull = source.Pull(buf);
    if (pull.status == PullStatus::kEnd) break;
    const bool ok = pull.status == PullStatus::kFrame;
    valid[static_cast<std::size_t>(j)] = ok ? 1 : 0;
    // Push even a bad frame's placeholder so ring slot j stays aligned with
    // stream index j; pairs touching an invalid slot are skipped, so its
    // (stale) pixels are never read.
    pool.Release(ring.Push(std::move(buf)));
    if (ok) {
      for (int period = opts.min_period; period <= max_period && period <= j;
           ++period) {
        const std::size_t c =
            static_cast<std::size_t>(period - opts.min_period);
        const int i = j - period;
        if (i % stride[c] != 0) continue;
        if (valid[static_cast<std::size_t>(i)] == 0) continue;
        sum[c] +=
            ChangedFraction(ring.at(i), ring.at(j), opts.channel_tolerance);
        ++pairs[c];
      }
    }
    ++j;
    buf = pool.AcquireImage(si.width, si.height);
  }

  double best_score = opts.max_changed_fraction;
  std::optional<int> best_period;
  for (int period = opts.min_period; period <= max_period; ++period) {
    const std::size_t c = static_cast<std::size_t>(period - opts.min_period);
    if (pairs[c] == 0) continue;
    const double score = sum[c] / pairs[c];
    // Strictly-better keeps the smallest of equally good periods; require a
    // small margin so noise cannot promote a multiple over the base period.
    if (score < best_score - 1e-6) {
      best_score = score;
      best_period = period;
    }
  }
  return best_period;
}

LoopEstimate EstimateLoopFrames(const VideoStream& video, int period,
                                const ConsistencyOptions& opts) {
  LoopEstimate out;
  if (period <= 0 || video.frame_count() == 0) return out;
  const int w = video.width(), h = video.height();
  out.phase_frames.reserve(static_cast<std::size_t>(period));
  out.phase_valid.reserve(static_cast<std::size_t>(period));

  std::vector<std::uint8_t> ch_r, ch_g, ch_b;
  for (int phase = 0; phase < period; ++phase) {
    imaging::Image est(w, h);
    imaging::Bitmap valid(w, h);
    std::vector<const imaging::Image*> occ;
    for (int i = phase; i < video.frame_count(); i += period) {
      occ.push_back(&video.frame(i));
    }
    if (occ.empty()) {
      out.phase_frames.push_back(std::move(est));
      out.phase_valid.push_back(std::move(valid));
      continue;
    }
    for (int y = 0; y < h; ++y) {
      for (int x = 0; x < w; ++x) {
        ch_r.clear();
        ch_g.clear();
        ch_b.clear();
        for (const imaging::Image* f : occ) {
          const imaging::Rgb8 p = (*f)(x, y);
          ch_r.push_back(p.r);
          ch_g.push_back(p.g);
          ch_b.push_back(p.b);
        }
        const imaging::Rgb8 med{MedianOf(ch_r), MedianOf(ch_g),
                                MedianOf(ch_b)};
        est(x, y) = med;
        // Valid when a majority of occurrences agree with the median.
        int agree = 0;
        for (const imaging::Image* f : occ) {
          if (Same((*f)(x, y), med, opts.channel_tolerance)) ++agree;
        }
        valid(x, y) = (2 * agree > static_cast<int>(occ.size()))
                          ? imaging::kMaskSet
                          : imaging::kMaskClear;
      }
    }
    out.phase_frames.push_back(std::move(est));
    out.phase_valid.push_back(std::move(valid));
  }
  return out;
}

LoopEstimate EstimateLoopFramesStreaming(FrameSource& source, int period,
                                         int window_frames,
                                         const ConsistencyOptions& opts) {
  LoopEstimate out;
  const StreamInfo si = source.info();
  const int n = si.frame_count;
  if (period <= 0 || n == 0) return out;
  const int w = si.width, h = si.height;
  for (int phase = 0; phase < period; ++phase) {
    out.phase_frames.emplace_back(w, h);
    out.phase_valid.emplace_back(w, h);
  }
  if (w == 0 || h == 0) return out;

  // Rows per pass sized so the n per-frame strips together hold about
  // window_frames full frames of pixel data.
  const std::int64_t budget_rows =
      static_cast<std::int64_t>(std::max(1, window_frames)) * h /
      static_cast<std::int64_t>(n);
  const int band_h =
      static_cast<int>(std::clamp<std::int64_t>(budget_rows, 1, h));

  std::vector<imaging::Image> strips(static_cast<std::size_t>(n));
  // Phase membership is keyed by the stream index, so an unreadable frame
  // must keep its slot: it advances the cursor but its strip is marked
  // absent and drops out of the medians below.
  std::vector<std::uint8_t> have(static_cast<std::size_t>(n), 0);
  imaging::Image frame;
  std::vector<std::uint8_t> ch_r, ch_g, ch_b;
  for (int y0 = 0; y0 < h; y0 += band_h) {
    const int y1 = std::min(h, y0 + band_h);
    source.Reset();
    int got = 0;
    while (got < n) {
      const FramePull pull = source.Pull(frame);
      if (pull.status == PullStatus::kEnd) break;
      if (pull.status == PullStatus::kBad) {
        have[static_cast<std::size_t>(got)] = 0;
        ++got;
        continue;
      }
      have[static_cast<std::size_t>(got)] = 1;
      imaging::Image& strip = strips[static_cast<std::size_t>(got)];
      if (strip.width() != w || strip.height() != y1 - y0) {
        strip = imaging::Image(w, y1 - y0);
      }
      for (int dy = 0; dy < y1 - y0; ++dy) {
        const auto src = frame.row(y0 + dy);
        const auto dst = strip.row(dy);
        std::copy(src.begin(), src.end(), dst.begin());
      }
      ++got;
    }
    for (int phase = 0; phase < period && phase < got; ++phase) {
      imaging::Image& est = out.phase_frames[static_cast<std::size_t>(phase)];
      imaging::Bitmap& valid = out.phase_valid[static_cast<std::size_t>(phase)];
      int occurrences = 0;
      for (int i = phase; i < got; i += period) {
        if (have[static_cast<std::size_t>(i)] != 0) ++occurrences;
      }
      if (occurrences == 0) continue;
      for (int dy = 0; dy < y1 - y0; ++dy) {
        for (int x = 0; x < w; ++x) {
          ch_r.clear();
          ch_g.clear();
          ch_b.clear();
          for (int i = phase; i < got; i += period) {
            if (have[static_cast<std::size_t>(i)] == 0) continue;
            const imaging::Rgb8 p = strips[static_cast<std::size_t>(i)](x, dy);
            ch_r.push_back(p.r);
            ch_g.push_back(p.g);
            ch_b.push_back(p.b);
          }
          const imaging::Rgb8 med{MedianOf(ch_r), MedianOf(ch_g),
                                  MedianOf(ch_b)};
          est(x, y0 + dy) = med;
          // Valid when a majority of occurrences agree with the median.
          int agree = 0;
          for (int i = phase; i < got; i += period) {
            if (have[static_cast<std::size_t>(i)] == 0) continue;
            if (Same(strips[static_cast<std::size_t>(i)](x, dy), med,
                     opts.channel_tolerance)) {
              ++agree;
            }
          }
          valid(x, y0 + dy) = (2 * agree > occurrences) ? imaging::kMaskSet
                                                        : imaging::kMaskClear;
        }
      }
    }
  }
  return out;
}

}  // namespace bb::video
