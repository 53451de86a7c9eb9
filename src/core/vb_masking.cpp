#include "core/vb_masking.h"

#include <algorithm>
#include <stdexcept>

#include "common/trace.h"
#include "imaging/color.h"
#include "imaging/kernels/kernels.h"
#include "video/temporal.h"

namespace bb::core {

using imaging::Bitmap;
using imaging::Image;

double MatchFraction(const Image& frame, const Image& candidate,
                     int tolerance, int pixel_stride) {
  imaging::RequireSameShape(frame, candidate, "MatchFraction");
  if (pixel_stride < 1) pixel_stride = 1;
  const std::size_t w = static_cast<std::size_t>(frame.width());
  const std::size_t stride = static_cast<std::size_t>(pixel_stride);
  long long matched = 0, total = 0;
  for (int y = 0; y < frame.height(); y += pixel_stride) {
    const std::size_t row = static_cast<std::size_t>(y) * w;
    matched += static_cast<long long>(imaging::kernels::MatchCountStrided(
        frame.pixels().subspan(row, w), candidate.pixels().subspan(row, w),
        tolerance, stride));
    total += static_cast<long long>((w + stride - 1) / stride);
  }
  return total > 0 ? static_cast<double>(matched) / static_cast<double>(total)
                   : 0.0;
}

DictionaryMatch IdentifyKnownImage(const video::VideoStream& call,
                                   std::span<const Image> dictionary,
                                   const VbMaskingOptions& opts) {
  DictionaryMatch best;
  for (int d = 0; d < static_cast<int>(dictionary.size()); ++d) {
    double sum = 0.0;
    int n = 0;
    for (int i = 0; i < call.frame_count();
         i += std::max(1, opts.score_frame_stride)) {
      sum += MatchFraction(call.frame(i), dictionary[static_cast<std::size_t>(d)],
                           opts.match_tolerance, opts.score_pixel_stride);
      ++n;
    }
    const double score = n > 0 ? sum / n : 0.0;
    if (score > best.score) {
      best.score = score;
      best.index = d;
    }
  }
  return best;
}

DictionaryMatch IdentifyKnownVideo(
    const video::VideoStream& call,
    std::span<const std::vector<Image>> dictionary,
    const VbMaskingOptions& opts) {
  DictionaryMatch best;
  for (int d = 0; d < static_cast<int>(dictionary.size()); ++d) {
    const auto& vid = dictionary[static_cast<std::size_t>(d)];
    if (vid.empty()) continue;
    double sum = 0.0;
    int n = 0;
    for (int i = 0; i < call.frame_count();
         i += std::max(1, opts.score_frame_stride)) {
      // Best phase for this frame (the paper's estimator maximizes over all
      // frames of all dictionary videos).
      double frame_best = 0.0;
      for (const Image& cand : vid) {
        frame_best = std::max(
            frame_best, MatchFraction(call.frame(i), cand,
                                      opts.match_tolerance,
                                      opts.score_pixel_stride));
      }
      sum += frame_best;
      ++n;
    }
    const double score = n > 0 ? sum / n : 0.0;
    if (score > best.score) {
      best.score = score;
      best.index = d;
    }
  }
  return best;
}

VbReference VbReference::KnownImage(Image image) {
  VbReference ref;
  ref.valid_.emplace_back(image.width(), image.height(), imaging::kMaskSet);
  ref.frames_.push_back(std::move(image));
  return ref;
}

VbReference VbReference::KnownVideo(std::vector<Image> frames) {
  if (frames.empty()) {
    throw std::invalid_argument("VbReference::KnownVideo: no frames");
  }
  VbReference ref;
  for (const Image& f : frames) {
    ref.valid_.emplace_back(f.width(), f.height(), imaging::kMaskSet);
  }
  ref.frames_ = std::move(frames);
  return ref;
}

VbReference VbReference::DeriveImage(const video::VideoStream& call,
                                     int min_stable_run,
                                     int channel_tolerance) {
  video::VideoStreamSource source(call);
  return DeriveImageStreaming(source, min_stable_run, channel_tolerance);
}

std::optional<VbReference> VbReference::DeriveVideo(
    const video::VideoStream& call, int min_stable_run,
    int channel_tolerance) {
  const auto period = video::DetectLoopPeriod(call);
  if (!period) return std::nullopt;
  auto est = video::EstimateLoopFrames(call, *period, {channel_tolerance});
  if (est.phase_frames.empty()) return std::nullopt;
  // Require each phase to have been observed enough times to be meaningful.
  if (call.frame_count() / *period < std::max(2, min_stable_run / *period)) {
    return std::nullopt;
  }
  VbReference ref;
  ref.derived_ = true;
  ref.frames_ = std::move(est.phase_frames);
  ref.valid_ = std::move(est.phase_valid);
  return ref;
}

VbReference VbReference::DeriveImageStreaming(video::FrameSource& source,
                                              int min_stable_run,
                                              int channel_tolerance) {
  const trace::ScopedTimer timer("vb.derive");
  source.Reset();
  video::StaticLayerAccumulator acc(
      video::ConsistencyOptions{channel_tolerance});
  imaging::Image frame;
  for (;;) {
    const video::FramePull pull = source.Pull(frame);
    if (pull.status == video::PullStatus::kEnd) break;
    // Degrade: an unreadable frame just shortens the stability runs it
    // would have joined; the static layer comes from the survivors.
    if (pull.status == video::PullStatus::kBad) continue;
    acc.Push(frame);
  }
  const auto layer = acc.Finalize(min_stable_run);
  VbReference ref;
  ref.derived_ = true;
  ref.frames_.push_back(layer.color);
  ref.valid_.push_back(layer.valid);
  return ref;
}

std::optional<VbReference> VbReference::DeriveVideoStreaming(
    video::FrameSource& source, int window_frames, int min_stable_run,
    int channel_tolerance) {
  const auto period = video::DetectLoopPeriodStreaming(source);
  if (!period) return std::nullopt;
  auto est = video::EstimateLoopFramesStreaming(source, *period,
                                                window_frames,
                                                {channel_tolerance});
  if (est.phase_frames.empty()) return std::nullopt;
  // Require each phase to have been observed enough times to be meaningful.
  const int frame_count = source.info().frame_count;
  if (frame_count / *period < std::max(2, min_stable_run / *period)) {
    return std::nullopt;
  }
  VbReference ref;
  ref.derived_ = true;
  ref.frames_ = std::move(est.phase_frames);
  ref.valid_ = std::move(est.phase_valid);
  return ref;
}

void VbReference::AugmentWith(const VbReference& other) {
  if (other.frames_.size() != frames_.size()) {
    throw std::invalid_argument("VbReference::AugmentWith: period mismatch");
  }
  for (std::size_t p = 0; p < frames_.size(); ++p) {
    imaging::RequireSameShape(frames_[p], other.frames_[p], "AugmentWith");
    for (int y = 0; y < frames_[p].height(); ++y) {
      for (int x = 0; x < frames_[p].width(); ++x) {
        if (!valid_[p](x, y) && other.valid_[p](x, y)) {
          frames_[p](x, y) = other.frames_[p](x, y);
          valid_[p](x, y) = imaging::kMaskSet;
        }
      }
    }
  }
}

int VbReference::BestPhase(const Image& frame,
                           const VbMaskingOptions& opts) const {
  int best = 0;
  double best_score = -1.0;
  for (int p = 0; p < static_cast<int>(frames_.size()); ++p) {
    const double s =
        MatchFraction(frame, frames_[static_cast<std::size_t>(p)],
                      opts.match_tolerance,
                      std::max(2, opts.score_pixel_stride));
    if (s > best_score) {
      best_score = s;
      best = p;
    }
  }
  return best;
}

const Image& VbReference::ImageFor(const Image& frame, int frame_index,
                                   const VbMaskingOptions& opts) const {
  if (frames_.size() == 1) return frames_.front();
  (void)frame_index;
  return frames_[static_cast<std::size_t>(BestPhase(frame, opts))];
}

const Bitmap& VbReference::ValidFor(const Image& frame, int frame_index,
                                    const VbMaskingOptions& opts) const {
  if (frames_.size() == 1) return valid_.front();
  (void)frame_index;
  return valid_[static_cast<std::size_t>(BestPhase(frame, opts))];
}

double VbReference::ValidFraction() const {
  if (valid_.empty()) return 0.0;
  double sum = 0.0;
  for (const Bitmap& v : valid_) sum += imaging::SetFraction(v);
  return sum / static_cast<double>(valid_.size());
}

Bitmap ComputeVbm(const Image& frame, const Image& reference,
                  const Bitmap& reference_valid, int tolerance) {
  Bitmap vbm;
  ComputeVbmInto(frame, reference, reference_valid, tolerance, &vbm);
  return vbm;
}

void ComputeVbmInto(const Image& frame, const Image& reference,
                    const Bitmap& reference_valid, int tolerance,
                    Bitmap* out) {
  imaging::RequireSameShape(frame, reference, "ComputeVbm");
  imaging::RequireSameShape(frame, reference_valid, "ComputeVbm");
  if (out->width() != frame.width() || out->height() != frame.height()) {
    *out = Bitmap(frame.width(), frame.height());
  }
  imaging::kernels::MatchMask(frame.pixels(), reference.pixels(),
                              reference_valid.pixels(), tolerance,
                              out->pixels());
}

}  // namespace bb::core
