#include "imaging/mask_rle.h"

#include <algorithm>

namespace bb::imaging {

namespace {

void PutVarint(std::uint64_t v, std::vector<std::uint8_t>* out) {
  while (v >= 0x80) {
    out->push_back(static_cast<std::uint8_t>(v | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<std::uint8_t>(v));
}

// Reads one varint at rle[*pos]; false when truncated or wider than 63
// bits.
bool GetVarint(std::span<const std::uint8_t> rle, std::size_t* pos,
               std::uint64_t* v) {
  *v = 0;
  for (int shift = 0; shift < 63; shift += 7) {
    if (*pos >= rle.size()) return false;
    const std::uint8_t byte = rle[(*pos)++];
    *v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return true;
  }
  return false;
}

}  // namespace

std::vector<std::uint8_t> EncodeMaskRle(const Bitmap& mask) {
  std::vector<std::uint8_t> out;
  const auto px = mask.pixels();
  const auto end = px.end();
  auto run = px.begin();
  bool set = false;
  for (;;) {
    const auto run_end =
        set ? std::find(run, end, kMaskClear)
            : std::find_if(run, end,
                           [](std::uint8_t v) { return v != kMaskClear; });
    if (run_end == end) break;  // the final run is implied
    PutVarint(static_cast<std::uint64_t>(run_end - run), &out);
    run = run_end;
    set = !set;
  }
  return out;
}

bool DecodeMaskRle(std::span<const std::uint8_t> rle, int width, int height,
                   Bitmap* out) {
  if (out->width() != width || out->height() != height) {
    *out = Bitmap(width, height);
  }
  const auto px = out->pixels();
  std::size_t filled = 0;
  std::size_t pos = 0;
  bool set = false;
  while (pos < rle.size()) {
    std::uint64_t run = 0;
    if (!GetVarint(rle, &pos, &run) || run > px.size() - filled) {
      return false;
    }
    std::fill_n(px.begin() + static_cast<std::ptrdiff_t>(filled), run,
                set ? kMaskSet : kMaskClear);
    filled += static_cast<std::size_t>(run);
    set = !set;
  }
  std::fill(px.begin() + static_cast<std::ptrdiff_t>(filled), px.end(),
            set ? kMaskSet : kMaskClear);
  return true;
}

}  // namespace bb::imaging
