// Run-length codec for binary masks.
//
// The streaming reconstructor keeps every raw segmenter mask of its
// decomposition range between the caller pass and the decomposition pass
// (core/streaming.h), so each frame is segmented once. A 192x144 mask is
// 27 KB as a Bitmap but a few hundred runs, so the cache stores runs:
//   * scanning the mask in row-major order, runs alternate clear, set,
//     clear, ... starting with a (possibly empty) clear run;
//   * each run length is an unsigned LEB128 varint (7 bits per byte, high
//     bit = more bytes follow);
//   * the final run is omitted - the pixel count implies it.
// An all-clear mask encodes to zero bytes and an all-set mask to one. The
// encoding never exceeds one byte per pixel: a run of r >= 1 pixels takes
// at most r bytes, and the only zero-length run (a leading clear run) is
// paid for by the omitted final run.
//
// Masks are binary: any non-zero pixel encodes as set and decodes as
// kMaskSet.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "imaging/image.h"

namespace bb::imaging {

std::vector<std::uint8_t> EncodeMaskRle(const Bitmap& mask);

// Decodes `rle` into a width x height mask, reusing `out`'s storage when it
// already has that shape. False when `rle` is malformed (a truncated or
// over-long varint, or runs past the pixel count); `out` is then garbage.
[[nodiscard]] bool DecodeMaskRle(std::span<const std::uint8_t> rle, int width,
                                 int height, Bitmap* out);

}  // namespace bb::imaging
