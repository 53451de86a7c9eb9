#include "imaging/mask_rle.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "imaging/draw.h"

namespace bb::imaging {
namespace {

// Encodes, checks the one-byte-per-pixel bound, decodes into a fresh mask
// and into a reused one of another shape, and returns the encoding.
std::vector<std::uint8_t> RoundTrip(const Bitmap& mask) {
  const std::vector<std::uint8_t> rle = EncodeMaskRle(mask);
  EXPECT_LE(rle.size(), mask.pixel_count());
  Bitmap fresh;
  EXPECT_TRUE(DecodeMaskRle(rle, mask.width(), mask.height(), &fresh));
  EXPECT_EQ(fresh, mask);
  Bitmap reused(3, 5, kMaskSet);
  EXPECT_TRUE(DecodeMaskRle(rle, mask.width(), mask.height(), &reused));
  EXPECT_EQ(reused, mask);
  return rle;
}

TEST(MaskRleTest, EmptyMaskEncodesToNothing) {
  EXPECT_TRUE(RoundTrip(Bitmap(192, 144)).empty());
  EXPECT_TRUE(RoundTrip(Bitmap()).empty());
}

TEST(MaskRleTest, FullMaskIsOneByte) {
  EXPECT_EQ(RoundTrip(Bitmap(192, 144, kMaskSet)).size(), 1u);
}

TEST(MaskRleTest, SinglePixelAnywhere) {
  for (const int at : {0, 1, 96 * 144 + 7, 192 * 144 - 1}) {
    Bitmap mask(192, 144);
    mask.pixels()[static_cast<std::size_t>(at)] = kMaskSet;
    RoundTrip(mask);
  }
  Bitmap one(1, 1, kMaskSet);
  EXPECT_EQ(RoundTrip(one).size(), 1u);
}

TEST(MaskRleTest, AlternatingPixelsStayWithinOneBytePerPixel) {
  for (const std::uint8_t first : {kMaskClear, kMaskSet}) {
    Bitmap mask(191, 143);
    std::uint8_t v = first;
    for (std::uint8_t& p : mask.pixels()) {
      p = v;
      v = v == kMaskSet ? kMaskClear : kMaskSet;
    }
    EXPECT_LE(RoundTrip(mask).size(), mask.pixel_count());
  }
}

TEST(MaskRleTest, RunsAcrossVarintBoundaries) {
  // A clear run of `len` pixels, then everything set: the encoding is the
  // varint of len alone.
  const struct {
    int len;
    std::size_t bytes;
  } cases[] = {{1, 1},     {126, 1},   {127, 1},   {128, 2},  {129, 2},
               {16383, 2}, {16384, 3}, {16385, 3}, {20000, 3}};
  for (const auto& c : cases) {
    Bitmap mask(20001, 1, kMaskSet);
    std::fill_n(mask.pixels().begin(), c.len, kMaskClear);
    EXPECT_EQ(RoundTrip(mask).size(), c.bytes) << c.len;
  }
  // Set runs of the same lengths between clear pixels.
  Bitmap mixed(200, 200);
  int at = 1;
  for (const int len : {1, 127, 128, 16383, 16384}) {
    std::fill_n(mixed.pixels().begin() + at, len, kMaskSet);
    at += len + 1;
  }
  RoundTrip(mixed);
}

TEST(MaskRleTest, HugeAllSetFrame) {
  const Bitmap mask(4096, 4096, kMaskSet);
  EXPECT_EQ(RoundTrip(mask).size(), 1u);
}

TEST(MaskRleTest, SilhouetteIsCompact) {
  Bitmap mask(192, 144);
  FillRect(mask, {60, 30, 70, 114});
  FillRect(mask, {20, 80, 150, 20});
  EXPECT_LT(RoundTrip(mask).size(), 1024u);
}

TEST(MaskRleTest, NonZeroPixelsDecodeAsSet) {
  Bitmap mask(4, 1);
  mask(1, 0) = 7;
  Bitmap out;
  ASSERT_TRUE(DecodeMaskRle(EncodeMaskRle(mask), 4, 1, &out));
  EXPECT_EQ(out(1, 0), kMaskSet);
  EXPECT_EQ(out(0, 0), kMaskClear);
}

TEST(MaskRleTest, MalformedInputIsRejected) {
  Bitmap out;
  const std::vector<std::uint8_t> truncated = {0x80};
  EXPECT_FALSE(DecodeMaskRle(truncated, 8, 8, &out));
  const std::vector<std::uint8_t> too_long = {65};
  EXPECT_FALSE(DecodeMaskRle(too_long, 8, 8, &out));
  const std::vector<std::uint8_t> overflow(12, 0xFF);
  EXPECT_FALSE(DecodeMaskRle(overflow, 8, 8, &out));
}

}  // namespace
}  // namespace bb::imaging
