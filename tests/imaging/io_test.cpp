#include "imaging/io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

namespace bb::imaging {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

Image TestPattern(int w, int h) {
  Image img(w, h);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      img(x, y) = {static_cast<std::uint8_t>(x * 7),
                   static_cast<std::uint8_t>(y * 11),
                   static_cast<std::uint8_t>((x + y) * 3)};
    }
  }
  return img;
}

TEST(IoTest, PpmRoundTrip) {
  const Image img = TestPattern(17, 9);
  const std::string path = TempPath("bb_io_test.ppm");
  ASSERT_TRUE(WritePpm(img, path));
  const auto back = ReadPpm(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, img);
  std::remove(path.c_str());
}

TEST(IoTest, ReadPpmRejectsMissingFile) {
  EXPECT_FALSE(ReadPpm(TempPath("bb_does_not_exist.ppm")).has_value());
}

TEST(IoTest, ReadPpmRejectsWrongMagic) {
  const std::string path = TempPath("bb_bad_magic.ppm");
  {
    std::ofstream out(path, std::ios::binary);
    out << "P5\n2 2\n255\nxxxxxxxxxxxx";
  }
  EXPECT_FALSE(ReadPpm(path).has_value());
  std::remove(path.c_str());
}

TEST(IoTest, ReadPpmRejectsTruncatedData) {
  const std::string path = TempPath("bb_truncated.ppm");
  {
    std::ofstream out(path, std::ios::binary);
    out << "P6\n4 4\n255\nab";  // far fewer than 48 bytes
  }
  std::string error;
  EXPECT_FALSE(ReadPpm(path, &error).has_value());
  EXPECT_EQ(error, "ppm: truncated pixel data");
  std::remove(path.c_str());
}

// Writes `header` (no pixel data beyond it) and returns ReadPpm's error.
std::string PpmHeaderError(const std::string& name,
                           const std::string& header) {
  const std::string path = TempPath(name);
  {
    std::ofstream out(path, std::ios::binary);
    out << header;
  }
  std::string error;
  EXPECT_FALSE(ReadPpm(path, &error).has_value()) << header;
  std::remove(path.c_str());
  return error;
}

TEST(IoTest, ReadPpmRejectsDimensionsThatWouldOverflowInt) {
  // 4e9 fits in the header's long parse but not in the int the Image
  // constructor takes; must be rejected before the narrowing, by name.
  EXPECT_EQ(PpmHeaderError("bb_hostile_w.ppm", "P6\n4000000000 1\n255\n"),
            "ppm: dimension exceeds kMaxImageDimension");
  EXPECT_EQ(PpmHeaderError("bb_hostile_h.ppm", "P6\n1 4000000000\n255\n"),
            "ppm: dimension exceeds kMaxImageDimension");
}

TEST(IoTest, ReadPpmRejectsExcessivePixelCount) {
  // Each side is under kMaxImageDimension but the product is above
  // kMaxImagePixels: a 201 MB allocation from a 20-byte file.
  EXPECT_EQ(PpmHeaderError("bb_hostile_area.ppm", "P6\n8193 8193\n255\n"),
            "ppm: pixel count exceeds kMaxImagePixels");
}

TEST(IoTest, ReadPpmRejectsNonPositiveDimensions) {
  EXPECT_EQ(PpmHeaderError("bb_hostile_neg.ppm", "P6\n-5 10\n255\n"),
            "ppm: non-positive dimensions");
  EXPECT_EQ(PpmHeaderError("bb_hostile_zero.ppm", "P6\n0 10\n255\n"),
            "ppm: non-positive dimensions");
}

TEST(IoTest, ReadPpmRejectsUnparseableHeader) {
  EXPECT_EQ(PpmHeaderError("bb_hostile_text.ppm", "P6\nwide tall\n255\n"),
            "ppm: malformed header");
  // A value too large even for the long parse sets failbit.
  EXPECT_EQ(PpmHeaderError("bb_hostile_huge.ppm",
                           "P6\n99999999999999999999999999 1\n255\n"),
            "ppm: malformed header");
}

TEST(IoTest, ReadPpmAcceptsLargestAllowedDimensions) {
  // 1 x kMaxImageDimension is within every limit; the reader must not
  // reject at the boundary.
  const std::string path = TempPath("bb_max_dim.ppm");
  {
    std::ofstream out(path, std::ios::binary);
    out << "P6\n" << kMaxImageDimension << " 1\n255\n";
    for (long long i = 0; i < kMaxImageDimension * 3; ++i) out.put('\0');
  }
  std::string error;
  const auto img = ReadPpm(path, &error);
  ASSERT_TRUE(img.has_value()) << error;
  EXPECT_EQ(img->width(), static_cast<int>(kMaxImageDimension));
  EXPECT_EQ(img->height(), 1);
  std::remove(path.c_str());
}

TEST(IoTest, CheckImageDimsNamesEachLimit) {
  EXPECT_EQ(CheckImageDims(64, 64), nullptr);
  EXPECT_EQ(CheckImageDims(kMaxImageDimension, 1), nullptr);
  EXPECT_STREQ(CheckImageDims(0, 4), "non-positive dimensions");
  EXPECT_STREQ(CheckImageDims(4, -1), "non-positive dimensions");
  EXPECT_STREQ(CheckImageDims(kMaxImageDimension + 1, 1),
               "dimension exceeds kMaxImageDimension");
  EXPECT_STREQ(CheckImageDims(8193, 8193),
               "pixel count exceeds kMaxImagePixels");
}

TEST(IoTest, ReadPpmHandlesComments) {
  const std::string path = TempPath("bb_comments.ppm");
  {
    std::ofstream out(path, std::ios::binary);
    out << "P6\n# a comment\n1 1\n255\n";
    out.put(static_cast<char>(10));
    out.put(static_cast<char>(20));
    out.put(static_cast<char>(30));
  }
  const auto img = ReadPpm(path);
  ASSERT_TRUE(img.has_value());
  EXPECT_EQ((*img)(0, 0), (Rgb8{10, 20, 30}));
  std::remove(path.c_str());
}

TEST(IoTest, PngWriteWhenSupported) {
  const Image img = TestPattern(8, 8);
  const std::string path = TempPath("bb_io_test.png");
  if (PngSupported()) {
    EXPECT_TRUE(WritePng(img, path));
    EXPECT_GT(std::filesystem::file_size(path), 8u);
    std::remove(path.c_str());
  } else {
    EXPECT_FALSE(WritePng(img, path));
  }
}

TEST(IoTest, PngRoundTripWhenSupported) {
  if (!PngSupported()) GTEST_SKIP() << "built without libpng";
  const Image img = TestPattern(19, 11);
  const std::string path = TempPath("bb_png_roundtrip.png");
  ASSERT_TRUE(WritePng(img, path));
  const auto back = ReadPng(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, img);
  std::remove(path.c_str());
}

TEST(IoTest, ReadPngRejectsGarbage) {
  if (!PngSupported()) GTEST_SKIP() << "built without libpng";
  const std::string path = TempPath("bb_not_png.png");
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not a png file at all";
  }
  EXPECT_FALSE(ReadPng(path).has_value());
  std::remove(path.c_str());
}

TEST(IoTest, ReadPngRejectsMissingFile) {
  EXPECT_FALSE(ReadPng(TempPath("bb_missing.png")).has_value());
}

TEST(IoTest, ReadImageAutoPicksFormatByExtension) {
  const Image img = TestPattern(7, 5);
  const std::string ppm = TempPath("bb_auto_read.ppm");
  ASSERT_TRUE(WritePpm(img, ppm));
  auto via_auto = ReadImageAuto(ppm);
  ASSERT_TRUE(via_auto.has_value());
  EXPECT_EQ(*via_auto, img);
  std::remove(ppm.c_str());
  if (PngSupported()) {
    const std::string png = TempPath("bb_auto_read.png");
    ASSERT_TRUE(WritePng(img, png));
    auto png_auto = ReadImageAuto(png);
    ASSERT_TRUE(png_auto.has_value());
    EXPECT_EQ(*png_auto, img);
    std::remove(png.c_str());
  }
}

TEST(IoTest, WriteImageAutoPicksAFormat) {
  const Image img = TestPattern(6, 6);
  const auto path = WriteImageAuto(img, TempPath("bb_auto"));
  ASSERT_TRUE(path.has_value());
  EXPECT_TRUE(std::filesystem::exists(*path));
  std::remove(path->c_str());
}

TEST(IoTest, MaskToImageMapsSetToWhite) {
  Bitmap m(2, 1);
  m(1, 0) = kMaskSet;
  const Image img = MaskToImage(m);
  EXPECT_EQ(img(0, 0), (Rgb8{0, 0, 0}));
  EXPECT_EQ(img(1, 0), (Rgb8{255, 255, 255}));
}

}  // namespace
}  // namespace bb::imaging
