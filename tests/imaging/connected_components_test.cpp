#include "imaging/connected_components.h"

#include <gtest/gtest.h>

#include "imaging/draw.h"

namespace bb::imaging {
namespace {

TEST(ConnectedComponentsTest, EmptyMaskHasNoComponents) {
  const Labeling l = LabelComponents(Bitmap(5, 5));
  EXPECT_TRUE(l.components.empty());
}

TEST(ConnectedComponentsTest, SinglePixel) {
  Bitmap m(5, 5);
  m(2, 3) = kMaskSet;
  const Labeling l = LabelComponents(m);
  ASSERT_EQ(l.components.size(), 1u);
  EXPECT_EQ(l.components[0].area, 1u);
  EXPECT_EQ(l.components[0].bbox, (Rect{2, 3, 1, 1}));
  EXPECT_DOUBLE_EQ(l.components[0].centroid.x, 2.0);
  EXPECT_DOUBLE_EQ(l.components[0].centroid.y, 3.0);
}

TEST(ConnectedComponentsTest, DiagonalPixelsAreSeparate) {
  Bitmap m(4, 4);
  m(0, 0) = kMaskSet;
  m(1, 1) = kMaskSet;  // 4-connectivity: not connected
  EXPECT_EQ(LabelComponents(m).components.size(), 2u);
}

TEST(ConnectedComponentsTest, TwoBlobsGetDistinctLabels) {
  Bitmap m(12, 6);
  FillRect(m, {0, 0, 3, 3});
  FillRect(m, {8, 2, 3, 3});
  const Labeling l = LabelComponents(m);
  ASSERT_EQ(l.components.size(), 2u);
  EXPECT_NE(l.labels(1, 1), l.labels(9, 3));
  EXPECT_EQ(l.labels(5, 1), 0);
  EXPECT_EQ(l.components[0].area, 9u);
  EXPECT_EQ(l.components[1].area, 9u);
}

TEST(ConnectedComponentsTest, LShapeIsOneComponent) {
  Bitmap m(6, 6);
  FillRect(m, {0, 0, 1, 5});
  FillRect(m, {0, 4, 5, 1});
  const Labeling l = LabelComponents(m);
  ASSERT_EQ(l.components.size(), 1u);
  EXPECT_EQ(l.components[0].area, 9u);
  EXPECT_EQ(l.components[0].bbox, (Rect{0, 0, 5, 5}));
}

TEST(ConnectedComponentsTest, RemoveSmallComponents) {
  Bitmap m(12, 12);
  FillRect(m, {0, 0, 4, 4});   // area 16
  m(10, 10) = kMaskSet;        // area 1
  const Bitmap cleaned = RemoveSmallComponents(m, 4);
  EXPECT_TRUE(cleaned(1, 1));
  EXPECT_FALSE(cleaned(10, 10));
  EXPECT_EQ(CountSet(cleaned), 16u);
}

TEST(ConnectedComponentsTest, RemoveSmallKeepsExactThreshold) {
  Bitmap m(8, 8);
  FillRect(m, {0, 0, 2, 2});  // area 4
  EXPECT_EQ(CountSet(RemoveSmallComponents(m, 4)), 4u);
  EXPECT_EQ(CountSet(RemoveSmallComponents(m, 5)), 0u);
}

TEST(ConnectedComponentsTest, LargestComponent) {
  Bitmap m(16, 8);
  FillRect(m, {0, 0, 5, 5});
  FillRect(m, {10, 0, 3, 3});
  const Bitmap largest = LargestComponent(m);
  EXPECT_TRUE(largest(2, 2));
  EXPECT_FALSE(largest(11, 1));
  EXPECT_EQ(CountSet(largest), 25u);
}

TEST(ConnectedComponentsTest, LargestOfEmptyIsEmpty) {
  EXPECT_EQ(CountSet(LargestComponent(Bitmap(4, 4))), 0u);
}

TEST(ConnectedComponentsTest, LargestComponentTieGoesToRasterFirst) {
  Bitmap m(16, 8);
  FillRect(m, {0, 4, 3, 3});   // area 9, first pixel in row 4
  FillRect(m, {10, 1, 3, 3});  // area 9, first pixel in row 1
  const Bitmap largest = LargestComponent(m);
  EXPECT_TRUE(largest(11, 2));
  EXPECT_FALSE(largest(1, 5));
  EXPECT_EQ(CountSet(largest), 9u);
}

// One labelling gives what RemoveSmallComponents then LargestComponent do.
TEST(ConnectedComponentsTest, LargestComponentWithMinAreaMatchesTwoPasses) {
  Bitmap m(20, 12);
  FillRect(m, {0, 0, 4, 4});    // area 16
  FillRect(m, {10, 2, 5, 2});   // area 10
  m(18, 10) = kMaskSet;         // area 1
  for (std::size_t min_area : {0u, 1u, 10u, 15u, 16u, 17u, 100u}) {
    EXPECT_EQ(LargestComponent(m, min_area),
              LargestComponent(RemoveSmallComponents(m, min_area)))
        << "min_area " << min_area;
  }
  EXPECT_EQ(CountSet(LargestComponent(m, 16)), 16u);
  EXPECT_EQ(CountSet(LargestComponent(m, 17)), 0u);
}

}  // namespace
}  // namespace bb::imaging
