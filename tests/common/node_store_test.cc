#include "lira/common/node_store.h"

#include <gtest/gtest.h>

namespace lira {
namespace {

TEST(NodeStoreTest, ResizeZeroInitializesAllColumns) {
  NodeStore store(4);
  EXPECT_EQ(store.num_nodes(), 4);
  for (int32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(store.truth_x()[i], 0.0);
    EXPECT_EQ(store.believed_y()[i], 0.0);
    EXPECT_EQ(store.believed_known()[i], 0);
    EXPECT_EQ(store.delta()[i], 0.0);
    EXPECT_EQ(store.region_cell()[i], 0);
  }
  store.truth_x()[2] = 17.0;
  store.Resize(8);
  EXPECT_EQ(store.num_nodes(), 8);
  EXPECT_EQ(store.truth_x()[2], 0.0);
}

TEST(NodeStoreTest, MemoryBytesCoversTheColumns) {
  NodeStore store(1000);
  // 5 double columns + 1 byte column + 1 int32 column, >= tight packing.
  EXPECT_GE(store.MemoryBytes(), 1000u * (5 * 8 + 1 + 4));
  // Position, four safe-box bounds: 6 double columns + cell + present.
  NodeColumns cols;
  cols.Resize(1000);
  EXPECT_GE(cols.MemoryBytes(), 1000u * (6 * 8 + 4 + 1));
}

TEST(NodeColumnsTest, ResizeResetsWalkState) {
  NodeColumns cols;
  cols.Resize(3);
  EXPECT_EQ(cols.cell[1], -1);
  EXPECT_EQ(cols.present[2], 0);
  // The empty box: all four bounds 0, so no point is strictly inside.
  EXPECT_EQ(cols.box_lo_x[0], 0.0);
  EXPECT_EQ(cols.box_hi_x[0], 0.0);
  EXPECT_EQ(cols.box_lo_y[0], 0.0);
  EXPECT_EQ(cols.box_hi_y[0], 0.0);
  cols.present[0] = 1;
  cols.box_lo_x[1] = -5.0;
  cols.box_hi_x[1] = 5.0;
  cols.Resize(3);
  EXPECT_EQ(cols.present[0], 0);
  EXPECT_EQ(cols.box_lo_x[1], 0.0);
  EXPECT_EQ(cols.box_hi_x[1], 0.0);
}

}  // namespace
}  // namespace lira
