#include "lira/index/grid_index.h"

#include <algorithm>
#include <cmath>

#include "lira/common/check.h"

namespace lira {

GridIndex::GridIndex(const Rect& world, int32_t cells_per_side,
                     int32_t num_nodes)
    : world_(world),
      cells_per_side_(cells_per_side),
      cell_w_(world.width() / cells_per_side),
      cell_h_(world.height() / cells_per_side),
      cells_(static_cast<size_t>(cells_per_side) * cells_per_side),
      cell_of_(num_nodes, -1),
      slot_of_(num_nodes, -1),
      position_of_(num_nodes) {}

StatusOr<GridIndex> GridIndex::Create(const Rect& world,
                                      int32_t cells_per_side,
                                      int32_t num_nodes) {
  if (world.width() <= 0.0 || world.height() <= 0.0) {
    return InvalidArgumentError("world rectangle must be non-degenerate");
  }
  if (cells_per_side < 1) {
    return InvalidArgumentError("cells_per_side must be >= 1");
  }
  if (num_nodes < 0) {
    return InvalidArgumentError("num_nodes must be non-negative");
  }
  return GridIndex(world, cells_per_side, num_nodes);
}

int32_t GridIndex::CellIndexFor(Point p) const {
  p = world_.Clamp(p);
  auto cx = static_cast<int32_t>((p.x - world_.min_x) / cell_w_);
  auto cy = static_cast<int32_t>((p.y - world_.min_y) / cell_h_);
  cx = std::clamp(cx, 0, cells_per_side_ - 1);
  cy = std::clamp(cy, 0, cells_per_side_ - 1);
  return cy * cells_per_side_ + cx;
}

void GridIndex::RemoveFromBucket(NodeId id) {
  auto& bucket = cells_[cell_of_[id]];
  const int32_t slot = slot_of_[id];
  LIRA_DCHECK(slot >= 0 && slot < static_cast<int32_t>(bucket.size()) &&
              bucket[slot] == id);
  const NodeId moved = bucket.back();
  bucket[slot] = moved;
  slot_of_[moved] = slot;
  bucket.pop_back();
}

void GridIndex::Update(NodeId id, Point position) {
  LIRA_DCHECK(id >= 0 && id < num_nodes());
  position = world_.Clamp(position);
  const int32_t new_cell = CellIndexFor(position);
  const int32_t old_cell = cell_of_[id];
  position_of_[id] = position;
  if (old_cell == new_cell) {
    return;
  }
  if (old_cell >= 0) {
    RemoveFromBucket(id);
  } else {
    ++size_;
  }
  slot_of_[id] = static_cast<int32_t>(cells_[new_cell].size());
  cells_[new_cell].push_back(id);
  cell_of_[id] = new_cell;
}

void GridIndex::Remove(NodeId id) {
  if (!Contains(id)) {
    return;
  }
  RemoveFromBucket(id);
  cell_of_[id] = -1;
  slot_of_[id] = -1;
  --size_;
}

Point GridIndex::PositionOf(NodeId id) const {
  LIRA_CHECK(Contains(id));
  return position_of_[id];
}

std::vector<NodeId> GridIndex::RangeQuery(const Rect& range) const {
  std::vector<NodeId> result;
  RangeQuery(range, &result);
  return result;
}

void GridIndex::RangeQuery(const Rect& range, std::vector<NodeId>* out) const {
  out->clear();
  const Rect clipped = range.Intersection(world_);
  if (clipped.Area() <= 0.0) {
    return;
  }
  auto cx0 = static_cast<int32_t>((clipped.min_x - world_.min_x) / cell_w_);
  auto cy0 = static_cast<int32_t>((clipped.min_y - world_.min_y) / cell_h_);
  auto cx1 = static_cast<int32_t>((clipped.max_x - world_.min_x) / cell_w_);
  auto cy1 = static_cast<int32_t>((clipped.max_y - world_.min_y) / cell_h_);
  cx0 = std::clamp(cx0, 0, cells_per_side_ - 1);
  cy0 = std::clamp(cy0, 0, cells_per_side_ - 1);
  cx1 = std::clamp(cx1, 0, cells_per_side_ - 1);
  cy1 = std::clamp(cy1, 0, cells_per_side_ - 1);
  for (int32_t cy = cy0; cy <= cy1; ++cy) {
    for (int32_t cx = cx0; cx <= cx1; ++cx) {
      for (NodeId id : cells_[cy * cells_per_side_ + cx]) {
        if (range.Contains(position_of_[id])) {
          out->push_back(id);
        }
      }
    }
  }
}

}  // namespace lira
