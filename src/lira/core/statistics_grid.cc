#include "lira/core/statistics_grid.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "lira/common/check.h"
#include "lira/common/kernels.h"

namespace lira {
namespace {

bool IsPowerOfTwo(int32_t v) { return v > 0 && (v & (v - 1)) == 0; }

}  // namespace

StatisticsGrid::StatisticsGrid(const Rect& world, int32_t alpha)
    : world_(world),
      alpha_(alpha),
      cell_w_(world.width() / alpha),
      cell_h_(world.height() / alpha),
      node_acc_(2 * static_cast<size_t>(alpha) * alpha, 0),
      query_count_(static_cast<size_t>(alpha) * alpha, 0.0) {}

StatusOr<StatisticsGrid> StatisticsGrid::Create(const Rect& world,
                                                int32_t alpha) {
  if (world.width() <= 0.0 || world.height() <= 0.0) {
    return InvalidArgumentError("world rectangle must be non-degenerate");
  }
  if (!IsPowerOfTwo(alpha)) {
    return InvalidArgumentError("alpha must be a positive power of two");
  }
  return StatisticsGrid(world, alpha);
}

int32_t StatisticsGrid::RecommendedAlpha(int32_t l, double x) {
  LIRA_CHECK(l >= 1);
  LIRA_CHECK(x > 0.0);
  const double target = x * std::sqrt(static_cast<double>(l));
  const auto exponent = static_cast<int32_t>(std::floor(std::log2(target)));
  return 1 << std::max(exponent, 0);
}

Rect StatisticsGrid::CellRect(int32_t ix, int32_t iy) const {
  LIRA_DCHECK(ix >= 0 && ix < alpha_ && iy >= 0 && iy < alpha_);
  return Rect{world_.min_x + ix * cell_w_, world_.min_y + iy * cell_h_,
              world_.min_x + (ix + 1) * cell_w_,
              world_.min_y + (iy + 1) * cell_h_};
}

int64_t StatisticsGrid::QuantizeSpeed(double speed) {
  return static_cast<int64_t>(std::llround(speed * kSpeedScale));
}

void StatisticsGrid::ClearNodes() {
  std::fill(node_acc_.begin(), node_acc_.end(), int64_t{0});
  total_node_count_ = 0;
  total_speed_q_ = 0;
}

void StatisticsGrid::ClearQueries() {
  std::fill(query_count_.begin(), query_count_.end(), 0.0);
  total_queries_ = 0.0;
  total_queries_valid_ = true;
}

void StatisticsGrid::LocateCell(Point p, int32_t* ix, int32_t* iy) const {
  p = world_.Clamp(p);
  *ix = std::clamp(static_cast<int32_t>((p.x - world_.min_x) / cell_w_), 0,
                   alpha_ - 1);
  *iy = std::clamp(static_cast<int32_t>((p.y - world_.min_y) / cell_h_), 0,
                   alpha_ - 1);
}

int32_t StatisticsGrid::CellIndexOf(Point p) const {
  int32_t ix;
  int32_t iy;
  LocateCell(p, &ix, &iy);
  return static_cast<int32_t>(CellIndex(ix, iy));
}

void StatisticsGrid::AddNode(Point position, double speed) {
  AddNodeQAt(CellIndexOf(position), QuantizeSpeed(speed));
}

void StatisticsGrid::AddNodeQAt(int32_t cell, int64_t q) {
  LIRA_DCHECK(cell >= 0 &&
              cell < static_cast<int32_t>(node_acc_.size() / 2));
  int64_t* const acc = node_acc_.data() + 2 * static_cast<size_t>(cell);
  acc[0] += 1;
  acc[1] += q;
  total_node_count_ += 1;
  total_speed_q_ += q;
}

void StatisticsGrid::RemoveNodeQAt(int32_t cell, int64_t q) {
  LIRA_DCHECK(cell >= 0 &&
              cell < static_cast<int32_t>(node_acc_.size() / 2));
  // Unmatched removals clamp at zero; the totals subtract only what was
  // actually applied so they always equal the per-cell sums.
  int64_t* const acc = node_acc_.data() + 2 * static_cast<size_t>(cell);
  const int64_t count_delta = std::min<int64_t>(1, acc[0]);
  const int64_t speed_delta = std::min(q, acc[1]);
  acc[0] -= count_delta;
  acc[1] -= speed_delta;
  total_node_count_ -= count_delta;
  total_speed_q_ -= speed_delta;
}

void StatisticsGrid::AddQueries(const QueryRegistry& registry,
                                double margin) {
  AddQueriesRange(registry, 0, registry.size(), margin);
}

void StatisticsGrid::AddQueriesRange(const QueryRegistry& registry,
                                     int32_t begin, int32_t end,
                                     double margin) {
  LIRA_CHECK(margin >= 0.0);
  LIRA_CHECK(begin >= 0 && begin <= end && end <= registry.size());
  const auto queries = registry.queries();
  for (int32_t qi = begin; qi < end; ++qi) {
    RangeQuery q = queries[qi];
    q.range.min_x -= margin;
    q.range.min_y -= margin;
    q.range.max_x += margin;
    q.range.max_y += margin;
    const Rect clipped = q.range.Intersection(world_);
    if (clipped.Area() <= 0.0 || q.range.Area() <= 0.0) {
      continue;
    }
    auto cx0 = static_cast<int32_t>((clipped.min_x - world_.min_x) / cell_w_);
    auto cy0 = static_cast<int32_t>((clipped.min_y - world_.min_y) / cell_h_);
    auto cx1 = static_cast<int32_t>((clipped.max_x - world_.min_x) / cell_w_);
    auto cy1 = static_cast<int32_t>((clipped.max_y - world_.min_y) / cell_h_);
    cx0 = std::clamp(cx0, 0, alpha_ - 1);
    cy0 = std::clamp(cy0, 0, alpha_ - 1);
    cx1 = std::clamp(cx1, 0, alpha_ - 1);
    cy1 = std::clamp(cy1, 0, alpha_ - 1);
    const double inv_area = 1.0 / q.range.Area();
    for (int32_t iy = cy0; iy <= cy1; ++iy) {
      for (int32_t ix = cx0; ix <= cx1; ++ix) {
        const double overlap = CellRect(ix, iy).Intersection(q.range).Area();
        if (overlap > 0.0) {
          query_count_[CellIndex(ix, iy)] += overlap * inv_area;
        }
      }
    }
  }
  total_queries_valid_ = false;
}

bool StatisticsGrid::QueryCountsEqual(const StatisticsGrid& other) const {
  return query_count_.size() == other.query_count_.size() &&
         std::memcmp(query_count_.data(), other.query_count_.data(),
                     query_count_.size() * sizeof(double)) == 0;
}

double StatisticsGrid::NodeCount(int32_t ix, int32_t iy) const {
  return static_cast<double>(node_acc_[2 * CellIndex(ix, iy)]);
}

double StatisticsGrid::QueryCount(int32_t ix, int32_t iy) const {
  return query_count_[CellIndex(ix, iy)];
}

double StatisticsGrid::SpeedSumAt(size_t idx) const {
  return static_cast<double>(node_acc_[2 * idx + 1]) / kSpeedScale;
}

double StatisticsGrid::MeanSpeed(int32_t ix, int32_t iy) const {
  const size_t idx = CellIndex(ix, iy);
  const int64_t count = node_acc_[2 * idx];
  return count > 0 ? SpeedSumAt(idx) / static_cast<double>(count) : 0.0;
}

RegionStats StatisticsGrid::CellStats(int32_t ix, int32_t iy) const {
  RegionStats stats;
  stats.n = NodeCount(ix, iy);
  stats.m = QueryCount(ix, iy);
  stats.s = MeanSpeed(ix, iy);
  return stats;
}

void StatisticsGrid::LocateCells(int64_t n, const double* px, const double* py,
                                 const uint8_t* known, int32_t* cell) const {
  kernels::ClampSpec spec;
  spec.lo_x = world_.min_x;
  spec.lo_y = world_.min_y;
  spec.hi_x = world_.clamp_hi_x();
  spec.hi_y = world_.clamp_hi_y();
  kernels::LocateCells(n, px, py, known, spec, cell_w_, cell_h_, alpha_, cell);
}

void StatisticsGrid::CellStatsRow(int32_t iy, RegionStats* out) const {
  LIRA_DCHECK(iy >= 0 && iy < alpha_);
  const size_t row = CellIndex(0, iy);
  const int64_t* __restrict acc = node_acc_.data() + 2 * row;
  const double* __restrict queries = query_count_.data() + row;
  for (int32_t ix = 0; ix < alpha_; ++ix) {
    const int64_t count = acc[2 * ix];
    const int64_t speed_q = acc[2 * ix + 1];
    out[ix].n = static_cast<double>(count);
    out[ix].m = queries[ix];
    // MeanSpeed's expression verbatim (SpeedSumAt then the guarded divide).
    out[ix].s = count > 0 ? (static_cast<double>(speed_q) / kSpeedScale) /
                                static_cast<double>(count)
                          : 0.0;
  }
}

RegionStats StatisticsGrid::AggregateRect(const Rect& rect) const {
  RegionStats stats;
  const Rect clipped = rect.Intersection(world_);
  if (clipped.Area() <= 0.0) {
    return stats;
  }
  auto cx0 = static_cast<int32_t>((clipped.min_x - world_.min_x) / cell_w_);
  auto cy0 = static_cast<int32_t>((clipped.min_y - world_.min_y) / cell_h_);
  auto cx1 = static_cast<int32_t>((clipped.max_x - world_.min_x) / cell_w_);
  auto cy1 = static_cast<int32_t>((clipped.max_y - world_.min_y) / cell_h_);
  cx0 = std::clamp(cx0, 0, alpha_ - 1);
  cy0 = std::clamp(cy0, 0, alpha_ - 1);
  cx1 = std::clamp(cx1, 0, alpha_ - 1);
  cy1 = std::clamp(cy1, 0, alpha_ - 1);
  double speed_sum = 0.0;
  const double cell_area = cell_w_ * cell_h_;
  // The cell/rect overlap is separable in x and y, so the per-column overlap
  // widths are hoisted out of the row loop instead of intersecting a fresh
  // CellRect per cell. ox * oy reproduces Intersection(...).Area() exactly.
  constexpr int32_t kStackCols = 256;
  const int32_t ncols = cx1 - cx0 + 1;
  double ox_stack[kStackCols];
  std::vector<double> ox_heap;
  double* ox = ox_stack;
  if (ncols > kStackCols) {
    ox_heap.resize(ncols);
    ox = ox_heap.data();
  }
  for (int32_t ix = cx0; ix <= cx1; ++ix) {
    const double lo = std::max(world_.min_x + ix * cell_w_, rect.min_x);
    const double hi = std::min(world_.min_x + (ix + 1) * cell_w_, rect.max_x);
    ox[ix - cx0] = std::max(0.0, hi - lo);
  }
  for (int32_t iy = cy0; iy <= cy1; ++iy) {
    const double lo = std::max(world_.min_y + iy * cell_h_, rect.min_y);
    const double hi = std::min(world_.min_y + (iy + 1) * cell_h_, rect.max_y);
    const double oy = std::max(0.0, hi - lo);
    if (oy <= 0.0) {
      continue;
    }
    for (int32_t ix = cx0; ix <= cx1; ++ix) {
      const double fraction = ox[ix - cx0] * oy / cell_area;
      if (fraction <= 0.0) {
        continue;
      }
      const size_t idx = CellIndex(ix, iy);
      stats.n += static_cast<double>(node_acc_[2 * idx]) * fraction;
      stats.m += query_count_[idx] * fraction;
      speed_sum += SpeedSumAt(idx) * fraction;
    }
  }
  stats.s = stats.n > 0.0 ? speed_sum / stats.n : 0.0;
  return stats;
}

void StatisticsGrid::ColumnNodeCounts(std::vector<int64_t>* out) const {
  out->assign(alpha_, 0);
  for (int32_t iy = 0; iy < alpha_; ++iy) {
    const int64_t* row = node_acc_.data() + 2 * CellIndex(0, iy);
    for (int32_t ix = 0; ix < alpha_; ++ix) {
      (*out)[ix] += row[2 * ix];
    }
  }
}

double StatisticsGrid::TotalNodes() const {
  return static_cast<double>(total_node_count_);
}

double StatisticsGrid::TotalQueries() const {
  if (!total_queries_valid_) {
    double total = 0.0;
    for (double v : query_count_) {
      total += v;
    }
    total_queries_ = total;
    total_queries_valid_ = true;
  }
  return total_queries_;
}

double StatisticsGrid::OverallMeanSpeed() const {
  return total_node_count_ > 0
             ? (static_cast<double>(total_speed_q_) / kSpeedScale) /
                   static_cast<double>(total_node_count_)
             : 0.0;
}

}  // namespace lira
