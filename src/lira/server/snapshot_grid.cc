#include "lira/server/snapshot_grid.h"

#include <algorithm>
#include <array>
#include <bit>
#include <utility>

#include "lira/common/check.h"

namespace lira {
namespace {

/// Smallest id chunk a pooled Rebuild hands one worker.
constexpr int64_t kFillGrain = 8192;

/// Sorts ids drawn from [0, limit) ascending. A range answer gathers a few
/// hundred ids in cell order, which is random id order, so a comparison
/// sort pays a branch miss on most comparisons; an LSD radix sort in
/// passes of at most 11 bits costs a few linear sweeps instead.
void SortIds(int32_t limit, std::vector<NodeId>* ids) {
  constexpr size_t kComparisonSortBelow = 64;
  constexpr int kMaxDigitBits = 11;
  const size_t m = ids->size();
  LIRA_DCHECK(m <= static_cast<size_t>(limit));
  if (m < kComparisonSortBelow) {
    std::sort(ids->begin(), ids->end());
    return;
  }
  const int bits = std::bit_width(static_cast<uint32_t>(limit - 1));
  const int passes = (bits + kMaxDigitBits - 1) / kMaxDigitBits;
  const int digit = (bits + passes - 1) / passes;
  const uint32_t mask = (uint32_t{1} << digit) - 1;
  std::array<int32_t, (1 << kMaxDigitBits) + 1> start{};
  std::vector<NodeId> scratch(m);
  NodeId* src = ids->data();
  NodeId* dst = scratch.data();
  for (int shift = 0; shift < passes * digit; shift += digit) {
    std::fill(start.begin(), start.begin() + mask + 2, 0);
    for (size_t i = 0; i < m; ++i) {
      ++start[((static_cast<uint32_t>(src[i]) >> shift) & mask) + 1];
    }
    for (uint32_t d = 1; d <= mask; ++d) {
      start[d] += start[d - 1];
    }
    for (size_t i = 0; i < m; ++i) {
      dst[start[(static_cast<uint32_t>(src[i]) >> shift) & mask]++] = src[i];
    }
    std::swap(src, dst);
  }
  if (src != ids->data()) {
    std::copy(src, src + m, ids->data());
  }
}

}  // namespace

SnapshotGrid::SnapshotGrid(int32_t num_nodes, int32_t alpha)
    : fill_x_(num_nodes, 0.0),
      fill_y_(num_nodes, 0.0),
      fill_known_(num_nodes, 0),
      cell_(num_nodes, -1),
      cell_start_(static_cast<size_t>(alpha) * alpha + 1, 0),
      ids_(num_nodes, 0),
      x_(num_nodes, 0.0),
      y_(num_nodes, 0.0) {
  LIRA_CHECK(num_nodes >= 0 && alpha > 0);
}

void SnapshotGrid::Rebuild(const PositionTracker& tracker, double t,
                           const StatisticsGrid& grid, ThreadPool* pool) {
  LIRA_CHECK(tracker.num_nodes() == num_nodes());
  // Prediction and cell lookup are per lane, so each chunk does both and
  // only the counting sort stays serial.
  const auto fill = [&](int64_t begin, int64_t end) {
    tracker.PredictSpan(static_cast<NodeId>(begin), end - begin, t,
                        /*fallback_x=*/nullptr, /*fallback_y=*/nullptr,
                        fill_x_.data() + begin, fill_y_.data() + begin,
                        fill_known_.data() + begin);
    grid.LocateCells(end - begin, fill_x_.data() + begin,
                     fill_y_.data() + begin, fill_known_.data() + begin,
                     cell_.data() + begin);
  };
  const auto n = static_cast<int64_t>(cell_.size());
  if (pool != nullptr) {
    pool->ParallelFor(0, n, kFillGrain,
                      [&](int32_t /*chunk*/, int64_t begin, int64_t end) {
                        fill(begin, end);
                      });
  } else {
    fill(0, n);
  }
  SortByCell(t, fill_x_.data(), fill_y_.data(), grid);
}

void SnapshotGrid::Build(double t, const double* x, const double* y,
                         const uint8_t* known, const StatisticsGrid& grid) {
  grid.LocateCells(num_nodes(), x, y, known, cell_.data());
  SortByCell(t, x, y, grid);
}

void SnapshotGrid::SortByCell(double t, const double* x, const double* y,
                              const StatisticsGrid& grid) {
  // A grid of another size would have located cells outside cell_start_.
  LIRA_CHECK(static_cast<size_t>(grid.alpha()) * grid.alpha() + 1 ==
             cell_start_.size());
  time_ = t;
  const auto n = static_cast<int32_t>(cell_.size());
  std::fill(cell_start_.begin(), cell_start_.end(), 0);
  for (int32_t i = 0; i < n; ++i) {
    if (cell_[i] >= 0) {
      ++cell_start_[cell_[i] + 1];
    }
  }
  for (size_t c = 1; c < cell_start_.size(); ++c) {
    cell_start_[c] += cell_start_[c - 1];
  }
  // cell_start_[c] is now cell c's first slot. Placing ids in ascending
  // order keeps each cell's run ascending, and advances cell_start_[c] to
  // cell c's end -- cell c + 1's start -- so one shift restores the starts.
  for (int32_t i = 0; i < n; ++i) {
    const int32_t c = cell_[i];
    if (c < 0) {
      continue;
    }
    const int32_t slot = cell_start_[c]++;
    ids_[slot] = i;
    x_[slot] = x[i];
    y_[slot] = y[i];
  }
  std::copy_backward(cell_start_.begin(), cell_start_.end() - 1,
                     cell_start_.end());
  cell_start_[0] = 0;
}

std::vector<NodeId> SnapshotGrid::Range(const StatisticsGrid& grid,
                                        const Rect& range) const {
  std::vector<NodeId> out;
  // Such a range contains no point (Contains compares the same edges), and
  // a NaN corner must not reach the cell arithmetic.
  if (!(range.min_x < range.max_x && range.min_y < range.max_y)) {
    return out;
  }
  const int32_t alpha = grid.alpha();
  LIRA_DCHECK(cell_start_.size() == static_cast<size_t>(alpha) * alpha + 1);
  const int32_t lo = grid.CellIndexOf({range.min_x, range.min_y});
  const int32_t hi = grid.CellIndexOf({range.max_x, range.max_y});
  const int32_t ix0 = lo % alpha;
  const int32_t ix1 = hi % alpha;
  const int32_t row0 = lo / alpha;
  const int32_t row1 = hi / alpha;
  // Size the answer for every scanned entry, then keep the matches without
  // a branch: each entry is written and the cursor advances only when
  // Rect::Contains holds (spelled without short-circuits).
  int32_t scanned = 0;
  for (int32_t row = row0; row <= row1; ++row) {
    scanned += cell_start_[row * alpha + ix1 + 1] -
               cell_start_[row * alpha + ix0];
  }
  out.resize(static_cast<size_t>(scanned));
  size_t kept = 0;
  for (int32_t row = row0; row <= row1; ++row) {
    const int32_t end = cell_start_[row * alpha + ix1 + 1];
    for (int32_t k = cell_start_[row * alpha + ix0]; k < end; ++k) {
      const double x = x_[k];
      const double y = y_[k];
      out[kept] = ids_[k];
      kept += static_cast<size_t>((x >= range.min_x) & (x < range.max_x) &
                                  (y >= range.min_y) & (y < range.max_y));
    }
  }
  out.resize(kept);
  SortIds(num_nodes(), &out);
  return out;
}

}  // namespace lira
