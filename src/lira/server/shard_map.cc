#include "lira/server/shard_map.h"

#include <algorithm>
#include <cstdlib>

#include "lira/common/check.h"

namespace lira {
namespace {

bool IsPowerOfTwo(int32_t v) { return v > 0 && (v & (v - 1)) == 0; }

}  // namespace

ShardMap::ShardMap(const Rect& world, int32_t alpha, int32_t shards)
    : world_(world),
      alpha_(alpha),
      cell_w_(world.width() / alpha),
      shard_of_col_(alpha, 0),
      col_begin_(shards + 1, 0) {
  // Balanced contiguous strips: shard k owns columns
  // [k * alpha / S, (k + 1) * alpha / S).
  for (int32_t k = 0; k <= shards; ++k) {
    col_begin_[k] = static_cast<int32_t>(
        static_cast<int64_t>(k) * alpha / shards);
  }
  RefreshColumnOwners();
}

StatusOr<ShardMap> ShardMap::Create(const Rect& world, int32_t alpha,
                                    int32_t shards) {
  if (world.width() <= 0.0 || world.height() <= 0.0) {
    return InvalidArgumentError("world rectangle must be non-degenerate");
  }
  if (!IsPowerOfTwo(alpha)) {
    return InvalidArgumentError("alpha must be a positive power of two");
  }
  if (shards < 1 || shards > alpha) {
    return InvalidArgumentError("shards must be in [1, alpha]");
  }
  return ShardMap(world, alpha, shards);
}

void ShardMap::RefreshColumnOwners() {
  const int32_t shards = num_shards();
  for (int32_t k = 0; k < shards; ++k) {
    for (int32_t col = col_begin_[k]; col < col_begin_[k + 1]; ++col) {
      shard_of_col_[col] = k;
    }
  }
}

int32_t ShardMap::ColumnOf(Point p) const {
  p = world_.Clamp(p);
  return std::clamp(static_cast<int32_t>((p.x - world_.min_x) / cell_w_), 0,
                    alpha_ - 1);
}

int32_t ShardMap::ShardFor(Point p) const {
  return shard_of_col_[ColumnOf(p)];
}

Rect ShardMap::ShardRect(int32_t shard) const {
  return Rect{world_.min_x + col_begin_[shard] * cell_w_, world_.min_y,
              world_.min_x + col_begin_[shard + 1] * cell_w_, world_.max_y};
}

int32_t ShardMap::Rebalance(const std::vector<int64_t>& column_load,
                            int32_t max_moves) {
  LIRA_CHECK(static_cast<int32_t>(column_load.size()) == alpha_);
  LIRA_CHECK(max_moves >= 0);
  const int32_t shards = num_shards();
  if (shards == 1 || max_moves == 0) {
    return 0;
  }
  // prefix[c] = load of columns [0, c); all-integer so every replica that
  // sees the same grid computes the identical split.
  std::vector<int64_t> prefix(static_cast<size_t>(alpha_) + 1, 0);
  for (int32_t c = 0; c < alpha_; ++c) {
    LIRA_CHECK(column_load[c] >= 0);
    prefix[c + 1] = prefix[c] + column_load[c];
  }
  const int64_t total = prefix[alpha_];
  if (total == 0) {
    return 0;
  }
  std::vector<int32_t> next(col_begin_);
  int32_t moved = 0;
  for (int32_t k = 1; k < shards; ++k) {
    // Balanced prefix: smallest c with prefix[c] >= k * total / S, compared
    // as prefix[c] * S >= k * total to stay in exact integers.
    int32_t ideal = 0;
    while (ideal < alpha_ &&
           prefix[ideal] * static_cast<int64_t>(shards) <
               static_cast<int64_t>(k) * total) {
      ++ideal;
    }
    // Hysteresis: at most max_moves columns of travel per boundary per
    // epoch, then monotonicity with >= 1 column per shard on both sides.
    int32_t b = std::clamp(ideal, col_begin_[k] - max_moves,
                           col_begin_[k] + max_moves);
    b = std::clamp(b, next[k - 1] + 1, alpha_ - (shards - k));
    moved += std::abs(b - col_begin_[k]);
    next[k] = b;
  }
  if (moved == 0) {
    return 0;
  }
  col_begin_ = std::move(next);
  RefreshColumnOwners();
  ++epoch_;
  return moved;
}

}  // namespace lira
