#include "lira/cq/incremental_evaluator.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "lira/common/check.h"

namespace lira {
namespace {

constexpr int64_t kNodeGrain = 256;

}  // namespace

IncrementalEvaluator::IncrementalEvaluator(const Rect& world,
                                           int32_t num_nodes, EvalMode mode,
                                           QueryIndex query_index)
    : world_(world),
      num_nodes_(num_nodes),
      mode_(mode),
      query_index_(std::move(query_index)),
      clamp_spec_{world.min_x, world.min_y, world.clamp_hi_x(),
                  world.clamp_hi_y()},
      node_distance_(num_nodes, 0.0) {
  cols_[kTruth].Resize(num_nodes);
  cols_[kBelieved].Resize(num_nodes);
}

StatusOr<IncrementalEvaluator> IncrementalEvaluator::Create(
    const Rect& world, int32_t cells_per_side, int32_t num_nodes,
    const QueryRegistry& registry, EvalMode mode, double margin) {
  if (num_nodes < 0) {
    return InvalidArgumentError("num_nodes must be non-negative");
  }
  if (margin < 0.0 && cells_per_side >= 1) {
    margin = std::min(world.width(), world.height()) /
             static_cast<double>(cells_per_side) / 8.0;
  }
  auto query_index = QueryIndex::Create(world, cells_per_side, margin);
  if (!query_index.ok()) {
    return query_index.status();
  }
  IncrementalEvaluator evaluator(world, num_nodes, mode,
                                 *std::move(query_index));
  if (mode == EvalMode::kFullRescan) {
    auto truth = GridIndex::Create(world, cells_per_side, num_nodes);
    if (!truth.ok()) {
      return truth.status();
    }
    auto believed = GridIndex::Create(world, cells_per_side, num_nodes);
    if (!believed.ok()) {
      return believed.status();
    }
    evaluator.truth_index_.emplace(*std::move(truth));
    evaluator.believed_index_.emplace(*std::move(believed));
  }
  for (const RangeQuery& q : registry.queries()) {
    evaluator.AddQuery(q.range);
  }
  return evaluator;
}

QueryId IncrementalEvaluator::AddQuery(const Rect& range) {
  // MemberEvent packs the query id into 30 bits of its tag.
  LIRA_CHECK(queries_.size() < (1u << 29));
  const auto id = static_cast<QueryId>(queries_.size());
  queries_.push_back(range);
  active_.push_back(1);
  sym_diff_.push_back(0);
  truth_size_.push_back(0);
  believed_members_.emplace_back();
  if (mode_ == EvalMode::kFullRescan) {
    return id;
  }
  query_index_.Insert(id, range);
  // Before the first sample no node is present, so every count is zero and
  // the member set is empty: Create's bulk registration visits no node.
  if (!sample_seen_) {
    return id;
  }
  // Seed the member state from the stored positions (ascending ids, so the
  // believed vector comes out sorted) and count the symmetric difference
  // directly.
  std::vector<NodeId>& believed = believed_members_[id];
  const NodeColumns& tc = cols_[kTruth];
  const NodeColumns& bc = cols_[kBelieved];
  int32_t truth_count = 0;
  int32_t sym = 0;
  for (NodeId node = 0; node < num_nodes_; ++node) {
    const bool in_truth =
        tc.present[node] != 0 &&
        range.Contains(Point{tc.pos_x[node], tc.pos_y[node]});
    const bool in_believed =
        bc.present[node] != 0 &&
        range.Contains(Point{bc.pos_x[node], bc.pos_y[node]});
    if (in_truth) {
      ++truth_count;
    }
    if (in_believed) {
      believed.push_back(node);
    }
    if (in_truth != in_believed) {
      ++sym;
    }
  }
  truth_size_[id] = truth_count;
  sym_diff_[id] = sym;
  // A new boundary can cut into existing safe boxes; force fresh walks.
  // (The cached cells stay valid: they certify the cell assignment, which
  // no query can change.)
  cols_[kTruth].EmptyBoxes();
  cols_[kBelieved].EmptyBoxes();
  return id;
}

void IncrementalEvaluator::RemoveQuery(QueryId id) {
  LIRA_CHECK(id >= 0 && id < num_queries());
  if (active_[id] == 0) {
    return;
  }
  active_[id] = 0;
  if (mode_ == EvalMode::kIncremental) {
    query_index_.Erase(id, queries_[id]);
  }
  // Removal only loosens the constraints on a box, so stale (smaller)
  // boxes stay sound and need no reset.
  truth_size_[id] = 0;
  believed_members_[id].clear();
  sym_diff_[id] = 0;
}

namespace {

// Namespace scope (not function-local statics): the hot path must not pay
// a thread-safe-initialization guard per call.
const QueryIndex::CellPartials kNoPartial;
const std::vector<QueryId> kNoFull;

}  // namespace

void IncrementalEvaluator::NarrowBox(int64_t n, const WalkColumns& walk,
                                     SafeBox* box) {
  // min and max each return one of their operands, so the reduction is
  // exact and its order immaterial.
  SafeBox b = *box;
  for (int64_t i = 0; i < n; ++i) {
    b.lo_x = std::max(b.lo_x, walk.cut_lo_x[i]);
    b.hi_x = std::min(b.hi_x, walk.cut_hi_x[i]);
    b.lo_y = std::max(b.lo_y, walk.cut_lo_y[i]);
    b.hi_y = std::min(b.hi_y, walk.cut_hi_y[i]);
  }
  *box = b;
}

IncrementalEvaluator::SafeBox IncrementalEvaluator::WalkCandidates(
    Family family, NodeId id, bool old_present, Point old_pos,
    bool new_present, Point new_pos, int32_t new_cell, WorkerScratch* ws) {
  NodeColumns& cols = cols_[family];
  // The cached cell (>= 0 only while the safe box provably kept the
  // floor-arithmetic cell assignment) saves recomputing CellIndexOf for the
  // old position; when it was invalidated -- the box leaned on the index
  // margin and could leave the cell -- fall back to the floor arithmetic,
  // exactly as if nothing were cached.
  int32_t co = -1;
  if (old_present) {
    co = cols.cell[id];
    if (co < 0) {
      co = query_index_.CellIndexOf(old_pos);
    }
  }
  const int32_t cn = new_cell;
  // The box starts as the new cell widened by the index margin: every query
  // containing a point within per-axis distance margin() of the cell is in
  // the cell's lists, and every full entry contains it (QueryIndex's
  // coverage guarantee). Narrowing by the FP slack keeps the box clear of
  // the few-ulp rounding in the cell geometry. The new cell's partial
  // entries then cut it down; full entries never do.
  SafeBox box;
  Rect cell_rect{};
  if (cn >= 0) {
    cell_rect = query_index_.CellRectOf(cn);
    const double grow = query_index_.margin() - query_index_.fp_slack();
    box = SafeBox{cell_rect.min_x - grow, cell_rect.max_x + grow,
                  cell_rect.min_y - grow, cell_rect.max_y + grow};
  }
  const WalkColumns& walk = ws->walk;
  if (co == cn) {
    // Same cell: queries fully covering it stay members; only partials can
    // flip. Stream the cell's rect columns through the kernel (into the
    // per-chunk walk columns), then emit events in list order.
    const QueryIndex::CellPartials& pl = query_index_.Partial(co);
    const auto n = static_cast<int64_t>(pl.size());
    kernels::RectWalkBox(n, pl.min_x.data(), pl.min_y.data(), pl.max_x.data(),
                         pl.max_y.data(), old_pos.x, old_pos.y, new_pos.x,
                         new_pos.y, walk.old_side, walk.new_side,
                         walk.cut_lo_x, walk.cut_hi_x, walk.cut_lo_y,
                         walk.cut_hi_y);
    ws->touched += n;
    for (int64_t i = 0; i < n; ++i) {
      const bool in_new = !std::signbit(walk.new_side[i]);
      if (std::signbit(walk.old_side[i]) == in_new) {
        ws->events.push_back(MakeEvent(pl.id[i], id, family, in_new));
      }
    }
    NarrowBox(n, walk, &box);
  } else {
    const QueryIndex::CellPartials& partial_old =
        co >= 0 ? query_index_.Partial(co) : kNoPartial;
    const std::vector<QueryId>& full_old =
        co >= 0 ? query_index_.Full(co) : kNoFull;
    const QueryIndex::CellPartials& partial_new =
        cn >= 0 ? query_index_.Partial(cn) : kNoPartial;
    const std::vector<QueryId>& full_new =
        cn >= 0 ? query_index_.Full(cn) : kNoFull;
    // The new cell's partial entries go through the same kernel (its
    // old-position column goes unused): it gives their containment of
    // new_pos for the merge below and cuts the box.
    const auto n_new = static_cast<int64_t>(partial_new.size());
    kernels::RectWalkBox(n_new, partial_new.min_x.data(),
                         partial_new.min_y.data(), partial_new.max_x.data(),
                         partial_new.max_y.data(), new_pos.x, new_pos.y,
                         new_pos.x, new_pos.y, walk.old_side, walk.new_side,
                         walk.cut_lo_x, walk.cut_hi_x, walk.cut_lo_y,
                         walk.cut_hi_y);
    NarrowBox(n_new, walk, &box);
    // Four-way sorted merge over the union of candidate ids. A query absent
    // from a cell's lists cannot contain any position assigned to that cell
    // (QueryIndex coverage guarantee), so membership on that side is false.
    size_t ipo = 0;
    size_t ifo = 0;
    size_t ipn = 0;
    size_t ifn = 0;
    while (true) {
      QueryId q = std::numeric_limits<QueryId>::max();
      if (ipo < partial_old.size()) {
        q = std::min(q, partial_old.id[ipo]);
      }
      if (ifo < full_old.size()) {
        q = std::min(q, full_old[ifo]);
      }
      if (ipn < partial_new.size()) {
        q = std::min(q, partial_new.id[ipn]);
      }
      if (ifn < full_new.size()) {
        q = std::min(q, full_new[ifn]);
      }
      if (q == std::numeric_limits<QueryId>::max()) {
        break;
      }
      const bool covers_old = ifo < full_old.size() && full_old[ifo] == q;
      if (covers_old) {
        ++ifo;
      }
      bool has_range_old = false;
      size_t range_old = 0;
      if (ipo < partial_old.size() && partial_old.id[ipo] == q) {
        has_range_old = true;
        range_old = ipo;
        ++ipo;
      }
      const bool covers_new = ifn < full_new.size() && full_new[ifn] == q;
      if (covers_new) {
        ++ifn;
      }
      bool in_partial_new = false;
      if (ipn < partial_new.size() && partial_new.id[ipn] == q) {
        in_partial_new = !std::signbit(walk.new_side[ipn]);
        ++ipn;
      }
      ++ws->touched;
      const bool in_old =
          old_present &&
          (covers_old || (has_range_old &&
                          partial_old.RectAt(range_old).Contains(old_pos)));
      const bool in_new = new_present && (covers_new || in_partial_new);
      if (in_old != in_new) {
        ws->events.push_back(MakeEvent(q, id, family, in_new));
      }
    }
  }
  // Cache the cell only while the whole box stays inside it, shrunk by the
  // FP slack: then every position a later sample skips with is assigned to
  // cn by the floor arithmetic too.
  const double fp = query_index_.fp_slack();
  const bool box_in_cell =
      cn >= 0 && box.lo_x >= cell_rect.min_x + fp &&
      box.hi_x <= cell_rect.max_x - fp && box.lo_y >= cell_rect.min_y + fp &&
      box.hi_y <= cell_rect.max_y - fp;
  cols.cell[id] = box_in_cell ? cn : -1;
  return box;
}

void IncrementalEvaluator::WalkFamily(Family family, NodeId id,
                                      bool new_present, Point new_pos,
                                      int32_t new_cell, WorkerScratch* ws) {
  NodeColumns& cols = cols_[family];
  const bool old_present = cols.present[id] != 0;
  const Point old_pos{cols.pos_x[id], cols.pos_y[id]};
  const SafeBox box = WalkCandidates(family, id, old_present, old_pos,
                                     new_present, new_pos, new_cell, ws);
  cols.box_lo_x[id] = box.lo_x;
  cols.box_hi_x[id] = box.hi_x;
  cols.box_lo_y[id] = box.lo_y;
  cols.box_hi_y[id] = box.hi_y;
  cols.present[id] = new_present ? 1 : 0;
  cols.pos_x[id] = new_pos.x;
  cols.pos_y[id] = new_pos.y;
}

void IncrementalEvaluator::ProcessChunk(
    int64_t begin, int64_t end, const double* truth_x, const double* truth_y,
    const double* believed_x, const double* believed_y,
    const uint8_t* believed_known, WorkerScratch* ws) {
  const int64_t n = end - begin;
  NodeColumns& tc = cols_[kTruth];
  NodeColumns& bc = cols_[kBelieved];
  // Kernel pre-passes over the whole chunk: clamp the incoming positions
  // into the world (bit-identical to Rect::Clamp) and test every node
  // against its safe box. Unknown believed lanes get clamped too --
  // harmless, their skip lanes come out 0 and the values are never read.
  FrameArena& arena = ws->chunk_arena;
  arena.Reset();
  double* ctx = arena.AllocSpan<double>(n);
  double* cty = arena.AllocSpan<double>(n);
  double* cbx = arena.AllocSpan<double>(n);
  double* cby = arena.AllocSpan<double>(n);
  uint8_t* skip_t = arena.AllocSpan<uint8_t>(n);
  uint8_t* skip_b = arena.AllocSpan<uint8_t>(n);
  // Candidate-walk columns, sized by the index's partial-list high
  // watermark so every walk in the chunk reuses them (queries cannot be
  // added mid-sample).
  const auto walk_n = static_cast<int64_t>(query_index_.max_partial_size());
  ws->walk = WalkColumns{
      arena.AllocSpan<double>(walk_n), arena.AllocSpan<double>(walk_n),
      arena.AllocSpan<double>(walk_n), arena.AllocSpan<double>(walk_n),
      arena.AllocSpan<double>(walk_n), arena.AllocSpan<double>(walk_n)};
  // Deferred-walk keys: (new cell + 1, node, family) packed into one word.
  // Collecting the walks first and running them as a batch keeps the
  // bookkeeping loop's working set small and measures ~10% faster than
  // walking inline. The batch runs in ascending id, the order the keys are
  // pushed in, and that order is load-bearing: ApplyEvents merges each
  // (query, family) bucket as it arrives and needs it ascending by node.
  // (Sorting the batch by cell to reuse hot candidate lists was tried and
  // lost: scattering the node-column accesses costs more than the list
  // locality buys at these list sizes.)
  uint64_t* walk_keys = arena.AllocSpan<uint64_t>(2 * n);
  int64_t num_walks = 0;
  kernels::ClampPoints(n, truth_x + begin, truth_y + begin, clamp_spec_, ctx,
                       cty);
  kernels::ClampPoints(n, believed_x + begin, believed_y + begin, clamp_spec_,
                       cbx, cby);
  kernels::BoxSkipMask(n, ctx, cty, tc.box_lo_x.data() + begin,
                       tc.box_hi_x.data() + begin, tc.box_lo_y.data() + begin,
                       tc.box_hi_y.data() + begin, tc.present.data() + begin,
                       /*new_present=*/nullptr, skip_t);
  kernels::BoxSkipMask(n, cbx, cby, bc.box_lo_x.data() + begin,
                       bc.box_hi_x.data() + begin, bc.box_lo_y.data() + begin,
                       bc.box_hi_y.data() + begin, bc.present.data() + begin,
                       believed_known + begin, skip_b);
  // Scalar driver: per-node bookkeeping inline, walks deferred and keyed
  // by destination cell.
  for (int64_t i = 0; i < n; ++i) {
    const auto id = static_cast<NodeId>(begin + i);
    const Point new_truth{ctx[i], cty[i]};
    const bool known = believed_known[id] != 0;
    Point new_believed{};
    if (known) {
      new_believed = Point{cbx[i], cby[i]};
      // Same expression, argument order, and clamping as CompareQuery's
      // Distance(believed.PositionOf(id), truth.PositionOf(id)).
      node_distance_[id] = Distance(new_believed, new_truth);
    }
    if (skip_t[i] != 0) {
      // Still inside the box certified by the last walk: no membership
      // flips possible.
      tc.pos_x[id] = new_truth.x;
      tc.pos_y[id] = new_truth.y;
    } else {
      const int32_t cell = query_index_.CellIndexOf(new_truth);
      walk_keys[num_walks++] =
          (static_cast<uint64_t>(cell + 1) << 33) |
          (static_cast<uint64_t>(static_cast<uint32_t>(id)) << 1) |
          static_cast<uint64_t>(kTruth);
    }
    if (skip_b[i] != 0) {
      bc.pos_x[id] = new_believed.x;
      bc.pos_y[id] = new_believed.y;
    } else if (bc.present[id] != 0 || known) {
      const int32_t cell = known ? query_index_.CellIndexOf(new_believed) : -1;
      walk_keys[num_walks++] =
          (static_cast<uint64_t>(cell + 1) << 33) |
          (static_cast<uint64_t>(static_cast<uint32_t>(id)) << 1) |
          static_cast<uint64_t>(kBelieved);
    }
  }
  for (int64_t w = 0; w < num_walks; ++w) {
    const uint64_t key = walk_keys[w];
    const auto family = static_cast<Family>(key & 1);
    const auto id = static_cast<NodeId>((key >> 1) & 0xFFFFFFFFu);
    const auto cell = static_cast<int32_t>(key >> 33) - 1;
    const int64_t i = id - begin;
    if (family == kTruth) {
      WalkFamily(kTruth, id, /*new_present=*/true, Point{ctx[i], cty[i]},
                 cell, ws);
    } else {
      const bool known = believed_known[id] != 0;
      const Point new_believed =
          known ? Point{cbx[i], cby[i]} : Point{};
      WalkFamily(kBelieved, id, known, new_believed, cell, ws);
    }
  }
}

void IncrementalEvaluator::ApplyEvents(
    const std::vector<WorkerScratch>& scratch) {
  size_t total = 0;
  for (const WorkerScratch& ws : scratch) {
    total += ws.events.size();
    queries_touched_ += ws.touched;
  }
  deltas_applied_ += static_cast<int64_t>(total);
  if (total == 0) {
    return;
  }
  // Group events by (query, family) with a stable counting sort, then apply
  // each bucket in one go: both member vectors of a query are loaded into
  // cache exactly once instead of once per event. Any fixed application
  // order yields the same final state -- member sets are sorted id sets, and
  // the sym_diff update below maintains its invariant exactly at every step
  // -- so regrouping preserves bitwise output; the sort must merely be
  // deterministic, which counting sort over deterministic inputs is.
  // The (query, family) key is simply tag >> 1.
  const size_t num_keys = queries_.size() * 2;
  event_starts_.assign(num_keys + 1, 0);
  for (const WorkerScratch& ws : scratch) {
    for (const MemberEvent& ev : ws.events) {
      ++event_starts_[(ev.tag >> 1) + 1];
    }
  }
  for (size_t k = 0; k < num_keys; ++k) {
    event_starts_[k + 1] += event_starts_[k];
  }
  sorted_events_.resize(total);
  // Scattering with event_starts_[key]++ leaves event_starts_[key] holding
  // the END of bucket `key` (the classic in-place counting-sort shift).
  for (const WorkerScratch& ws : scratch) {
    for (const MemberEvent& ev : ws.events) {
      sorted_events_[event_starts_[ev.tag >> 1]++] = ev;
    }
  }
  // The sym_diff update needs in_other, the other family's membership of
  // the event's node at application time. It is answered geometrically: at
  // this point both families' columns hold the sample's final clamped
  // positions, and `present && Contains(pos)` equals list membership at all
  // times (walked nodes were classified by this very test -- the kernel sign
  // encoding and the full-coverage guarantee are both exact -- and a skipped
  // node's safe box certifies that no membership flipped, so the stale
  // membership still agrees with the fresh position). The one wrinkle
  // is membership *when*: the chosen logical order applies, per (query,
  // node), the believed event before the truth event. So truth events see
  // the believed columns as-is (final state), while believed events must
  // un-flip the truth test when this sample also carries a truth event for
  // the same (query, node) -- detected by streaming the adjacent truth
  // bucket, which shares the ascending node order.
  const NodeColumns& tc = cols_[kTruth];
  const NodeColumns& bc = cols_[kBelieved];
  for (size_t key = 0; key < num_keys; ++key) {
    const uint32_t begin = key == 0 ? 0 : event_starts_[key - 1];
    const uint32_t end = event_starts_[key];
    if (begin == end) {
      continue;
    }
    const auto query = static_cast<QueryId>(key / 2);
    // The bucket is already ascending by node, the one canonical order the
    // merge below and the bitwise contract rely on: walks run in ascending
    // id within each static chunk, chunks are contiguous and ascending and
    // their buffers are read in chunk order, and the counting sort is
    // stable. A node walks at most once per family per sample, so the ids
    // are unique within a bucket.
    const Rect range = queries_[query];
    int32_t sym = sym_diff_[query];
    if (key % 2 == static_cast<size_t>(kTruth)) {
      // Truth member sets are consumed only as a size (Evaluate) and as the
      // geometric membership test above, so no list exists to rebuild --
      // truth events just bump the counter. This halves the bandwidth of
      // the whole ApplyEvents pass, which is dominated by member-vector
      // rebuild traffic.
      int32_t count = truth_size_[query];
      for (uint32_t i = begin; i < end; ++i) {
        const MemberEvent& ev = sorted_events_[i];
        LIRA_DCHECK(i == begin || sorted_events_[i - 1].node < ev.node);
        const NodeId v = ev.node;
        const bool in_other =
            bc.present[v] != 0 &&
            range.Contains(Point{bc.pos_x[v], bc.pos_y[v]});
        if ((ev.tag & 1) != 0) {
          ++count;
          sym += in_other ? -1 : 1;
        } else {
          --count;
          sym += in_other ? 1 : -1;
        }
      }
      LIRA_DCHECK(count >= 0);
      truth_size_[query] = count;
    } else {
      // The bucket holds at most one event per node, ascending (above).
      // Rebuilding the sorted believed member vector with one linear merge
      // is O(members + events) for the whole bucket, where per-event
      // lower_bound + insert would memmove O(members) each time; same final
      // set, so bitwise output is unaffected. The unchanged runs between
      // event positions move as bulk memmoves, and the ascending event
      // order lets every search resume from the previous position. (A
      // deferred-overlay variant -- pending ops folded in lazily -- was
      // tried and lost: the rebuild is memcpy-bound and cheap, while the
      // overlay taxed every Evaluate with a second merge stream.)
      std::vector<NodeId>& mine = believed_members_[query];
      // This query's truth bucket (key - 1): one resuming pointer detects
      // same-node truth events for the in_other un-flip.
      const uint32_t t_begin = key == 1 ? 0 : event_starts_[key - 2];
      const uint32_t t_end = event_starts_[key - 1];
      uint32_t ti = t_begin;
      merge_buf_.clear();
      merge_buf_.reserve(mine.size() + (end - begin));
      size_t m = 0;
      for (uint32_t i = begin; i < end; ++i) {
        const MemberEvent& ev = sorted_events_[i];
        LIRA_DCHECK(i == begin || sorted_events_[i - 1].node < ev.node);
        const NodeId v = ev.node;
        const auto pos = static_cast<size_t>(
            std::lower_bound(mine.begin() + static_cast<ptrdiff_t>(m),
                             mine.end(), v) -
            mine.begin());
        merge_buf_.insert(merge_buf_.end(),
                          mine.begin() + static_cast<ptrdiff_t>(m),
                          mine.begin() + static_cast<ptrdiff_t>(pos));
        m = pos;
        while (ti < t_end && sorted_events_[ti].node < v) {
          ++ti;
        }
        const bool truth_flipped = ti < t_end && sorted_events_[ti].node == v;
        const bool truth_now =
            tc.present[v] != 0 &&
            range.Contains(Point{tc.pos_x[v], tc.pos_y[v]});
        const bool in_other = truth_now != truth_flipped;
        if ((ev.tag & 1) != 0) {
          LIRA_DCHECK(m == mine.size() || mine[m] != v);
          merge_buf_.push_back(v);
          sym += in_other ? -1 : 1;
        } else {
          LIRA_DCHECK(m < mine.size() && mine[m] == v);
          ++m;  // removed
          sym += in_other ? 1 : -1;
        }
      }
      merge_buf_.insert(merge_buf_.end(),
                        mine.begin() + static_cast<ptrdiff_t>(m), mine.end());
      mine.swap(merge_buf_);
    }
    sym_diff_[query] = sym;
  }
#ifndef NDEBUG
  // A query's sym_diff may transiently dip below zero after its truth
  // bucket alone (the physical bucket order differs from the logical
  // per-node order the deltas were computed for), but once both buckets are
  // in, every counter must again be a valid |truth SYMDIFF believed|.
  for (size_t q = 0; q < queries_.size(); ++q) {
    LIRA_DCHECK(sym_diff_[q] >= 0);
  }
#endif
}

void IncrementalEvaluator::ApplySample(const double* truth_x,
                                       const double* truth_y,
                                       const double* believed_x,
                                       const double* believed_y,
                                       const uint8_t* believed_known,
                                       ThreadPool* pool) {
  if (mode_ == EvalMode::kFullRescan) {
    // The original serial snapshot maintenance, verbatim.
    for (NodeId id = 0; id < num_nodes_; ++id) {
      truth_index_->Update(id, Point{truth_x[id], truth_y[id]});
      if (believed_known[id] != 0) {
        believed_index_->Update(id, Point{believed_x[id], believed_y[id]});
      } else {
        believed_index_->Remove(id);
      }
    }
    return;
  }
  sample_seen_ = true;
  const int32_t workers =
      (pool == nullptr || pool->num_threads() <= 1) ? 1 : pool->num_threads();
  if (static_cast<int32_t>(scratch_.size()) < workers) {
    scratch_.resize(workers);
  }
  for (WorkerScratch& ws : scratch_) {
    ws.events.clear();
    ws.touched = 0;
  }
  if (workers == 1) {
    ProcessChunk(0, num_nodes_, truth_x, truth_y, believed_x, believed_y,
                 believed_known, &scratch_[0]);
  } else {
    // Parallel phase: per-node column slots and per-worker buffers only.
    // Chunks are contiguous ascending, so applying buffers in chunk order
    // afterwards replays the events in ascending node order for any thread
    // count.
    pool->ParallelFor(0, num_nodes_, kNodeGrain,
                      [&](int32_t chunk, int64_t begin, int64_t end) {
                        ProcessChunk(begin, end, truth_x, truth_y, believed_x,
                                     believed_y, believed_known,
                                     &scratch_[chunk]);
                      });
  }
  ApplyEvents(scratch_);
}

void IncrementalEvaluator::ApplySample(
    const std::vector<Point>& truth_positions,
    const std::vector<Point>& believed_positions,
    const std::vector<char>& believed_known, ThreadPool* pool) {
  LIRA_CHECK(static_cast<int32_t>(truth_positions.size()) == num_nodes_);
  LIRA_CHECK(static_cast<int32_t>(believed_positions.size()) == num_nodes_);
  LIRA_CHECK(static_cast<int32_t>(believed_known.size()) == num_nodes_);
  stage_tx_.resize(num_nodes_);
  stage_ty_.resize(num_nodes_);
  stage_bx_.resize(num_nodes_);
  stage_by_.resize(num_nodes_);
  for (int32_t i = 0; i < num_nodes_; ++i) {
    stage_tx_[i] = truth_positions[i].x;
    stage_ty_[i] = truth_positions[i].y;
    stage_bx_[i] = believed_positions[i].x;
    stage_by_[i] = believed_positions[i].y;
  }
  ApplySample(stage_tx_.data(), stage_ty_.data(), stage_bx_.data(),
              stage_by_.data(),
              reinterpret_cast<const uint8_t*>(believed_known.data()), pool);
}

std::vector<QueryAccuracy> IncrementalEvaluator::Evaluate(ThreadPool* pool) {
  std::vector<QueryAccuracy> out(queries_.size());
  if (mode_ == EvalMode::kFullRescan) {
    const auto eval_one = [&](QueryId q, QueryEvalScratch* scratch) {
      if (active_[q] != 0) {
        out[q] = CompareQuery(*truth_index_, *believed_index_, queries_[q],
                              scratch);
      }
    };
    if (pool == nullptr || pool->num_threads() <= 1) {
      QueryEvalScratch scratch;
      for (QueryId q = 0; q < num_queries(); ++q) {
        eval_one(q, &scratch);
      }
      return out;
    }
    std::vector<QueryEvalScratch> scratch(pool->num_threads());
    pool->ParallelFor(0, num_queries(), /*grain=*/1,
                      [&](int32_t chunk, int64_t begin, int64_t end) {
                        for (int64_t q = begin; q < end; ++q) {
                          eval_one(static_cast<QueryId>(q), &scratch[chunk]);
                        }
                      });
    return out;
  }
  // Position-error sums are latency-bound: each query's ascending-id
  // summation (the order CompareQuery fixes, which the bitwise contract
  // pins) is one serial FP-add dependency chain. Interleaving two queries'
  // sums keeps two independent chains in flight, nearly doubling
  // throughput, while every individual query still accumulates its own
  // terms in exactly the contractual order -- the pairing changes which
  // instructions neighbour each other, not any query's arithmetic.
  const auto sum_pair = [&](QueryId qa, QueryId qb) {
    const std::vector<NodeId>& a = believed_members_[qa];
    const std::vector<NodeId>& b = believed_members_[qb];
    const size_t shared = std::min(a.size(), b.size());
    double ta = 0.0;
    double tb = 0.0;
    for (size_t i = 0; i < shared; ++i) {
      ta += node_distance_[a[i]];
      tb += node_distance_[b[i]];
    }
    for (size_t i = shared; i < a.size(); ++i) {
      ta += node_distance_[a[i]];
    }
    for (size_t i = shared; i < b.size(); ++i) {
      tb += node_distance_[b[i]];
    }
    out[qa].position_error = ta / static_cast<double>(a.size());
    out[qb].position_error = tb / static_cast<double>(b.size());
  };
  const auto eval_range = [&](int64_t begin, int64_t end) {
    QueryId pending = -1;
    for (int64_t i = begin; i < end; ++i) {
      const auto q = static_cast<QueryId>(i);
      if (active_[q] == 0) {
        continue;
      }
      const std::vector<NodeId>& believed = believed_members_[q];
      QueryAccuracy acc;
      acc.truth_size = truth_size_[q];
      acc.believed_size = static_cast<int32_t>(believed.size());
      acc.containment_error =
          static_cast<double>(sym_diff_[q]) /
          static_cast<double>(std::max<int32_t>(1, acc.truth_size));
      out[q] = acc;
      if (believed.empty()) {
        continue;
      }
      if (pending < 0) {
        pending = q;
      } else {
        sum_pair(pending, q);
        pending = -1;
      }
    }
    if (pending >= 0) {
      const std::vector<NodeId>& a = believed_members_[pending];
      double total = 0.0;
      for (const NodeId id : a) {
        total += node_distance_[id];
      }
      out[pending].position_error = total / static_cast<double>(a.size());
    }
  };
  if (pool == nullptr || pool->num_threads() <= 1) {
    eval_range(0, num_queries());
    return out;
  }
  pool->ParallelFor(0, num_queries(), /*grain=*/1,
                    [&](int32_t /*chunk*/, int64_t begin, int64_t end) {
                      eval_range(begin, end);
                    });
  return out;
}

}  // namespace lira
