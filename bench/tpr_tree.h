// A TPR-tree: time-parameterized R-tree over moving points (Saltenis,
// Jensen, Leutenegger, Lopez, SIGMOD 2000 -- the paper's reference [15]).
//
// The paper positions LIRA as complementary to update-efficient moving-
// object indexes "such as the TPR-tree". The CQ server answers range
// queries from a per-tick snapshot grid instead (server/snapshot_grid.h);
// this tree answers directly from the motion models, without a rebuild per
// evaluation, and is the baseline bench_ext_index measures that grid
// against (and checks it for mismatches).
//
// Entries are linear motion models. A node's bounding box is time-
// parameterized: a rectangle at the node's reference time plus velocity
// bounds per side, so the box at time t is
//
//   [min_x + min_vx * (t - t_ref),  max_x + max_vx * (t - t_ref)] x (same in y)
//
// which conservatively contains every child for all t >= t_ref. Queries at
// time t expand boxes to t and prune as in an R-tree. Updates are
// delete + reinsert, located through a direct id -> leaf map. Subtree
// choice and node splits minimize the box area at a configurable horizon
// midpoint, the standard TPR-tree heuristic.

#ifndef LIRA_BENCH_TPR_TREE_H_
#define LIRA_BENCH_TPR_TREE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "lira/common/geometry.h"
#include "lira/common/status.h"
#include "lira/mobility/position.h"
#include "lira/motion/linear_model.h"

namespace lira {

struct TprTreeOptions {
  /// Maximum entries per node (fan-out). Minimum is max_entries / 2.
  int32_t max_entries = 16;
  /// Lookahead horizon H (seconds): structure decisions minimize the
  /// time-parameterized area at t_ref + horizon / 2.
  double horizon = 60.0;
};

/// Time-parameterized bounding rectangle.
struct Tpbr {
  double t_ref = 0.0;
  double min_x = 0.0, min_y = 0.0, max_x = 0.0, max_y = 0.0;
  double min_vx = 0.0, min_vy = 0.0, max_vx = 0.0, max_vy = 0.0;

  /// Box extrapolated to time t (valid for t >= t_ref; earlier times are
  /// clamped to the reference box, keeping the bound conservative for the
  /// tree's use where t_ref <= all query times of interest).
  Rect AtTime(double t) const;

  /// The TPBR of a single motion model.
  static Tpbr ForModel(const LinearMotionModel& model);

  /// Smallest TPBR covering both inputs, anchored at max(t_ref) (valid for
  /// all t >= max(t_ref); queries in this library never look at earlier
  /// times).
  static Tpbr Union(const Tpbr& a, const Tpbr& b);

  /// Re-anchors the TPBR to a later reference time.
  Tpbr RebasedTo(double t) const;

  /// Area of AtTime(t).
  double AreaAt(double t) const;
};

/// Moving-object index over linear motion models.
class TprTree {
 public:
  static StatusOr<TprTree> Create(const TprTreeOptions& options = {});
  TprTree(TprTree&&) = default;
  TprTree& operator=(TprTree&&) = default;

  /// Inserts or replaces the motion model of `id`.
  void Update(NodeId id, const LinearMotionModel& model);

  /// Removes `id` if present; returns whether it was present.
  bool Remove(NodeId id);

  bool Contains(NodeId id) const { return LeafOf(id) != nullptr; }
  int32_t size() const { return size_; }

  /// Ids whose predicted position at time `t` lies inside `range`.
  /// Requires t >= every indexed model's t0 for exact results (earlier
  /// times still return a superset-free answer because each candidate is
  /// verified against its exact model).
  std::vector<NodeId> QueryAt(const Rect& range, double t) const;

  /// The exact current model of an indexed object.
  StatusOr<LinearMotionModel> ModelOf(NodeId id) const;

  /// Structural invariants: parent boxes contain children at reference and
  /// horizon times, entry counts within bounds, id map consistent. For
  /// tests.
  Status CheckInvariants() const;

  /// Tree height (1 = root is a leaf); for tests and diagnostics.
  int32_t Height() const;

 private:
  struct Node;
  struct Entry {
    Tpbr box;
    // Exactly one of the two below is meaningful: child for internal nodes,
    // (id, model) for leaves.
    std::unique_ptr<Node> child;
    NodeId id = kInvalidNode;
    LinearMotionModel model;
  };
  struct Node {
    bool leaf = true;
    Node* parent = nullptr;
    std::vector<Entry> entries;
  };

  explicit TprTree(const TprTreeOptions& options) : options_(options) {}

  int32_t MinEntries() const { return options_.max_entries / 2; }
  double HorizonMid(double t_ref) const {
    return t_ref + options_.horizon / 2.0;
  }

  /// Leaf currently holding `id`, or nullptr when the id is not indexed.
  Node* LeafOf(NodeId id) const {
    return id >= 0 && static_cast<size_t>(id) < leaf_of_.size()
               ? leaf_of_[id]
               : nullptr;
  }
  /// Grows the slot map to cover `id` and points its slot at `leaf`,
  /// maintaining the live count.
  void SetLeaf(NodeId id, Node* leaf) {
    if (static_cast<size_t>(id) >= leaf_of_.size()) {
      leaf_of_.resize(static_cast<size_t>(id) + 1, nullptr);
    }
    if (leaf_of_[id] == nullptr) {
      ++size_;
    }
    leaf_of_[id] = leaf;
  }

  Node* ChooseLeaf(const Tpbr& box);
  void InsertEntry(Node* node, Entry entry);
  void SplitNode(Node* node);
  void AdjustUpwards(Node* node);
  Tpbr NodeBox(const Node* node) const;
  void CondenseAfterRemove(Node* leaf);
  void ReinsertSubtree(Node* node);
  Status CheckNode(const Node* node, const Node* expected_parent) const;

  TprTreeOptions options_;
  std::unique_ptr<Node> root_;
  /// Flat id -> leaf slot map (ISSUE 8): node ids are dense small integers,
  /// so a vector indexed by id replaces the old unordered_map on the
  /// delete + reinsert hot path -- no hashing, one predictable load.
  /// nullptr marks an unindexed id; size_ counts live slots.
  std::vector<Node*> leaf_of_;
  int32_t size_ = 0;
};

}  // namespace lira

#endif  // LIRA_BENCH_TPR_TREE_H_
