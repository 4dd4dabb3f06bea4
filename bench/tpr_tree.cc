#include "bench/tpr_tree.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "lira/common/check.h"

namespace lira {

Rect Tpbr::AtTime(double t) const {
  const double dt = std::max(0.0, t - t_ref);
  return Rect{min_x + min_vx * dt, min_y + min_vy * dt, max_x + max_vx * dt,
              max_y + max_vy * dt};
}

Tpbr Tpbr::ForModel(const LinearMotionModel& model) {
  Tpbr box;
  box.t_ref = model.t0;
  box.min_x = box.max_x = model.origin.x;
  box.min_y = box.max_y = model.origin.y;
  box.min_vx = box.max_vx = model.velocity.x;
  box.min_vy = box.max_vy = model.velocity.y;
  return box;
}

Tpbr Tpbr::RebasedTo(double t) const {
  LIRA_DCHECK(t >= t_ref);
  Tpbr out = *this;
  const Rect at = AtTime(t);
  out.t_ref = t;
  out.min_x = at.min_x;
  out.min_y = at.min_y;
  out.max_x = at.max_x;
  out.max_y = at.max_y;
  return out;
}

Tpbr Tpbr::Union(const Tpbr& a, const Tpbr& b) {
  // Anchor at the later reference time; the result is valid for all
  // t >= max(t_ref). Query times in this library are always >= every
  // indexed model's reference time.
  const double t = std::max(a.t_ref, b.t_ref);
  const Tpbr ra = a.RebasedTo(t);
  const Tpbr rb = b.RebasedTo(t);
  Tpbr out;
  out.t_ref = t;
  out.min_x = std::min(ra.min_x, rb.min_x);
  out.min_y = std::min(ra.min_y, rb.min_y);
  out.max_x = std::max(ra.max_x, rb.max_x);
  out.max_y = std::max(ra.max_y, rb.max_y);
  out.min_vx = std::min(ra.min_vx, rb.min_vx);
  out.min_vy = std::min(ra.min_vy, rb.min_vy);
  out.max_vx = std::max(ra.max_vx, rb.max_vx);
  out.max_vy = std::max(ra.max_vy, rb.max_vy);
  return out;
}

double Tpbr::AreaAt(double t) const { return AtTime(t).Area(); }

StatusOr<TprTree> TprTree::Create(const TprTreeOptions& options) {
  if (options.max_entries < 4) {
    return InvalidArgumentError("max_entries must be >= 4");
  }
  if (options.horizon <= 0.0) {
    return InvalidArgumentError("horizon must be positive");
  }
  TprTree tree(options);
  tree.root_ = std::make_unique<Node>();
  return tree;
}

Tpbr TprTree::NodeBox(const Node* node) const {
  LIRA_CHECK(!node->entries.empty());
  Tpbr box = node->entries[0].box;
  for (size_t i = 1; i < node->entries.size(); ++i) {
    box = Tpbr::Union(box, node->entries[i].box);
  }
  return box;
}

TprTree::Node* TprTree::ChooseLeaf(const Tpbr& box) {
  Node* node = root_.get();
  while (!node->leaf) {
    Entry* best = nullptr;
    double best_enlargement = 0.0;
    double best_area = 0.0;
    for (Entry& entry : node->entries) {
      const double t = HorizonMid(std::max(entry.box.t_ref, box.t_ref));
      const double area = entry.box.AreaAt(t);
      const double enlarged = Tpbr::Union(entry.box, box).AreaAt(t);
      const double enlargement = enlarged - area;
      if (best == nullptr || enlargement < best_enlargement ||
          (enlargement == best_enlargement && area < best_area)) {
        best = &entry;
        best_enlargement = enlargement;
        best_area = area;
      }
    }
    node = best->child.get();
  }
  return node;
}

void TprTree::AdjustUpwards(Node* node) {
  while (node->parent != nullptr) {
    Node* parent = node->parent;
    for (Entry& entry : parent->entries) {
      if (entry.child.get() == node) {
        entry.box = NodeBox(node);
        break;
      }
    }
    node = parent;
  }
}

void TprTree::SplitNode(Node* node) {
  // Axis-sort split: order entries by their box center (at the horizon
  // midpoint) along the axis with the larger spread, then cut in half.
  double min_t = node->entries[0].box.t_ref;
  for (const Entry& entry : node->entries) {
    min_t = std::min(min_t, entry.box.t_ref);
  }
  const double t = HorizonMid(min_t);
  auto center = [&](const Entry& e, int axis) {
    const Rect r = e.box.AtTime(t);
    return axis == 0 ? (r.min_x + r.max_x) / 2 : (r.min_y + r.max_y) / 2;
  };
  double lo[2] = {1e300, 1e300};
  double hi[2] = {-1e300, -1e300};
  for (const Entry& entry : node->entries) {
    for (int axis = 0; axis < 2; ++axis) {
      lo[axis] = std::min(lo[axis], center(entry, axis));
      hi[axis] = std::max(hi[axis], center(entry, axis));
    }
  }
  const int axis = (hi[0] - lo[0] >= hi[1] - lo[1]) ? 0 : 1;
  std::sort(node->entries.begin(), node->entries.end(),
            [&](const Entry& a, const Entry& b) {
              return center(a, axis) < center(b, axis);
            });

  auto sibling = std::make_unique<Node>();
  sibling->leaf = node->leaf;
  const size_t half = node->entries.size() / 2;
  for (size_t i = half; i < node->entries.size(); ++i) {
    sibling->entries.push_back(std::move(node->entries[i]));
  }
  node->entries.resize(half);
  // Re-home moved entries.
  for (Entry& entry : sibling->entries) {
    if (sibling->leaf) {
      SetLeaf(entry.id, sibling.get());
    } else {
      entry.child->parent = sibling.get();
    }
  }

  if (node->parent == nullptr) {
    // Grow a new root.
    auto new_root = std::make_unique<Node>();
    new_root->leaf = false;
    Entry left;
    left.box = NodeBox(node);
    left.child = std::move(root_);
    Entry right;
    right.box = NodeBox(sibling.get());
    right.child = std::move(sibling);
    left.child->parent = new_root.get();
    right.child->parent = new_root.get();
    new_root->entries.push_back(std::move(left));
    new_root->entries.push_back(std::move(right));
    root_ = std::move(new_root);
    return;
  }

  Node* parent = node->parent;
  for (Entry& entry : parent->entries) {
    if (entry.child.get() == node) {
      entry.box = NodeBox(node);
      break;
    }
  }
  Entry new_entry;
  new_entry.box = NodeBox(sibling.get());
  sibling->parent = parent;
  new_entry.child = std::move(sibling);
  parent->entries.push_back(std::move(new_entry));
}

void TprTree::InsertEntry(Node* leaf, Entry entry) {
  LIRA_DCHECK(leaf->leaf);
  const NodeId id = entry.id;
  SetLeaf(id, leaf);  // splits below re-home moved entries
  leaf->entries.push_back(std::move(entry));
  Node* node = leaf;
  while (node != nullptr &&
         static_cast<int32_t>(node->entries.size()) > options_.max_entries) {
    Node* parent = node->parent;
    SplitNode(node);  // may grow a new root when parent == nullptr
    node = parent;
  }
  // Refresh ancestor boxes along the entry's (possibly new) leaf path.
  AdjustUpwards(LeafOf(id));
}

void TprTree::Update(NodeId id, const LinearMotionModel& model) {
  // Update-in-place fast path: when the object is already indexed and its
  // new motion model stays inside its leaf's current box over the decision
  // horizon, replace the entry and widen ancestor boxes -- no structural
  // delete + reinsert. Dead-reckoning updates are small corrections, so
  // this is the common case.
  const Tpbr new_box = Tpbr::ForModel(model);
  if (Node* leaf = LeafOf(id); leaf != nullptr) {
    bool contained = false;
    if (leaf->entries.size() > 1) {
      Tpbr others = Tpbr::ForModel(model);  // placeholder; rebuilt below
      bool first = true;
      for (const Entry& entry : leaf->entries) {
        if (entry.id == id) {
          continue;
        }
        others = first ? entry.box : Tpbr::Union(others, entry.box);
        first = false;
      }
      const Tpbr combined = Tpbr::Union(others, new_box);
      const Tpbr current = NodeBox(leaf);
      // Accept when the leaf box does not grow (at reference and horizon).
      contained = true;
      for (double offset : {0.0, options_.horizon}) {
        const double t = std::max(combined.t_ref, current.t_ref) + offset;
        const Rect grown = combined.AtTime(t);
        const Rect now = current.AtTime(t);
        if (grown.min_x < now.min_x || grown.min_y < now.min_y ||
            grown.max_x > now.max_x || grown.max_y > now.max_y) {
          contained = false;
          break;
        }
      }
    }
    if (contained) {
      for (Entry& entry : leaf->entries) {
        if (entry.id == id) {
          entry.box = new_box;
          entry.model = model;
          break;
        }
      }
      AdjustUpwards(leaf);
      return;
    }
    Remove(id);
  }
  Entry entry;
  entry.box = new_box;
  entry.id = id;
  entry.model = model;
  Node* leaf = ChooseLeaf(entry.box);
  InsertEntry(leaf, std::move(entry));
}

void TprTree::ReinsertSubtree(Node* node) {
  if (node->leaf) {
    for (Entry& entry : node->entries) {
      Entry fresh;
      fresh.box = entry.box;
      fresh.id = entry.id;
      fresh.model = entry.model;
      Node* leaf = ChooseLeaf(fresh.box);
      InsertEntry(leaf, std::move(fresh));
    }
    return;
  }
  for (Entry& entry : node->entries) {
    ReinsertSubtree(entry.child.get());
  }
}

void TprTree::CondenseAfterRemove(Node* leaf) {
  Node* node = leaf;
  std::vector<std::unique_ptr<Node>> orphans;
  while (node->parent != nullptr &&
         static_cast<int32_t>(node->entries.size()) < MinEntries()) {
    Node* parent = node->parent;
    for (size_t i = 0; i < parent->entries.size(); ++i) {
      if (parent->entries[i].child.get() == node) {
        orphans.push_back(std::move(parent->entries[i].child));
        parent->entries.erase(parent->entries.begin() + i);
        break;
      }
    }
    node = parent;
  }
  if (!node->entries.empty()) {
    AdjustUpwards(node);
  }
  // Shrink the root while it is an internal node with a single child.
  while (!root_->leaf && root_->entries.size() == 1) {
    std::unique_ptr<Node> child = std::move(root_->entries[0].child);
    child->parent = nullptr;
    root_ = std::move(child);
  }
  if (!root_->leaf && root_->entries.empty()) {
    root_ = std::make_unique<Node>();  // fully drained
  }
  for (auto& orphan : orphans) {
    ReinsertSubtree(orphan.get());
  }
}

bool TprTree::Remove(NodeId id) {
  Node* leaf = LeafOf(id);
  if (leaf == nullptr) {
    return false;
  }
  for (size_t i = 0; i < leaf->entries.size(); ++i) {
    if (leaf->entries[i].id == id) {
      leaf->entries.erase(leaf->entries.begin() + i);
      break;
    }
  }
  leaf_of_[id] = nullptr;
  --size_;
  if (!leaf->entries.empty()) {
    AdjustUpwards(leaf);
  }
  CondenseAfterRemove(leaf);
  return true;
}

std::vector<NodeId> TprTree::QueryAt(const Rect& range, double t) const {
  std::vector<NodeId> out;
  if (size_ == 0) {
    return out;
  }
  std::vector<const Node*> stack = {root_.get()};
  while (!stack.empty()) {
    const Node* node = stack.back();
    stack.pop_back();
    for (const Entry& entry : node->entries) {
      if (node->leaf) {
        // No box prune at the leaf: the entry's TPBR is a degenerate point
        // rectangle, and the open-interval Intersects test would reject
        // points lying exactly on the (closed) query min edge. The exact
        // model test below is just as cheap.
        if (range.Contains(entry.model.PredictAt(t))) {
          out.push_back(entry.id);
        }
      } else if (entry.box.AtTime(t).IntersectsClosed(range)) {
        // Closed-interval prune: internal boxes can be degenerate (e.g. a
        // subtree of stationary nodes on one road line) and must still
        // match queries whose edge touches them.
        stack.push_back(entry.child.get());
      }
    }
  }
  return out;
}

StatusOr<LinearMotionModel> TprTree::ModelOf(NodeId id) const {
  const Node* leaf = LeafOf(id);
  if (leaf == nullptr) {
    return NotFoundError("id not indexed: " + std::to_string(id));
  }
  for (const Entry& entry : leaf->entries) {
    if (entry.id == id) {
      return entry.model;
    }
  }
  return InternalError("leaf map points to a node without the entry");
}

int32_t TprTree::Height() const {
  int32_t height = 1;
  const Node* node = root_.get();
  while (!node->leaf) {
    LIRA_CHECK(!node->entries.empty());
    node = node->entries[0].child.get();
    ++height;
  }
  return height;
}

Status TprTree::CheckNode(const Node* node, const Node* expected_parent) const {
  if (node->parent != expected_parent) {
    return InternalError("parent pointer mismatch");
  }
  if (node != root_.get() &&
      static_cast<int32_t>(node->entries.size()) < MinEntries()) {
    return InternalError("node underflow");
  }
  if (static_cast<int32_t>(node->entries.size()) > options_.max_entries) {
    return InternalError("node overflow");
  }
  for (const Entry& entry : node->entries) {
    if (node->leaf) {
      if (LeafOf(entry.id) != node) {
        return InternalError("leaf map inconsistent");
      }
    } else {
      // Containment of the child's box at several probe times.
      const Tpbr child_box = NodeBox(entry.child.get());
      for (double offset : {0.0, options_.horizon / 2, options_.horizon}) {
        const double t = std::max(entry.box.t_ref, child_box.t_ref) + offset;
        const Rect parent_rect = entry.box.AtTime(t);
        const Rect child_rect = child_box.AtTime(t);
        const double tol = 1e-6 * (1.0 + std::abs(parent_rect.max_x));
        if (child_rect.min_x < parent_rect.min_x - tol ||
            child_rect.min_y < parent_rect.min_y - tol ||
            child_rect.max_x > parent_rect.max_x + tol ||
            child_rect.max_y > parent_rect.max_y + tol) {
          return InternalError("parent box does not contain child box");
        }
      }
      LIRA_RETURN_IF_ERROR(CheckNode(entry.child.get(), node));
    }
  }
  return OkStatus();
}

Status TprTree::CheckInvariants() const {
  if (root_ == nullptr) {
    return InternalError("missing root");
  }
  LIRA_RETURN_IF_ERROR(CheckNode(root_.get(), nullptr));
  // Every mapped id must be reachable, and the live count must match the
  // occupied slots.
  int32_t live = 0;
  for (NodeId id = 0; id < static_cast<NodeId>(leaf_of_.size()); ++id) {
    const Node* leaf = leaf_of_[id];
    if (leaf == nullptr) {
      continue;
    }
    ++live;
    bool found = false;
    for (const Entry& entry : leaf->entries) {
      found = found || entry.id == id;
    }
    if (!found) {
      return InternalError("mapped id missing from its leaf");
    }
  }
  if (live != size_) {
    return InternalError("leaf map live count drifted");
  }
  return OkStatus();
}

}  // namespace lira
