// SceneTree: the shared hierarchical dataset held by the data service and
// mirrored (fully or as a subset) by every render service. Node ids are
// stable across the distributed system — the data service allocates them,
// updates reference them, and subset extraction preserves them.
#pragma once

#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "scene/node.hpp"
#include "util/result.hpp"

namespace rave::scene {

class SceneTree {
 public:
  // A tree always has a Group root with id kRootNode.
  SceneTree();

  SceneTree(const SceneTree&) = default;
  SceneTree& operator=(const SceneTree&) = default;
  SceneTree(SceneTree&&) = default;
  SceneTree& operator=(SceneTree&&) = default;

  // Id allocation (data-service side; replicas receive ids via updates).
  NodeId allocate_id() { return next_id_++; }

  // Insert `node` (which must carry a fresh id) under `parent`.
  util::Status add_node(NodeId parent, SceneNode node);

  // Convenience: allocate an id, build and insert, return the id.
  NodeId add_child(NodeId parent, std::string name, NodePayload payload = std::monostate{},
                   const Mat4& transform = Mat4::identity());

  // Remove a node and its entire subtree. Removing the root is refused.
  util::Status remove_node(NodeId id);

  // Move a subtree under a new parent; refuses cycles.
  util::Status reparent(NodeId id, NodeId new_parent);

  // Each mutator below, and add_node, renews the touched node's stamp.
  util::Status set_transform(NodeId id, const Mat4& transform);
  util::Status set_payload(NodeId id, NodePayload payload);
  util::Status set_name(NodeId id, std::string name);

  [[nodiscard]] bool contains(NodeId id) const { return nodes_.count(id) != 0; }
  [[nodiscard]] const SceneNode* find(NodeId id) const;
  // Renews the node's stamp (node.hpp): mutate through the pointer before
  // the tree is next read.
  [[nodiscard]] SceneNode* find_mutable(NodeId id);
  [[nodiscard]] NodeId find_by_name(const std::string& name) const;

  [[nodiscard]] size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] const SceneNode& root() const { return nodes_.at(kRootNode); }

  // Composite transform from the root down to (and including) `id`.
  [[nodiscard]] Mat4 world_transform(NodeId id) const;

  // Depth-first visit of the subtree at `start` with accumulated world
  // transforms.
  void traverse(const std::function<void(const SceneNode&, const Mat4& world)>& visit,
                NodeId start = kRootNode) const;

  // All node ids in depth-first order (stable across replicas, since child
  // order is preserved by updates).
  [[nodiscard]] std::vector<NodeId> ids_depth_first(NodeId start = kRootNode) const;

  // Ids of all nodes in the subtree rooted at each of `roots`, de-duplicated.
  [[nodiscard]] std::vector<NodeId> subtree_ids(const std::vector<NodeId>& roots) const;

  // Extract a subset tree containing `ids` plus every ancestor needed "to
  // orientate the scene subset in the world" (paper §3.2.5). Payloads of
  // ancestor nodes not in `ids` are stripped to empty groups.
  [[nodiscard]] SceneTree subset(const std::vector<NodeId>& ids) const;

  // Aggregate demand metrics over the subtree at `start`.
  [[nodiscard]] NodeMetrics total_metrics(NodeId start = kRootNode) const;

  // World-space bounds of the whole tree.
  [[nodiscard]] Aabb world_bounds() const;

  // Ids of leaf (payload-carrying) nodes, the unit of dataset distribution.
  [[nodiscard]] std::vector<NodeId> payload_node_ids() const;

  // Replicas must allocate above the ids they have seen.
  void bump_next_id(NodeId seen) {
    if (seen >= next_id_) next_id_ = seen + 1;
  }
  [[nodiscard]] NodeId peek_next_id() const { return next_id_; }

 private:
  void collect_subtree(NodeId id, std::vector<NodeId>& out) const;

  std::unordered_map<NodeId, SceneNode> nodes_;
  NodeId next_id_ = kRootNode + 1;
};

}  // namespace rave::scene
