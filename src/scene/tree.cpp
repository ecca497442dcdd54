#include "scene/tree.hpp"

#include <algorithm>
#include <unordered_set>

namespace rave::scene {

using util::make_error;
using util::Status;

SceneTree::SceneTree() {
  SceneNode root;
  root.id = kRootNode;
  root.name = "root";
  root.stamp = next_node_stamp();
  nodes_.emplace(kRootNode, std::move(root));
}

Status SceneTree::add_node(NodeId parent, SceneNode node) {
  if (node.id == kInvalidNode) return make_error("add_node: node has no id");
  if (nodes_.count(node.id) != 0) return make_error("add_node: duplicate node id");
  auto parent_it = nodes_.find(parent);
  if (parent_it == nodes_.end()) return make_error("add_node: unknown parent");
  node.parent = parent;
  node.children.clear();
  node.stamp = next_node_stamp();
  parent_it->second.children.push_back(node.id);
  bump_next_id(node.id);
  nodes_.emplace(node.id, std::move(node));
  return {};
}

NodeId SceneTree::add_child(NodeId parent, std::string name, NodePayload payload,
                            const Mat4& transform) {
  SceneNode node;
  node.id = allocate_id();
  node.name = std::move(name);
  node.payload = std::move(payload);
  node.transform = transform;
  const NodeId id = node.id;
  const Status st = add_node(parent, std::move(node));
  return st.ok() ? id : kInvalidNode;
}

Status SceneTree::remove_node(NodeId id) {
  if (id == kRootNode) return make_error("remove_node: cannot remove root");
  auto it = nodes_.find(id);
  if (it == nodes_.end()) return make_error("remove_node: unknown node");
  // Detach from parent.
  auto parent_it = nodes_.find(it->second.parent);
  if (parent_it != nodes_.end()) {
    auto& siblings = parent_it->second.children;
    siblings.erase(std::remove(siblings.begin(), siblings.end(), id), siblings.end());
  }
  // Erase subtree.
  std::vector<NodeId> doomed;
  collect_subtree(id, doomed);
  for (NodeId d : doomed) nodes_.erase(d);
  return {};
}

Status SceneTree::reparent(NodeId id, NodeId new_parent) {
  if (id == kRootNode) return make_error("reparent: cannot reparent root");
  auto it = nodes_.find(id);
  if (it == nodes_.end()) return make_error("reparent: unknown node");
  if (nodes_.count(new_parent) == 0) return make_error("reparent: unknown parent");
  // Refuse making a node its own descendant.
  for (NodeId cursor = new_parent; cursor != kInvalidNode;) {
    if (cursor == id) return make_error("reparent: would create a cycle");
    cursor = nodes_.at(cursor).parent;
  }
  auto& old_siblings = nodes_.at(it->second.parent).children;
  old_siblings.erase(std::remove(old_siblings.begin(), old_siblings.end(), id),
                     old_siblings.end());
  it->second.parent = new_parent;
  nodes_.at(new_parent).children.push_back(id);
  return {};
}

Status SceneTree::set_transform(NodeId id, const Mat4& transform) {
  auto it = nodes_.find(id);
  if (it == nodes_.end()) return make_error("set_transform: unknown node");
  it->second.transform = transform;
  it->second.stamp = next_node_stamp();
  return {};
}

Status SceneTree::set_payload(NodeId id, NodePayload payload) {
  auto it = nodes_.find(id);
  if (it == nodes_.end()) return make_error("set_payload: unknown node");
  it->second.payload = std::move(payload);
  it->second.stamp = next_node_stamp();
  return {};
}

Status SceneTree::set_name(NodeId id, std::string name) {
  auto it = nodes_.find(id);
  if (it == nodes_.end()) return make_error("set_name: unknown node");
  it->second.name = std::move(name);
  it->second.stamp = next_node_stamp();
  return {};
}

const SceneNode* SceneTree::find(NodeId id) const {
  auto it = nodes_.find(id);
  return it == nodes_.end() ? nullptr : &it->second;
}

SceneNode* SceneTree::find_mutable(NodeId id) {
  auto it = nodes_.find(id);
  if (it == nodes_.end()) return nullptr;
  it->second.stamp = next_node_stamp();  // the caller is about to mutate it
  return &it->second;
}

NodeId SceneTree::find_by_name(const std::string& name) const {
  for (const auto& [id, node] : nodes_)
    if (node.name == name) return id;
  return kInvalidNode;
}

Mat4 SceneTree::world_transform(NodeId id) const {
  // Accumulate the parent chain root-first.
  std::vector<const SceneNode*> chain;
  for (NodeId cursor = id; cursor != kInvalidNode;) {
    auto it = nodes_.find(cursor);
    if (it == nodes_.end()) break;
    chain.push_back(&it->second);
    cursor = it->second.parent;
  }
  Mat4 world = Mat4::identity();
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) world = world * (*it)->transform;
  return world;
}

void SceneTree::traverse(const std::function<void(const SceneNode&, const Mat4&)>& visit,
                         NodeId start) const {
  auto it = nodes_.find(start);
  if (it == nodes_.end()) return;
  const Mat4 base =
      it->second.parent == kInvalidNode ? Mat4::identity() : world_transform(it->second.parent);
  // Explicit stack; scenes can be deep.
  std::vector<std::pair<NodeId, Mat4>> stack{{start, base}};
  while (!stack.empty()) {
    auto [id, parent_world] = stack.back();
    stack.pop_back();
    const SceneNode& node = nodes_.at(id);
    const Mat4 world = parent_world * node.transform;
    visit(node, world);
    for (auto child = node.children.rbegin(); child != node.children.rend(); ++child)
      stack.emplace_back(*child, world);
  }
}

std::vector<NodeId> SceneTree::ids_depth_first(NodeId start) const {
  std::vector<NodeId> out;
  if (nodes_.count(start) == 0) return out;
  std::vector<NodeId> stack{start};
  while (!stack.empty()) {
    const NodeId id = stack.back();
    stack.pop_back();
    out.push_back(id);
    const SceneNode& node = nodes_.at(id);
    for (auto child = node.children.rbegin(); child != node.children.rend(); ++child)
      stack.push_back(*child);
  }
  return out;
}

std::vector<NodeId> SceneTree::subtree_ids(const std::vector<NodeId>& roots) const {
  std::vector<NodeId> out;
  std::unordered_set<NodeId> seen;
  for (NodeId root : roots) {
    if (nodes_.count(root) == 0) continue;
    std::vector<NodeId> ids;
    collect_subtree(root, ids);
    for (NodeId id : ids)
      if (seen.insert(id).second) out.push_back(id);
  }
  return out;
}

SceneTree SceneTree::subset(const std::vector<NodeId>& ids) const {
  // Wanted set: requested subtrees plus ancestor chains (stripped).
  std::unordered_set<NodeId> keep_full;
  for (NodeId id : subtree_ids(ids)) keep_full.insert(id);
  std::unordered_set<NodeId> keep_any = keep_full;
  for (NodeId id : keep_full) {
    for (NodeId cursor = id; cursor != kInvalidNode;) {
      auto it = nodes_.find(cursor);
      if (it == nodes_.end()) break;
      keep_any.insert(cursor);
      cursor = it->second.parent;
    }
  }

  SceneTree out;
  // Copy the root's transform/name (it always exists in both trees).
  out.nodes_.at(kRootNode).transform = nodes_.at(kRootNode).transform;
  out.nodes_.at(kRootNode).name = nodes_.at(kRootNode).name;

  // Insert in depth-first order so parents precede children.
  for (NodeId id : ids_depth_first()) {
    if (id == kRootNode || keep_any.count(id) == 0) continue;
    const SceneNode& src = nodes_.at(id);
    SceneNode copy;
    copy.id = src.id;
    copy.name = src.name;
    copy.transform = src.transform;
    if (keep_full.count(id) != 0) copy.payload = src.payload;  // ancestors become bare groups
    (void)out.add_node(src.parent, std::move(copy));
  }
  out.next_id_ = next_id_;
  return out;
}

NodeMetrics SceneTree::total_metrics(NodeId start) const {
  NodeMetrics total;
  for (NodeId id : ids_depth_first(start)) total += nodes_.at(id).metrics();
  return total;
}

Aabb SceneTree::world_bounds() const {
  Aabb box;
  traverse([&](const SceneNode& node, const Mat4& world) {
    const Aabb local = node.local_bounds();
    if (local.valid()) box.extend(local.transformed(world));
  });
  return box;
}

std::vector<NodeId> SceneTree::payload_node_ids() const {
  std::vector<NodeId> out;
  for (NodeId id : ids_depth_first())
    if (!std::holds_alternative<std::monostate>(nodes_.at(id).payload)) out.push_back(id);
  return out;
}

void SceneTree::collect_subtree(NodeId id, std::vector<NodeId>& out) const {
  std::vector<NodeId> stack{id};
  while (!stack.empty()) {
    const NodeId cur = stack.back();
    stack.pop_back();
    auto it = nodes_.find(cur);
    if (it == nodes_.end()) continue;
    out.push_back(cur);
    for (NodeId child : it->second.children) stack.push_back(child);
  }
}

}  // namespace rave::scene
