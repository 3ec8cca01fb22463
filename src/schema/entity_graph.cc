#include "schema/entity_graph.h"

#include <algorithm>
#include <deque>

namespace schemr {

EntityGraph::EntityGraph(const Schema& schema) {
  entities_ = schema.Entities();
  for (ElementId e : entities_) adjacency_[e];  // ensure vertex exists

  auto add_edge = [this](ElementId a, ElementId b) {
    if (a == b || a == kNoElement || b == kNoElement) return;
    auto& na = adjacency_[a];
    if (std::find(na.begin(), na.end(), b) == na.end()) na.push_back(b);
    auto& nb = adjacency_[b];
    if (std::find(nb.begin(), nb.end(), a) == nb.end()) nb.push_back(a);
  };

  // Foreign keys: entity containing the referencing attribute <-> target.
  for (const ForeignKey& fk : schema.foreign_keys()) {
    if (fk.attribute >= schema.size() || fk.target_entity >= schema.size()) {
      continue;  // Validate() reports these; the graph just skips them
    }
    ElementId source_entity = schema.EntityOf(fk.attribute);
    add_edge(source_entity, fk.target_entity);
  }
  // Nested entities: containment is the hierarchical analogue of an FK.
  for (ElementId e : entities_) {
    ElementId parent = schema.element(e).parent;
    if (parent != kNoElement) {
      ElementId parent_entity = schema.EntityOf(parent);
      add_edge(e, parent_entity);
    }
  }

  // Connected components by BFS.
  for (ElementId e : entities_) {
    if (component_.count(e)) continue;
    size_t comp = num_components_++;
    std::deque<ElementId> queue{e};
    component_[e] = comp;
    while (!queue.empty()) {
      ElementId cur = queue.front();
      queue.pop_front();
      for (ElementId next : adjacency_[cur]) {
        if (!component_.count(next)) {
          component_[next] = comp;
          queue.push_back(next);
        }
      }
    }
  }
}

const std::vector<ElementId>& EntityGraph::EmptyNeighbors() {
  static const std::vector<ElementId> empty;
  return empty;
}

const std::vector<ElementId>& EntityGraph::Neighbors(ElementId entity) const {
  auto it = adjacency_.find(entity);
  return it == adjacency_.end() ? EmptyNeighbors() : it->second;
}

bool EntityGraph::InSameNeighborhood(ElementId a, ElementId b) const {
  auto ia = component_.find(a);
  auto ib = component_.find(b);
  if (ia == component_.end() || ib == component_.end()) return false;
  return ia->second == ib->second;
}

size_t EntityGraph::ComponentOf(ElementId entity) const {
  auto it = component_.find(entity);
  return it == component_.end() ? SIZE_MAX : it->second;
}

std::vector<uint32_t> ComponentsByElement(const EntityGraph& graph,
                                          size_t num_elements) {
  std::vector<uint32_t> component(num_elements, UINT32_MAX);
  for (ElementId entity : graph.entities()) {
    component[entity] = static_cast<uint32_t>(graph.ComponentOf(entity));
  }
  return component;
}

std::vector<ElementId> SubtreeElements(const Schema& schema, ElementId root,
                                       size_t max_depth) {
  std::vector<ElementId> out;
  struct Item {
    ElementId id;
    size_t depth;
  };
  std::deque<Item> queue{{root, 0}};
  while (!queue.empty()) {
    Item item = queue.front();
    queue.pop_front();
    out.push_back(item.id);
    if (item.depth >= max_depth) continue;
    for (ElementId child : schema.Children(item.id)) {
      queue.push_back({child, item.depth + 1});
    }
  }
  return out;
}

}  // namespace schemr
