// Entity-level graph derived from a schema's foreign keys.
//
// The tightness-of-fit measure (core/tightness_of_fit.h) needs to know, for
// a pair of entities, whether they are the same entity, in the same "entity
// neighborhood" (transitive closure over foreign keys -- the paper's
// definition), or unrelated; the context matcher's features read FK
// adjacency. EntityGraph precomputes connected components and adjacency
// once per schema, and the match-feature catalog keeps the components
// (ComponentsByElement) so phase 3 never rebuilds a graph.

#ifndef SCHEMR_SCHEMA_ENTITY_GRAPH_H_
#define SCHEMR_SCHEMA_ENTITY_GRAPH_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "schema/schema.h"

namespace schemr {

/// Undirected graph whose vertices are a schema's entities and whose edges
/// are foreign keys (plus parent/child containment between nested
/// entities, which is the XML analogue of a foreign key).
class EntityGraph {
 public:
  explicit EntityGraph(const Schema& schema);

  /// All entity ids, in schema insertion order.
  const std::vector<ElementId>& entities() const { return entities_; }

  /// FK/containment-adjacent entities of `entity` (no duplicates, no self).
  const std::vector<ElementId>& Neighbors(ElementId entity) const;

  /// True iff the two entities are connected through any chain of foreign
  /// keys (the transitive closure the paper uses for the "small penalty").
  bool InSameNeighborhood(ElementId a, ElementId b) const;

  /// Connected-component id of `entity` (dense, starting at 0).
  size_t ComponentOf(ElementId entity) const;

  size_t NumComponents() const { return num_components_; }

 private:
  std::vector<ElementId> entities_;
  std::unordered_map<ElementId, std::vector<ElementId>> adjacency_;
  std::unordered_map<ElementId, size_t> component_;
  size_t num_components_ = 0;

  static const std::vector<ElementId>& EmptyNeighbors();
};

/// Per element id in [0, num_elements): graph.ComponentOf(e) for an entity
/// e, UINT32_MAX for every other element. Two entities are in the same
/// neighborhood iff their entries are equal.
std::vector<uint32_t> ComponentsByElement(const EntityGraph& graph,
                                          size_t num_elements);

/// Collects the elements of the subtree rooted at `root`, breadth-first,
/// stopping below `max_depth` levels (max_depth = 0 returns just the
/// root). Used by the visualizer's depth capping.
std::vector<ElementId> SubtreeElements(const Schema& schema, ElementId root,
                                       size_t max_depth);

}  // namespace schemr

#endif  // SCHEMR_SCHEMA_ENTITY_GRAPH_H_
