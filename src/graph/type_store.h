#ifndef KGEVAL_GRAPH_TYPE_STORE_H_
#define KGEVAL_GRAPH_TYPE_STORE_H_

#include <cstdint>
#include <vector>

namespace kgeval {

/// Entity -> type assignments (an entity may have several types, as in
/// Freebase/Wikidata `instanceOf`). Used by the type-aware recommenders
/// (DBH-T, OntoSim, L-WD-T) and by the synthetic generator.
class TypeStore {
 public:
  TypeStore() : num_types_(0) {}
  TypeStore(int32_t num_entities, int32_t num_types);

  /// Adds type `type` to entity `entity` (idempotent).
  void Assign(int32_t entity, int32_t type);

  /// Sorts per-entity and per-type lists; call once after all Assign calls.
  void Seal();

  int32_t num_types() const { return num_types_; }
  int32_t num_entities() const {
    return static_cast<int32_t>(entity_types_.size());
  }

  /// Total number of (entity, type) assignments — the |TS| of Table 4.
  int64_t num_assignments() const { return num_assignments_; }

  bool empty() const { return num_types_ == 0; }

  const std::vector<int32_t>& TypesOf(int32_t entity) const {
    return entity_types_[entity];
  }
  const std::vector<int32_t>& EntitiesOf(int32_t type) const {
    return type_entities_[type];
  }

 private:
  int32_t num_types_;
  int64_t num_assignments_ = 0;
  std::vector<std::vector<int32_t>> entity_types_;
  std::vector<std::vector<int32_t>> type_entities_;
};

}  // namespace kgeval

#endif  // KGEVAL_GRAPH_TYPE_STORE_H_
