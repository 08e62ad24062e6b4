#include "graph/type_store.h"

#include <algorithm>

#include "util/logging.h"

namespace kgeval {

TypeStore::TypeStore(int32_t num_entities, int32_t num_types)
    : num_types_(num_types),
      entity_types_(num_entities),
      type_entities_(num_types) {}

void TypeStore::Assign(int32_t entity, int32_t type) {
  KGEVAL_DCHECK(entity >= 0 &&
                entity < static_cast<int32_t>(entity_types_.size()));
  KGEVAL_DCHECK(type >= 0 && type < num_types_);
  auto& types = entity_types_[entity];
  if (std::find(types.begin(), types.end(), type) != types.end()) return;
  types.push_back(type);
  type_entities_[type].push_back(entity);
  ++num_assignments_;
}

void TypeStore::Seal() {
  for (auto& v : entity_types_) std::sort(v.begin(), v.end());
  for (auto& v : type_entities_) std::sort(v.begin(), v.end());
}

}  // namespace kgeval
