#ifndef KGEVAL_MODELS_MODEL_IMPLS_H_
#define KGEVAL_MODELS_MODEL_IMPLS_H_

#include <cstdint>
#include <memory>

#include "models/kge_model.h"
#include "util/status.h"

namespace kgeval {
namespace model_impls {

/// Per-model factories for AllocateModel (kge_model.cc). Each concrete
/// model lives in its own .cc file; a factory allocates the model's
/// zero-filled tables and draws nothing. AllocateModel has already checked
/// the counts and the dim the model needs.

std::unique_ptr<KgeModel> NewTransE(int32_t num_entities,
                                    int32_t num_relations,
                                    const ModelOptions& options);
std::unique_ptr<KgeModel> NewDistMult(int32_t num_entities,
                                      int32_t num_relations,
                                      const ModelOptions& options);
std::unique_ptr<KgeModel> NewComplEx(int32_t num_entities,
                                     int32_t num_relations,
                                     const ModelOptions& options);
std::unique_ptr<KgeModel> NewRescal(int32_t num_entities,
                                    int32_t num_relations,
                                    const ModelOptions& options);
std::unique_ptr<KgeModel> NewRotatE(int32_t num_entities,
                                    int32_t num_relations,
                                    const ModelOptions& options);
std::unique_ptr<KgeModel> NewConvE(int32_t num_entities,
                                   int32_t num_relations,
                                   const ModelOptions& options);

/// OK when `dim` suits ConvE: divisible by 4 (the 2-D reshape uses a fixed
/// width of 4) and at least 12.
Status CheckConvEDim(int32_t dim);

/// The floats in ConvE's tables beyond the entity/relation pair (filters,
/// conv bias, FC weights and bias, entity bias).
int64_t ConvEExtraElementCount(int32_t num_entities, int32_t dim);

}  // namespace model_impls
}  // namespace kgeval

#endif  // KGEVAL_MODELS_MODEL_IMPLS_H_
