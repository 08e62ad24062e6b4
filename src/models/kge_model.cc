#include "models/kge_model.h"

#include <algorithm>
#include <cstdint>

#include "la/kernels/kernels.h"
#include "la/vector_ops.h"
#include "models/model_impls.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace kgeval {
namespace {

/// The relation table of a model type: its checkpoint name and shape. The
/// one place the shape is decided — the constructor allocates it and
/// ParameterElementCount counts it.
struct RelationTableShape {
  const char* name;
  int64_t rows;
  int64_t cols;
};

RelationTableShape RelationTable(ModelType type, int32_t num_relations,
                                 int32_t dim) {
  const int64_t r = num_relations;
  const int64_t d = dim;
  switch (type) {
    case ModelType::kRescal:
      return {"relations", r, d * d};  // Row-major W_r.
    case ModelType::kRotatE:
      return {"phases", r, d / 2};  // One phase per complex coordinate.
    case ModelType::kConvE:
      return {"relations", 2 * r, d};  // Reciprocal rows r + |R|.
    case ModelType::kTransE:
    case ModelType::kDistMult:
    case ModelType::kComplEx:
      break;
  }
  return {"relations", r, d};
}

}  // namespace

const char* ModelTypeName(ModelType type) {
  switch (type) {
    case ModelType::kTransE:
      return "TransE";
    case ModelType::kDistMult:
      return "DistMult";
    case ModelType::kComplEx:
      return "ComplEx";
    case ModelType::kRescal:
      return "RESCAL";
    case ModelType::kRotatE:
      return "RotatE";
    case ModelType::kConvE:
      return "ConvE";
  }
  return "?";
}

Result<ModelType> ParseModelType(const std::string& name) {
  for (ModelType type : kAllModelTypes) {
    if (name == ModelTypeName(type)) return type;
  }
  return Status::NotFound(StrFormat("unknown model '%s'", name.c_str()));
}

KgeModel::KgeModel(ModelType type, int32_t num_entities,
                   int32_t num_relations, ModelOptions options)
    : type_(type),
      num_entities_(num_entities),
      num_relations_(num_relations),
      options_(options),
      entities_(num_entities, options.dim),
      relations_(RelationTable(type, num_relations, options.dim).rows,
                 RelationTable(type, num_relations, options.dim).cols),
      entity_adam_(entities_.rows(), entities_.cols(), options.adam),
      relation_adam_(relations_.rows(), relations_.cols(), options.adam) {}

void KgeModel::InitParameters(Rng* rng) {
  entities_.InitXavier(rng, options_.dim, options_.dim);
  relations_.InitXavier(rng, options_.dim, options_.dim);
}

void KgeModel::CollectParameters(std::vector<NamedParameter>* out) {
  out->push_back({"entities", &entities_});
  out->push_back(
      {RelationTable(type_, num_relations_, options_.dim).name, &relations_});
}

void KgeModel::ScoreWithQuery(const Matrix& queries, size_t q,
                              const int32_t* candidates, size_t n,
                              float* out) const {
  const Matrix* bias = candidate_bias();
  const float* qrow = queries.Row(q);
  const size_t dim = queries.cols();
  KGEVAL_DCHECK(dim == entities_.cols());
  switch (batch_kernel()) {
    case BatchKernel::kDot:
      for (size_t c = 0; c < n; ++c) {
        const int32_t id = candidates[c];
        out[c] = Dot(qrow, entities_.Row(static_cast<size_t>(id)), dim);
        if (bias != nullptr) out[c] += bias->At(static_cast<size_t>(id), 0);
      }
      return;
    case BatchKernel::kNegL1:
      for (size_t c = 0; c < n; ++c) {
        out[c] = -L1Distance(
            qrow, entities_.Row(static_cast<size_t>(candidates[c])), dim);
      }
      return;
    case BatchKernel::kNegComplexDist: {
      const float eps = batch_kernel_eps();
      for (size_t c = 0; c < n; ++c) {
        out[c] = NegComplexDistance(
            qrow, entities_.Row(static_cast<size_t>(candidates[c])), dim / 2,
            eps);
      }
      return;
    }
  }
}

void KgeModel::ScorePool(const Matrix& queries, const CandidateBlock& block,
                         float* pool_scores) const {
  const size_t n = block.size();
  const size_t nq = queries.rows();
  const size_t dim = queries.cols();
  const float* tile = block.gathered_t.data();
  KGEVAL_CHECK(dim == block.gathered_t.rows() &&
               block.gathered_t.cols() == TileStride(n));
  const ScoreKernels& kernels = ActiveScoreKernels();
  switch (batch_kernel()) {
    case BatchKernel::kDot:
      kernels.dot(queries.data(), nq, dim, tile, n, pool_scores);
      if (!block.bias.empty()) {
        for (size_t q = 0; q < nq; ++q) {
          float* row = pool_scores + q * n;
          for (size_t c = 0; c < n; ++c) row[c] += block.bias[c];
        }
      }
      return;
    case BatchKernel::kNegL1:
      kernels.neg_l1(queries.data(), nq, dim, tile, n, pool_scores);
      return;
    case BatchKernel::kNegComplexDist:
      KGEVAL_CHECK(dim % 2 == 0);
      kernels.neg_complex_dist(queries.data(), nq, dim, tile, n,
                               batch_kernel_eps(), pool_scores);
      return;
  }
}

void KgeModel::ScoreCandidates(int32_t anchor, int32_t relation,
                               QueryDirection direction,
                               const int32_t* candidates, size_t n,
                               float* out) const {
  Matrix queries;
  BuildKernelQueries(&anchor, 1, relation, direction, &queries);
  ScoreWithQuery(queries, 0, candidates, n, out);
}

void KgeModel::PrepareCandidates(const int32_t* candidates, size_t n,
                                 CandidateBlock* block) const {
  block->count = n;
  block->sorted = std::is_sorted(candidates, candidates + n);
  // The tile is the pool's rows transposed (dim x TileStride(n)):
  // candidates become the contiguous axis, so every kernel scores them as
  // independent lanes, and every row starts on a cache line.
  for (size_t c = 0; c < n; ++c) {
    KGEVAL_DCHECK(candidates[c] >= 0 &&
                  static_cast<size_t>(candidates[c]) < entities_.rows());
  }
  Matrix& tile = block->gathered_t;
  tile.Resize(entities_.cols(), TileStride(n));
  KGEVAL_CHECK(reinterpret_cast<uintptr_t>(tile.data()) %
                   Matrix::kAlignBytes ==
               0)
      << "a prepared tile starts on a cache line";
  ActiveScoreKernels().gather_t(entities_.data(), entities_.cols(), candidates,
                                n, tile.data());
  block->bias.clear();
  const Matrix* bias = candidate_bias();
  if (bias != nullptr) {
    block->bias.resize(n);
    for (size_t c = 0; c < n; ++c) {
      block->bias[c] = bias->At(static_cast<size_t>(candidates[c]), 0);
    }
  }
}

void KgeModel::ScoreBlock(const int32_t* anchors, const int32_t* truths,
                          size_t num_anchors, int32_t relation,
                          QueryDirection direction,
                          const CandidateBlock& block, float* pool_scores,
                          float* truth_scores, const int32_t* truth_rows,
                          size_t num_truths) const {
  if (truth_rows == nullptr) num_truths = num_anchors;
  // One query construction per row feeds both the batched pool kernel and
  // the per-truth reductions.
  Matrix queries;
  BuildKernelQueries(anchors, num_anchors, relation, direction, &queries);
  if (pool_scores != nullptr) ScorePool(queries, block, pool_scores);
  if (truth_scores != nullptr) {
    for (size_t t = 0; t < num_truths; ++t) {
      const size_t row =
          truth_rows == nullptr ? t : static_cast<size_t>(truth_rows[t]);
      ScoreWithQuery(queries, row, &truths[t], 1, &truth_scores[t]);
    }
  }
}

Result<std::unique_ptr<KgeModel>> AllocateModel(ModelType type,
                                                int32_t num_entities,
                                                int32_t num_relations,
                                                const ModelOptions& options) {
  if (num_entities <= 0 || num_relations <= 0) {
    return Status::InvalidArgument("entity/relation counts must be positive");
  }
  if (options.dim <= 0) {
    return Status::InvalidArgument("embedding dim must be positive");
  }
  switch (type) {
    case ModelType::kTransE:
      return {model_impls::NewTransE(num_entities, num_relations, options)};
    case ModelType::kDistMult:
      return {model_impls::NewDistMult(num_entities, num_relations, options)};
    case ModelType::kComplEx:
      if (options.dim % 2 != 0) {
        return Status::InvalidArgument("ComplEx needs an even dim");
      }
      return {model_impls::NewComplEx(num_entities, num_relations, options)};
    case ModelType::kRescal:
      return {model_impls::NewRescal(num_entities, num_relations, options)};
    case ModelType::kRotatE:
      if (options.dim % 2 != 0) {
        return Status::InvalidArgument("RotatE needs an even dim");
      }
      return {model_impls::NewRotatE(num_entities, num_relations, options)};
    case ModelType::kConvE:
      KGEVAL_RETURN_NOT_OK(model_impls::CheckConvEDim(options.dim));
      return {model_impls::NewConvE(num_entities, num_relations, options)};
  }
  return Status::InvalidArgument("unhandled model type");
}

Result<std::unique_ptr<KgeModel>> CreateModel(ModelType type,
                                              int32_t num_entities,
                                              int32_t num_relations,
                                              const ModelOptions& options) {
  auto model_or = AllocateModel(type, num_entities, num_relations, options);
  if (!model_or.ok()) return model_or.status();
  std::unique_ptr<KgeModel> model = std::move(model_or).ValueOrDie();
  Rng rng(options.seed);
  model->InitParameters(&rng);
  return {std::move(model)};
}

int64_t ParameterElementCount(ModelType type, int32_t num_entities,
                              int32_t num_relations,
                              const ModelOptions& options) {
  const RelationTableShape relations =
      RelationTable(type, num_relations, options.dim);
  const int64_t tables = int64_t{num_entities} * options.dim +
                         relations.rows * relations.cols;
  if (type != ModelType::kConvE) return tables;
  return tables +
         model_impls::ConvEExtraElementCount(num_entities, options.dim);
}

}  // namespace kgeval
