#ifndef KGEVAL_MODELS_KGE_MODEL_H_
#define KGEVAL_MODELS_KGE_MODEL_H_

#include <memory>
#include <string>
#include <vector>

#include "graph/triple.h"
#include "la/adam.h"
#include "la/matrix.h"
#include "util/status.h"

namespace kgeval {

/// The KGC models evaluated in the paper (Section 5.2). The values are
/// serialized (checkpoint headers), so each is pinned: a retired model's
/// value is never reused (5 is retired).
enum class ModelType {
  kTransE = 0,
  kDistMult = 1,
  kComplEx = 2,
  kRescal = 3,
  kRotatE = 4,
  kConvE = 6,
};

/// Every model type, in enum order. Membership, not the array's size, is
/// what makes a serialized model type valid. Append a new model here with
/// a fresh value.
constexpr ModelType kAllModelTypes[] = {
    ModelType::kTransE, ModelType::kDistMult, ModelType::kComplEx,
    ModelType::kRescal, ModelType::kRotatE,   ModelType::kConvE};

const char* ModelTypeName(ModelType type);
Result<ModelType> ParseModelType(const std::string& name);

/// Construction/optimization options shared by all models.
struct ModelOptions {
  int32_t dim = 32;  // Entity embedding width.
  AdamOptions adam;
  uint64_t seed = 7;
};

/// The reduction family a model's prepared-pool scoring collapses to once
/// its per-anchor query rows are built. Every model folds (anchor, relation)
/// into query vectors (BuildKernelQueries); what remains is one of three
/// batched reductions against the candidate tile, dispatched through the
/// runtime-selected ScoreKernels table (la/kernels).
enum class BatchKernel {
  kDot = 0,         // score = q . e (+ per-entity bias when candidate_bias()).
  kNegL1,           // score = -||q - e||_1 (translational models).
  kNegComplexDist,  // score = -sum_j sqrt(dre^2 + dim^2 + eps), split re/im.
};

/// A candidate pool prepared once and scored many times. PrepareCandidates
/// records the pool's size and sortedness plus the gathered layout: the
/// pool's entity embeddings transposed (dim x TileStride(n), candidates
/// contiguous — for ComplEx/RotatE the top/bottom halves of the tile are
/// the split re/im planes), 64-byte aligned and padded with copies of the
/// last candidate (the tile contract in la/kernels/kernels.h); ConvE
/// additionally gathers the per-candidate entity bias.
/// Preparing costs one gather + transpose; every subsequent ScoreBlock call
/// against the block reuses it.
struct CandidateBlock {
  size_t count = 0;         // Candidates in the pool.
  bool sorted = false;      // The ids are non-decreasing (a pool invariant
                            // the rankers exploit; computed once here).
  Matrix gathered_t;        // Transposed candidate tile (see above).
  std::vector<float> bias;  // ConvE: per-candidate entity bias.

  size_t size() const { return count; }
};

/// A knowledge-graph embedding model: scores triples and supports per-triple
/// gradient updates. Scoring is thread-safe; UpdateTriple is not, and must
/// not run concurrently with any other call on the same model.
class KgeModel {
 public:
  KgeModel(ModelType type, int32_t num_entities, int32_t num_relations,
           ModelOptions options);
  virtual ~KgeModel() = default;

  KgeModel(const KgeModel&) = delete;
  KgeModel& operator=(const KgeModel&) = delete;

  ModelType type() const { return type_; }
  const char* name() const { return ModelTypeName(type_); }
  int32_t num_entities() const { return num_entities_; }
  int32_t num_relations() const { return num_relations_; }
  const ModelOptions& options() const { return options_; }

  /// --- Kernel surface -------------------------------------------------------
  /// The concrete models describe themselves to the generic scoring engine
  /// through three hooks instead of overriding the scoring methods: which
  /// batched reduction they collapse to, an optional per-entity bias, and
  /// how to fold (anchor, relation, direction) into per-query kernel rows.
  /// Candidates are always gathered from the base class's entity table.
  /// Everything else — single-query scoring, pool preparation, fused blocks
  /// — is implemented once in the base class on top of these.

  /// The reduction family the model's scoring collapses to.
  virtual BatchKernel batch_kernel() const { return BatchKernel::kDot; }

  /// Epsilon inside the per-coordinate sqrt for kNegComplexDist (RotatE).
  virtual float batch_kernel_eps() const { return 0.0f; }

  /// Optional per-entity bias column (num_entities x 1), added to kDot
  /// scores after the reduction (ConvE). nullptr = no bias.
  virtual const Matrix* candidate_bias() const { return nullptr; }

  /// Folds each (anchors[q], relation, direction) query into one kernel row:
  /// resizes `queries` to num_queries x dim and fills row q with the vector
  /// whose batch_kernel() reduction against an entity row is the model's
  /// score. Direction-symmetric models ignore `direction`.
  virtual void BuildKernelQueries(const int32_t* anchors, size_t num_queries,
                                  int32_t relation, QueryDirection direction,
                                  Matrix* queries) const = 0;

  /// --------------------------------------------------------------------------

  /// Scores `n` candidate entities for a query. For kTail queries the anchor
  /// is the head and candidates are tails; for kHead queries the anchor is
  /// the tail and candidates are heads. Higher = more plausible. Builds one
  /// kernel query row and reduces with ScoreWithQuery.
  void ScoreCandidates(int32_t anchor, int32_t relation,
                       QueryDirection direction, const int32_t* candidates,
                       size_t n, float* out) const;

  /// Records the pool's size and sortedness and gathers (and transposes) its
  /// embeddings once into the CandidateBlock layout (plus the bias gather
  /// when the model has one). Thread-safe, like all scoring.
  virtual void PrepareCandidates(const int32_t* candidates, size_t n,
                                 CandidateBlock* block) const;

  /// Fused pool + truth scoring against a prepared block. Builds one kernel
  /// query row per anchor — ONCE, for `num_anchors` anchors; the
  /// evaluators pass each distinct anchor of a block once — and emits from
  /// those rows both the pool score matrix (pool_scores[r * block.size() +
  /// c], bit-identical to ScoreCandidates for anchors[r]) and the truth
  /// scores: truth_scores[t] scores truths[t] against row truth_rows[t],
  /// bit-identical to ScoreCandidates for anchors[truth_rows[t]]. Several
  /// truths may share a row: queries that repeat an anchor within one
  /// kernel relation and direction have the same score row and differ only
  /// in their truth. A null `truth_rows` pairs truth t with row t
  /// (num_truths is then num_anchors). Either output may be null to skip
  /// it (`truths` may be null iff truth_scores is). Sharing rows with the
  /// truths halves query construction versus scoring the pool and the
  /// truths separately — the dominant per-query cost for ConvE (conv/FC
  /// trunk). This is the evaluation hot path: slot-major evaluators feed
  /// whole slots here.
  void ScoreBlock(const int32_t* anchors, const int32_t* truths,
                  size_t num_anchors, int32_t relation,
                  QueryDirection direction, const CandidateBlock& block,
                  float* pool_scores, float* truth_scores,
                  const int32_t* truth_rows = nullptr,
                  size_t num_truths = 0) const;

  /// Applies one gradient step: parameters move so as to *decrease*
  /// `dscore * score(h, r, t)` — i.e., pass dscore = dLoss/dScore.
  /// `direction` names the side the trainer treated as the candidate; models
  /// with direction-specific parameterizations (ConvE's reciprocal
  /// relations) use it, symmetric models ignore it. The first update
  /// allocates the Adam moments, so a model that is only evaluated never
  /// holds them.
  virtual void UpdateTriple(int32_t head, int32_t relation, int32_t tail,
                            QueryDirection direction, float dscore) = 0;

  /// A named view of one parameter matrix, used by checkpointing.
  struct NamedParameter {
    const char* name;
    Matrix* matrix;
  };

  /// Appends views of every parameter matrix (stable names, stable order):
  /// by default the entity table, then the relation table under its
  /// checkpoint name; a model with more tables appends them after these.
  /// Optimizer state is not included: checkpoints restore the model for
  /// inference/evaluation, not mid-flight training moments.
  virtual void CollectParameters(std::vector<NamedParameter>* out);

 protected:
  /// Draws the seeded initial value of every parameter table from `rng`;
  /// by default Xavier on the entity table, then on the relation table.
  /// Constructors only allocate their tables, zero-filled (the Adam moments
  /// not even that: they appear at the first update); CreateModel calls
  /// this once with Rng(options.seed), and LoadModel never does, because
  /// the checkpoint overwrites every table.
  virtual void InitParameters(Rng* rng);

  friend Result<std::unique_ptr<KgeModel>> CreateModel(
      ModelType type, int32_t num_entities, int32_t num_relations,
      const ModelOptions& options);

  ModelType type_;
  int32_t num_entities_;
  int32_t num_relations_;
  ModelOptions options_;

  /// The table pair every model owns. Entities are |E| x dim; candidates
  /// are gathered from this table. The relation table's shape and
  /// checkpoint name depend on the model type (kge_model.cc's
  /// RelationTable): |R| x d, RESCAL's |R| x d^2 (row-major W_r), RotatE's
  /// |R| x d/2 phases, ConvE's 2|R| x d (reciprocal rows).
  Matrix entities_;
  Matrix relations_;
  AdamState entity_adam_;
  AdamState relation_adam_;

 private:
  /// Scores candidates[0..n) against query row q of a BuildKernelQueries
  /// matrix, reading raw embedding rows (no prepared tile). This is the
  /// scalar reference reduction: the batched tile path is bit-identical to
  /// it per cell.
  void ScoreWithQuery(const Matrix& queries, size_t q,
                      const int32_t* candidates, size_t n, float* out) const;

  /// Scores every query row against a prepared pool through the active
  /// dispatch kernel: pool_scores[q * block.size() + c].
  void ScorePool(const Matrix& queries, const CandidateBlock& block,
                 float* pool_scores) const;
};

/// Creates a model of the given type with its seeded initial parameters:
/// AllocateModel, then InitParameters with Rng(options.seed). Fails on
/// invalid options (e.g., an odd dimension for the complex-valued models).
Result<std::unique_ptr<KgeModel>> CreateModel(ModelType type,
                                              int32_t num_entities,
                                              int32_t num_relations,
                                              const ModelOptions& options);

/// CreateModel without the seeded init: every parameter table is allocated
/// zero-filled and nothing is drawn. This is all of LoadModel's
/// construction; the checkpoint then fills every table.
Result<std::unique_ptr<KgeModel>> AllocateModel(ModelType type,
                                                int32_t num_entities,
                                                int32_t num_relations,
                                                const ModelOptions& options);

/// The number of floats in the parameter tables AllocateModel gives these
/// arguments: the CollectParameters total. Checkpoint loading checks a
/// file's size against it before allocating anything. The arguments must
/// lie within the checkpoint header bounds, so the count fits in int64.
int64_t ParameterElementCount(ModelType type, int32_t num_entities,
                              int32_t num_relations,
                              const ModelOptions& options);

}  // namespace kgeval

#endif  // KGEVAL_MODELS_KGE_MODEL_H_
