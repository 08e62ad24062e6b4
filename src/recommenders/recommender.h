#ifndef KGEVAL_RECOMMENDERS_RECOMMENDER_H_
#define KGEVAL_RECOMMENDERS_RECOMMENDER_H_

#include <memory>
#include <string>

#include "graph/dataset.h"
#include "sparse/csr.h"
#include "util/status.h"

namespace kgeval {

/// The relation recommenders compared in the paper (Sections 2–3).
enum class RecommenderType {
  kPt = 0,    // PseudoTyped: entities seen in train.
  kDbh,       // Degree-Based Heuristic: occurrence counts.
  kDbhT,      // DBH + type propagation.
  kOntoSim,   // All entities of any type observed for the slot.
  kLwd,       // Linear WD (Algorithm 1).
  kLwdT,      // L-WD with type columns appended to B.
  kPie,       // Lightweight neural entity-typing model.
};

const char* RecommenderTypeName(RecommenderType type);

/// Output of fitting a relation recommender: the score matrix
/// X in R^{|E| x 2|R|} held set-major (sparse; absent entries score 0 and
/// are the "easy negatives"), plus the fit time.
struct RecommenderScores {
  RecommenderType type = RecommenderType::kLwd;
  /// Set-major scores: row = domain/range index (domains [0, |R|), ranges
  /// [|R|, 2|R|)), columns = entities.
  CsrMatrix by_set;
  double fit_seconds = 0.0;
};

/// A method assigning every entity a score of being a head or tail of every
/// relation, using only the train split (and, for the type-aware variants,
/// the published TypeStore).
class RelationRecommender {
 public:
  virtual ~RelationRecommender() = default;

  virtual RecommenderType type() const = 0;
  const char* name() const { return RecommenderTypeName(type()); }

  /// Fits on dataset.train() and returns the score matrix. Must be
  /// deterministic given the dataset and the recommender's own seed.
  /// Every stored score is > 0, and every (slot, entity) observed in train
  /// is stored: BuildProbabilisticSets uses the rows as the sets as they
  /// are.
  virtual Result<RecommenderScores> Fit(const Dataset& dataset) = 0;
};

/// Factory. `seed` only affects the stochastic methods (PIE).
std::unique_ptr<RelationRecommender> CreateRecommender(RecommenderType type,
                                                       uint64_t seed = 17);

}  // namespace kgeval

#endif  // KGEVAL_RECOMMENDERS_RECOMMENDER_H_
