#ifndef KGEVAL_CORE_CANDIDATE_SETS_H_
#define KGEVAL_CORE_CANDIDATE_SETS_H_

#include <cstdint>
#include <vector>

#include "graph/dataset.h"
#include "recommenders/recommender.h"

namespace kgeval {

/// Narrow per-relation head/tail candidate sets (the "domains & ranges" of
/// Section 4.1). Index layout matches the score matrix: [0, |R|) domains,
/// [|R|, 2|R|) ranges.
struct CandidateSets {
  /// Per slot: sorted candidate entity ids.
  std::vector<std::vector<int32_t>> sets;
  /// Per slot: sampling weights aligned with `sets`. Empty when the sets are
  /// meant for uniform (Static) sampling.
  std::vector<std::vector<float>> weights;
  /// Per slot: the threshold chosen by the optimizer (Static only).
  std::vector<float> thresholds;
  int32_t num_entities = 0;

  int32_t num_slots() const { return static_cast<int32_t>(sets.size()); }

  /// Mean over slots of 1 - |set| / |E|.
  double MacroReductionRate() const;
};

/// Static sampling sets: per-column threshold T_dr, picked from a
/// 24-quantile grid over the column's positive scores, chosen to minimize
/// the l2 distance to the ideal point (CR, RR) = (1, 1), with Candidate
/// Recall measured on the *validation* pairs (test is never touched). The
/// thresholded set is unioned with the train-observed (PT) entities, as the
/// paper does for every method ("one naturally would do this").
CandidateSets BuildStaticSets(const RecommenderScores& scores,
                              const Dataset& dataset);

/// Probabilistic sampling sets: all positively-scored entities per column,
/// with the scores as sampling weights. Train-observed entities are always
/// included (with at least the column's minimum positive weight).
CandidateSets BuildProbabilisticSets(const RecommenderScores& scores,
                                     const Dataset& dataset,
                                     bool include_seen = true);

/// Candidate Recall / Reduction Rate measurements on the test split
/// (Table 5). "Seen" refers to (entity, slot) pairs observed in
/// train or valid.
struct SetQuality {
  double cr_test = 0.0;       // Recall over all distinct test slot-pairs.
  double cr_unseen = 0.0;     // Recall over the unseen ones only.
  double rr = 0.0;            // Reduction rate 1 - |set| / |E| of each
                              // pair's slot, averaged over the distinct
                              // test slot-pairs (as cr_test).
  int64_t total_pairs = 0;
  int64_t covered_pairs = 0;
  int64_t total_unseen = 0;
  int64_t covered_unseen = 0;
};

SetQuality EvaluateSetQuality(const CandidateSets& sets,
                              const Dataset& dataset);

}  // namespace kgeval

#endif  // KGEVAL_CORE_CANDIDATE_SETS_H_
