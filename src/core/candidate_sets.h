#ifndef KGEVAL_CORE_CANDIDATE_SETS_H_
#define KGEVAL_CORE_CANDIDATE_SETS_H_

#include <cstdint>
#include <vector>

#include "graph/dataset.h"
#include "recommenders/recommender.h"
#include "sparse/csr.h"

namespace kgeval {

/// Narrow per-relation head/tail candidate sets (the "domains & ranges" of
/// Section 4.1), one row per slot in the score matrix's layout: [0, |R|)
/// domains, [|R|, 2|R|) ranges.
struct CandidateSets {
  /// Row = slot, col_idx = its sorted candidate entity ids, values = their
  /// sampling weights (1 for Static sets, which are sampled uniformly).
  CsrMatrix members;
  /// Per slot: the threshold chosen by the optimizer (Static only).
  std::vector<float> thresholds;

  int32_t num_entities() const { return static_cast<int32_t>(members.cols()); }
  int32_t num_slots() const { return static_cast<int32_t>(members.rows()); }

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

/// Probabilistic sampling sets: every scored entity of a slot, with its
/// score as the sampling weight. These are `scores.by_set` itself, moved
/// in (pass an rvalue to avoid the copy). RelationRecommender::Fit's
/// contract makes every score positive and stores every train-observed
/// entity, so the sets hold the train-seen entities whatever
/// `include_seen` says; it is ignored. Dies on a non-positive score or a
/// shape that does not match `dataset`.
CandidateSets BuildProbabilisticSets(RecommenderScores scores,
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

/// Dies unless `sets` has one row per slot of `dataset`.
SetQuality EvaluateSetQuality(const CandidateSets& sets,
                              const Dataset& dataset);

}  // namespace kgeval

#endif  // KGEVAL_CORE_CANDIDATE_SETS_H_
