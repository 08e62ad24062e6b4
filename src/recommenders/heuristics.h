#ifndef KGEVAL_RECOMMENDERS_HEURISTICS_H_
#define KGEVAL_RECOMMENDERS_HEURISTICS_H_

#include "recommenders/recommender.h"

namespace kgeval {

/// PseudoTyped (PT): an entity scores 1 for a domain/range iff it was seen
/// in that slot in the train split. Cheap, but by construction blind to
/// unseen candidates — the limitation Section 2 dwells on.
class PtRecommender : public RelationRecommender {
 public:
  RecommenderType type() const override { return RecommenderType::kPt; }
  Result<RecommenderScores> Fit(const Dataset& dataset) override;
};

/// Degree-Based Heuristic (DBH, Chen et al. 2022): the score is the number
/// of times the entity occupied the slot in train. With `use_types`, the
/// DBH-T extension of Section 3.2 adds, for every type t observed in a
/// slot, +1 to every entity of type t — which is what lets it propose
/// candidates PT has never seen.
class DbhRecommender : public RelationRecommender {
 public:
  explicit DbhRecommender(bool use_types) : use_types_(use_types) {}
  RecommenderType type() const override {
    return use_types_ ? RecommenderType::kDbhT : RecommenderType::kDbh;
  }
  Result<RecommenderScores> Fit(const Dataset& dataset) override;

 private:
  bool use_types_;
};

/// OntoSim (Section 3.2): every entity of type t belongs to a slot if *any*
/// entity of type t was observed there. Binary scores; recall-oriented and
/// deliberately broad (low reduction rate).
class OntoSimRecommender : public RelationRecommender {
 public:
  RecommenderType type() const override { return RecommenderType::kOntoSim; }
  Result<RecommenderScores> Fit(const Dataset& dataset) override;
};

}  // namespace kgeval

#endif  // KGEVAL_RECOMMENDERS_HEURISTICS_H_
