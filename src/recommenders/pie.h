#ifndef KGEVAL_RECOMMENDERS_PIE_H_
#define KGEVAL_RECOMMENDERS_PIE_H_

#include "recommenders/recommender.h"

namespace kgeval {

/// PIE (Chao et al., 2022), reimplemented as the paper characterizes it: a
/// lightweight GCN-style self-supervised entity-typing model. An entity is
/// represented by the mean of learned embeddings of the domain/range slots
/// it was observed in (one propagation over the entity–slot incidence
/// graph); a logistic head predicts membership in every slot. Trained with
/// negative sampling on the observed memberships.
///
/// It exists here as the "sophisticated neural baseline": its candidate
/// quality matches the closed-form heuristics while costing orders of
/// magnitude more to fit — Table 5's point.
class PieRecommender : public RelationRecommender {
 public:
  explicit PieRecommender(uint64_t seed) : seed_(seed) {}

  RecommenderType type() const override { return RecommenderType::kPie; }
  Result<RecommenderScores> Fit(const Dataset& dataset) override;

 private:
  uint64_t seed_;
};

}  // namespace kgeval

#endif  // KGEVAL_RECOMMENDERS_PIE_H_
