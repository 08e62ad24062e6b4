#ifndef KGEVAL_RECOMMENDERS_LWD_H_
#define KGEVAL_RECOMMENDERS_LWD_H_

#include "recommenders/recommender.h"

namespace kgeval {

/// Linear WD (Algorithm 1 of the paper): a parameter-free association-rule
/// recommender.
///
///   B in {0,1}^{|E| x 2|R|}   (membership of entities in observed
///                              domains/ranges; L-WD-T appends |T| type
///                              columns)
///   W = B^T B, row-normalized (the domain/range co-occurrence graph)
///   X = B W                    (aggregated confidence scores)
///
/// Two sparse products and a normalization — the whole point is that this
/// runs in (milli)seconds on a CPU while matching neural recommenders for
/// guiding evaluation sampling.
class LwdRecommender : public RelationRecommender {
 public:
  explicit LwdRecommender(bool use_types) : use_types_(use_types) {}

  RecommenderType type() const override {
    return use_types_ ? RecommenderType::kLwdT : RecommenderType::kLwd;
  }

  Result<RecommenderScores> Fit(const Dataset& dataset) override;

 private:
  bool use_types_;
};

}  // namespace kgeval

#endif  // KGEVAL_RECOMMENDERS_LWD_H_
