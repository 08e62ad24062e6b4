#include "recommenders/recommender.h"

#include "recommenders/heuristics.h"
#include "recommenders/lwd.h"
#include "recommenders/pie.h"
#include "util/string_util.h"

namespace kgeval {

const char* RecommenderTypeName(RecommenderType type) {
  switch (type) {
    case RecommenderType::kPt:
      return "PT";
    case RecommenderType::kDbh:
      return "DBH";
    case RecommenderType::kDbhT:
      return "DBH-T";
    case RecommenderType::kOntoSim:
      return "OntoSim";
    case RecommenderType::kLwd:
      return "L-WD";
    case RecommenderType::kLwdT:
      return "L-WD-T";
    case RecommenderType::kPie:
      return "PIE";
  }
  return "?";
}

std::unique_ptr<RelationRecommender> CreateRecommender(RecommenderType type,
                                                       uint64_t seed) {
  switch (type) {
    case RecommenderType::kPt:
      return std::make_unique<PtRecommender>();
    case RecommenderType::kDbh:
      return std::make_unique<DbhRecommender>(/*use_types=*/false);
    case RecommenderType::kDbhT:
      return std::make_unique<DbhRecommender>(/*use_types=*/true);
    case RecommenderType::kOntoSim:
      return std::make_unique<OntoSimRecommender>();
    case RecommenderType::kLwd:
      return std::make_unique<LwdRecommender>(/*use_types=*/false);
    case RecommenderType::kLwdT:
      return std::make_unique<LwdRecommender>(/*use_types=*/true);
    case RecommenderType::kPie:
      return std::make_unique<PieRecommender>(seed);
  }
  return nullptr;
}

}  // namespace kgeval
