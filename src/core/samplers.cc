#include "core/samplers.h"

#include <algorithm>

#include "stats/sampling.h"
#include "util/logging.h"
#include "util/timer.h"

namespace kgeval {

const char* SamplingStrategyName(SamplingStrategy strategy) {
  switch (strategy) {
    case SamplingStrategy::kRandom:
      return "Random";
    case SamplingStrategy::kStatic:
      return "Static";
    case SamplingStrategy::kProbabilistic:
      return "Probabilistic";
  }
  return "?";
}

std::vector<int32_t> NeededSlots(const Dataset& dataset, Split split) {
  const int32_t num_r = dataset.num_relations();
  std::vector<char> queried(2 * static_cast<size_t>(num_r), 0);
  for (const Triple& t : dataset.split(split)) {
    for (QueryDirection dir : {QueryDirection::kHead, QueryDirection::kTail}) {
      queried[DomainRangeIndex(t.relation, dir, num_r)] = 1;
    }
  }
  std::vector<int32_t> out;
  for (size_t slot = 0; slot < queried.size(); ++slot) {
    if (queried[slot]) out.push_back(static_cast<int32_t>(slot));
  }
  return out;
}

SampledCandidates DrawCandidates(SamplingStrategy strategy,
                                 const CandidateSets* sets,
                                 int32_t num_entities, int64_t n_s,
                                 const std::vector<int32_t>& slots,
                                 int32_t num_slots_total, Rng* rng) {
  WallTimer timer;
  SampledCandidates out;
  out.pools.resize(num_slots_total);
  if (strategy != SamplingStrategy::kRandom) {
    KGEVAL_CHECK(sets != nullptr);
    KGEVAL_CHECK_EQ(sets->num_slots(), num_slots_total);
  }
  for (int32_t slot : slots) {
    std::vector<int32_t> pool;
    switch (strategy) {
      case SamplingStrategy::kRandom:
        pool = SampleWithoutReplacement(num_entities, n_s, rng);
        break;
      case SamplingStrategy::kStatic:
        // Theorem 1's restriction: n_s,r = min(n_s, |set|).
        pool = SampleFrom(sets->sets[slot], n_s, rng);
        break;
      case SamplingStrategy::kProbabilistic:
        pool = WeightedSampleWithoutReplacement(
            sets->sets[slot], sets->weights[slot], n_s, rng);
        break;
    }
    std::sort(pool.begin(), pool.end());
    pool.erase(std::unique(pool.begin(), pool.end()), pool.end());
    out.total_sampled += static_cast<int64_t>(pool.size());
    out.pools[slot] = std::move(pool);
  }
  out.sample_seconds = timer.Seconds();
  return out;
}

}  // namespace kgeval
