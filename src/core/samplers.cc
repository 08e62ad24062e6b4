#include "core/samplers.h"

#include <algorithm>

#include "sched/task_group.h"
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
  const bool weighted = strategy == SamplingStrategy::kProbabilistic;
  // One sequential pass on the calling thread, in slot order. It draws the
  // Random and Static pools outright. For Probabilistic pools it steps
  // `rng` through each slot's draws and records where the slot starts, so
  // the slots select below on any thread from their own states: the pools,
  // and where `rng` ends, are those of drawing one slot after another.
  // Every pool is sized here because it outlives the draw.
  std::vector<Rng> starts;
  if (weighted) starts.reserve(slots.size());
  for (int32_t slot : slots) {
    std::vector<int32_t>& pool = out.pools[slot];
    switch (strategy) {
      case SamplingStrategy::kRandom:
        pool = SampleWithoutReplacement(num_entities, n_s, rng);
        break;
      case SamplingStrategy::kStatic:
        // Theorem 1's restriction: n_s,r = min(n_s, |set|).
        pool = SampleFrom(sets->sets[slot], n_s, rng);
        break;
      case SamplingStrategy::kProbabilistic: {
        starts.push_back(*rng);
        const int64_t keyed =
            SkipWeightedSample(sets->weights[slot], n_s, rng);
        pool.reserve(
            static_cast<size_t>(std::max<int64_t>(0, std::min(keyed, n_s))));
        break;
      }
    }
  }
  ParallelFor(
      0, slots.size(),
      [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) {
          const int32_t slot = slots[i];
          std::vector<int32_t>& pool = out.pools[slot];
          if (weighted) {
            const std::vector<int32_t> drawn =
                WeightedSampleWithoutReplacement(
                    sets->sets[slot], sets->weights[slot], n_s, &starts[i]);
            pool.assign(drawn.begin(), drawn.end());
          }
          std::sort(pool.begin(), pool.end());
          pool.erase(std::unique(pool.begin(), pool.end()), pool.end());
        }
      },
      /*min_chunk=*/1);
  out.sample_seconds = timer.Seconds();
  return out;
}

}  // namespace kgeval
