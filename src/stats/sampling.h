#ifndef KGEVAL_STATS_SAMPLING_H_
#define KGEVAL_STATS_SAMPLING_H_

#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace kgeval {

/// Draws `k` distinct integers uniformly from [0, n) without replacement
/// using Robert Floyd's algorithm (O(k) draws, one byte of flags per
/// population member). If k >= n, returns all of [0, n). Output order is
/// the order of the draws.
std::vector<int32_t> SampleWithoutReplacement(int64_t n, int64_t k, Rng* rng);

/// Draws `k` distinct values of population[0, size) (without replacement)
/// uniformly. If k >= size, returns the whole population.
std::vector<int32_t> SampleFrom(const int32_t* population, int64_t size,
                                int64_t k, Rng* rng);

/// Weighted sampling without replacement (Efraimidis–Spirakis A-Res): draws
/// up to `k` of items[0, count) with inclusion probability increasing in
/// `weights[i]`. Returns the selected items, in unspecified order.
///
/// Every item whose weight is not <= 0 (so NaN weights too) takes one
/// NextDouble(), in item order, and becomes the key log(u) / w; items with
/// weight <= 0 take none and are never drawn, and k <= 0 draws nothing.
/// The k largest keys win, taken with nth_element. A tie at the k-th key
/// is decided as a min-heap of (key, item) decides it, one that admits an
/// item while it holds fewer than k or when the item's key beats its
/// smallest: such a tie, or any NaN key, replays the draws through that
/// heap.
std::vector<int32_t> WeightedSampleWithoutReplacement(const int32_t* items,
                                                      const float* weights,
                                                      int64_t count, int64_t k,
                                                      Rng* rng);

/// Advances `rng` exactly as WeightedSampleWithoutReplacement(items,
/// weights, count, k, rng) does, without selecting anything, and returns the
/// number of items that sample keys (its result holds min(k, that many)
/// values). Stepping costs one Rng::Next() per keyed item, so a caller can
/// record the start state of many samples in one cheap pass and then run
/// them on any thread.
int64_t SkipWeightedSample(const float* weights, int64_t count, int64_t k,
                           Rng* rng);

}  // namespace kgeval

#endif  // KGEVAL_STATS_SAMPLING_H_
