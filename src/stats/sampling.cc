#include "stats/sampling.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <queue>
#include <utility>

#include "util/logging.h"

namespace kgeval {
namespace {

/// Whether A-Res keys an item of weight `weight` (and so draws for it).
bool Keyed(float weight) { return !(weight <= 0.0f); }

/// A-Res in log space: log(u) / w orders items as u^(1/w) does.
double NextKey(float weight, Rng* rng) {
  double u = rng->NextDouble();
  if (u <= 0.0) u = 1e-300;
  return std::log(u) / static_cast<double>(weight);
}

/// A-Res with a min-heap of (key, item): an item enters while the heap
/// holds fewer than k, or when its key beats the smallest. This decides
/// every tie at the k-th key, so WeightedSampleWithoutReplacement falls
/// back to it when one reaches the cut.
std::vector<int32_t> HeapSample(const int32_t* items, const float* weights,
                                int64_t count, int64_t k, Rng* rng) {
  using HeapEntry = std::pair<double, int32_t>;
  std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                      std::greater<HeapEntry>>
      heap;
  for (int64_t i = 0; i < count; ++i) {
    if (!Keyed(weights[i])) continue;
    const double key = NextKey(weights[i], rng);
    if (static_cast<int64_t>(heap.size()) < k) {
      heap.emplace(key, items[i]);
    } else if (key > heap.top().first) {
      heap.pop();
      heap.emplace(key, items[i]);
    }
  }
  std::vector<int32_t> out;
  out.reserve(heap.size());
  while (!heap.empty()) {
    out.push_back(heap.top().second);
    heap.pop();
  }
  return out;
}

}  // namespace

std::vector<int32_t> SampleWithoutReplacement(int64_t n, int64_t k, Rng* rng) {
  KGEVAL_CHECK_GE(n, 0);
  if (k >= n) {
    std::vector<int32_t> all(n);
    std::iota(all.begin(), all.end(), 0);
    return all;
  }
  std::vector<int32_t> out;
  out.reserve(k);
  std::vector<char> chosen(static_cast<size_t>(n), 0);
  // Floyd's algorithm: for j in [n-k, n), draw t in [0, j]; take t unless
  // already chosen, in which case take j (never chosen before step j).
  for (int64_t j = n - k; j < n; ++j) {
    const auto t = static_cast<int32_t>(rng->NextBounded(j + 1));
    const int32_t take = chosen[t] ? static_cast<int32_t>(j) : t;
    chosen[take] = 1;
    out.push_back(take);
  }
  return out;
}

std::vector<int32_t> SampleFrom(const int32_t* population, int64_t size,
                                int64_t k, Rng* rng) {
  if (k >= size) return std::vector<int32_t>(population, population + size);
  std::vector<int32_t> idx = SampleWithoutReplacement(size, k, rng);
  std::vector<int32_t> out;
  out.reserve(idx.size());
  for (int32_t i : idx) out.push_back(population[i]);
  return out;
}

std::vector<int32_t> WeightedSampleWithoutReplacement(const int32_t* items,
                                                      const float* weights,
                                                      int64_t count, int64_t k,
                                                      Rng* rng) {
  if (k <= 0) return {};
  const Rng start = *rng;
  std::vector<std::pair<double, int32_t>> keyed;
  keyed.reserve(static_cast<size_t>(count));
  bool has_nan = false;
  for (int64_t i = 0; i < count; ++i) {
    if (!Keyed(weights[i])) continue;
    const double key = NextKey(weights[i], rng);
    has_nan |= std::isnan(key);
    keyed.emplace_back(key, items[i]);
  }
  std::vector<int32_t> out;
  if (static_cast<int64_t>(keyed.size()) <= k) {
    out.reserve(keyed.size());
    for (const auto& entry : keyed) out.push_back(entry.second);
    return out;
  }
  // NaN keys would break nth_element's strict weak order; only the heap
  // knows where they land.
  if (!has_nan) {
    const auto cut = keyed.begin() + (k - 1);
    std::nth_element(
        keyed.begin(), cut, keyed.end(),
        [](const auto& a, const auto& b) { return a.first > b.first; });
    const double kth = cut->first;
    const bool tied = std::any_of(
        cut + 1, keyed.end(), [kth](const auto& e) { return e.first == kth; });
    // Without a tie across the cut, the k winners are exactly the items
    // keyed at least kth, which is the set the heap keeps.
    if (!tied) {
      out.reserve(k);
      for (auto it = keyed.begin(); it <= cut; ++it) out.push_back(it->second);
      return out;
    }
  }
  // Replays the same draws, so `rng` ends where it is now.
  Rng replay = start;
  return HeapSample(items, weights, count, k, &replay);
}

int64_t SkipWeightedSample(const float* weights, int64_t count, int64_t k,
                           Rng* rng) {
  if (k <= 0) return 0;
  int64_t keyed = 0;
  for (int64_t i = 0; i < count; ++i) {
    if (!Keyed(weights[i])) continue;
    rng->Next();
    ++keyed;
  }
  return keyed;
}

}  // namespace kgeval
