#include "util/rng.h"

#include <cmath>

#include "util/logging.h"

namespace kgeval {
namespace {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : state_) s = SplitMix64(&sm);
}

uint64_t Rng::NextBounded(uint64_t bound) {
  KGEVAL_DCHECK(bound > 0);
  // Lemire's method with rejection to remove modulo bias.
  __uint128_t m = static_cast<__uint128_t>(Next()) * bound;
  uint64_t low = static_cast<uint64_t>(m);
  if (low < bound) {
    uint64_t threshold = (0 - bound) % bound;
    while (low < threshold) {
      m = static_cast<__uint128_t>(Next()) * bound;
      low = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

float Rng::NextFloat() {
  return static_cast<float>(Next() >> 40) * 0x1.0p-24f;
}

ZipfSampler::ZipfSampler(size_t n, double exponent) {
  KGEVAL_CHECK(n > 0);
  cdf_.resize(n);
  double total = 0.0;
  for (size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), exponent);
    cdf_[k] = total;
  }
  for (auto& v : cdf_) v /= total;
  cdf_.back() = 1.0;  // Guard against floating-point shortfall.

  KGEVAL_CHECK(n <= UINT32_MAX);
  guide_.resize(n);
  size_t k = 0;
  for (size_t b = 0; b < n; ++b) {
    while (Bucket(cdf_[k]) < b) ++k;
    guide_[b] = static_cast<uint32_t>(k);
  }
}

}  // namespace kgeval
