#ifndef KGEVAL_UTIL_RNG_H_
#define KGEVAL_UTIL_RNG_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace kgeval {

/// Deterministic, seedable pseudo-random generator (xoshiro256** seeded via
/// splitmix64). Used everywhere instead of std::mt19937 so that results are
/// bit-identical across platforms and standard-library versions.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Returns the next 64 random bits. Defined inline: the synthetic
  /// generator draws about five per triple attempt, some 48 M for paper
  /// codex-m's 9.6 M attempts alone.
  uint64_t Next() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). `bound` must be > 0. Uses Lemire's
  /// nearly-divisionless method.
  uint64_t NextBounded(uint64_t bound);

  /// Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  /// Uniform float in [0, 1).
  float NextFloat();

  /// Fisher-Yates shuffle of `values`.
  template <typename T>
  void Shuffle(std::vector<T>* values) {
    for (size_t i = values->size(); i > 1; --i) {
      size_t j = static_cast<size_t>(NextBounded(i));
      std::swap((*values)[i - 1], (*values)[j]);
    }
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t state_[4];
};

/// Zipf-distributed integer sampler over {0, ..., n-1} with exponent `s`
/// (probability of rank k proportional to 1/(k+1)^s). Precomputes the CDF
/// and a guide table (Chen & Asau, 1974) of n buckets over [0, 1): a draw
/// u starts at its bucket's first possible index and scans forward, which
/// is expected O(1) and returns exactly lower_bound(cdf, u).
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double exponent);

  /// Draws one value in [0, n) from one NextDouble().
  size_t Sample(Rng* rng) const { return IndexOf(rng->NextDouble()); }

  /// The value drawn for uniform `u` in [0, 1): the first k with
  /// cdf[k] >= u.
  size_t IndexOf(double u) const {
    size_t k = guide_[Bucket(u)];
    while (cdf_[k] < u) ++k;
    return k;
  }

  size_t size() const { return cdf_.size(); }
  const std::vector<double>& cdf() const { return cdf_; }

 private:
  /// Monotone in u, which is all the guide table relies on.
  size_t Bucket(double u) const {
    const size_t b = static_cast<size_t>(u * static_cast<double>(cdf_.size()));
    return b < cdf_.size() ? b : cdf_.size() - 1;
  }

  std::vector<double> cdf_;
  /// guide_[b] = number of CDF entries whose bucket is below b. Every u in
  /// bucket b exceeds those entries, so the scan may start there; it stops
  /// by cdf_.back() == 1.0 > u at the latest.
  std::vector<uint32_t> guide_;
};

}  // namespace kgeval

#endif  // KGEVAL_UTIL_RNG_H_
