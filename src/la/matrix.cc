#include "la/matrix.h"

#include <cmath>

namespace kgeval {

void Matrix::InitXavier(Rng* rng, size_t fan_in, size_t fan_out) {
  const float bound =
      std::sqrt(6.0f / static_cast<float>(fan_in + fan_out));
  InitUniform(rng, -bound, bound);
}

void Matrix::InitUniform(Rng* rng, float lo, float hi) {
  float* v = data();
  for (size_t i = 0; i < size(); ++i) {
    v[i] = lo + (hi - lo) * rng->NextFloat();
  }
}

}  // namespace kgeval
