#include "la/matrix.h"

#include <cmath>

namespace kgeval {

void Matrix::InitXavier(Rng* rng, size_t fan_in, size_t fan_out) {
  const float bound =
      std::sqrt(6.0f / static_cast<float>(fan_in + fan_out));
  InitUniform(rng, -bound, bound);
}

void Matrix::InitUniform(Rng* rng, float lo, float hi) {
  for (auto& v : data_) v = lo + (hi - lo) * rng->NextFloat();
}

}  // namespace kgeval
