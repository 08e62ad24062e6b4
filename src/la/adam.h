#ifndef KGEVAL_LA_ADAM_H_
#define KGEVAL_LA_ADAM_H_

#include <cstddef>
#include <vector>

#include "la/matrix.h"

namespace kgeval {

/// Hyper-parameters for Adam. Only the step size is tunable; the moment
/// decay rates and the denominator epsilon are the usual constants
/// (beta1 = 0.9, beta2 = 0.999, epsilon = 1e-8; see adam.cc).
struct AdamOptions {
  float learning_rate = 1e-3f;
};

/// Adam state for one parameter matrix with *sparse row updates*: embedding
/// training touches only a few rows per step, so moments are stored per row
/// and bias correction uses a per-row step counter (a.k.a. lazy Adam). Dense
/// parameters (e.g., ConvE filters) simply update every row each step.
///
/// The moments come into existence at the first update: construction only
/// records the shape, so a model that is only evaluated (every loaded
/// checkpoint) never holds them. Not thread-safe — the first UpdateRow
/// allocates. Models call it only from KgeModel::UpdateTriple, which must
/// not run concurrently with any other call on the same model, and a
/// training run uses one thread.
class AdamState {
 public:
  AdamState(size_t rows, size_t cols, AdamOptions options);

  /// Applies one Adam update to `param`'s row `r` with gradient `grad`
  /// (length cols). The first call allocates zeroed moments and unit beta
  /// powers for every row.
  void UpdateRow(Matrix* param, size_t r, const float* grad);

 private:
  AdamOptions options_;
  size_t rows_;
  size_t cols_;
  Matrix m_;  // First-moment estimates (empty until the first update).
  Matrix v_;  // Second-moment estimates (empty until the first update).
  // Running beta powers per row (beta^t maintained incrementally instead of
  // calling pow() twice per update — the updates are hot).
  std::vector<float> beta1_pow_;
  std::vector<float> beta2_pow_;
};

}  // namespace kgeval

#endif  // KGEVAL_LA_ADAM_H_
