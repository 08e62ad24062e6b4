#include "la/adam.h"

#include <cmath>

namespace kgeval {

AdamState::AdamState(size_t rows, size_t cols, AdamOptions options)
    : options_(options), rows_(rows), cols_(cols) {}

void AdamState::UpdateRow(Matrix* param, size_t r, const float* grad) {
  if (beta1_pow_.empty()) {
    m_ = Matrix(rows_, cols_, 0.0f);
    v_ = Matrix(rows_, cols_, 0.0f);
    beta1_pow_.assign(rows_, 1.0f);
    beta2_pow_.assign(rows_, 1.0f);
  }
  const float b1 = options_.beta1;
  const float b2 = options_.beta2;
  beta1_pow_[r] *= b1;
  beta2_pow_[r] *= b2;
  const float correction1 = 1.0f - beta1_pow_[r];
  const float correction2 = 1.0f - beta2_pow_[r];
  const float lr = options_.learning_rate;
  const float eps = options_.epsilon;
  float* m = m_.Row(r);
  float* v = v_.Row(r);
  float* p = param->Row(r);
  for (size_t i = 0; i < cols_; ++i) {
    m[i] = b1 * m[i] + (1.0f - b1) * grad[i];
    v[i] = b2 * v[i] + (1.0f - b2) * grad[i] * grad[i];
    const float m_hat = m[i] / correction1;
    const float v_hat = v[i] / correction2;
    p[i] -= lr * m_hat / (std::sqrt(v_hat) + eps);
  }
}

}  // namespace kgeval
