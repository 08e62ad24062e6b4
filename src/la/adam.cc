#include "la/adam.h"

#include <cmath>

namespace kgeval {
namespace {

constexpr float kBeta1 = 0.9f;
constexpr float kBeta2 = 0.999f;
constexpr float kEpsilon = 1e-8f;

}  // namespace

AdamState::AdamState(size_t rows, size_t cols, AdamOptions options)
    : options_(options), rows_(rows), cols_(cols) {}

void AdamState::UpdateRow(Matrix* param, size_t r, const float* grad) {
  if (beta1_pow_.empty()) {
    m_ = Matrix(rows_, cols_, 0.0f);
    v_ = Matrix(rows_, cols_, 0.0f);
    beta1_pow_.assign(rows_, 1.0f);
    beta2_pow_.assign(rows_, 1.0f);
  }
  beta1_pow_[r] *= kBeta1;
  beta2_pow_[r] *= kBeta2;
  const float correction1 = 1.0f - beta1_pow_[r];
  const float correction2 = 1.0f - beta2_pow_[r];
  const float lr = options_.learning_rate;
  float* m = m_.Row(r);
  float* v = v_.Row(r);
  float* p = param->Row(r);
  for (size_t i = 0; i < cols_; ++i) {
    m[i] = kBeta1 * m[i] + (1.0f - kBeta1) * grad[i];
    v[i] = kBeta2 * v[i] + (1.0f - kBeta2) * grad[i] * grad[i];
    const float m_hat = m[i] / correction1;
    const float v_hat = v[i] / correction2;
    p[i] -= lr * m_hat / (std::sqrt(v_hat) + kEpsilon);
  }
}

}  // namespace kgeval
