#include "stats/correlation.h"

#include <cmath>
#include <numeric>

#include "util/logging.h"

namespace kgeval {

double Mean(const std::vector<double>& x) {
  if (x.empty()) return 0.0;
  return std::accumulate(x.begin(), x.end(), 0.0) /
         static_cast<double>(x.size());
}

double StdDev(const std::vector<double>& x) {
  if (x.size() < 2) return 0.0;
  const double mu = Mean(x);
  double acc = 0.0;
  for (double v : x) acc += (v - mu) * (v - mu);
  return std::sqrt(acc / static_cast<double>(x.size() - 1));
}

double NormalCi95HalfWidth(const std::vector<double>& x) {
  if (x.size() < 2) return 0.0;
  return 1.96 * StdDev(x) / std::sqrt(static_cast<double>(x.size()));
}

double PearsonCorrelation(const std::vector<double>& x,
                          const std::vector<double>& y) {
  KGEVAL_CHECK_EQ(x.size(), y.size());
  const size_t n = x.size();
  if (n < 2) return 0.0;
  const double mx = Mean(x);
  const double my = Mean(y);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double dx = x[i] - mx;
    const double dy = y[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

double KendallTau(const std::vector<double>& x, const std::vector<double>& y) {
  KGEVAL_CHECK_EQ(x.size(), y.size());
  const size_t n = x.size();
  if (n < 2) return 0.0;
  long long concordant = 0, discordant = 0, ties_x = 0, ties_y = 0;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      const double dx = x[i] - x[j];
      const double dy = y[i] - y[j];
      if (dx == 0.0 && dy == 0.0) {
        ++ties_x;
        ++ties_y;
      } else if (dx == 0.0) {
        ++ties_x;
      } else if (dy == 0.0) {
        ++ties_y;
      } else if ((dx > 0) == (dy > 0)) {
        ++concordant;
      } else {
        ++discordant;
      }
    }
  }
  const long long total = static_cast<long long>(n) * (n - 1) / 2;
  const double denom = std::sqrt(static_cast<double>(total - ties_x)) *
                       std::sqrt(static_cast<double>(total - ties_y));
  if (denom <= 0.0) return 0.0;
  return static_cast<double>(concordant - discordant) / denom;
}

double MeanAbsoluteError(const std::vector<double>& estimate,
                         const std::vector<double>& truth) {
  KGEVAL_CHECK_EQ(estimate.size(), truth.size());
  if (estimate.empty()) return 0.0;
  double acc = 0.0;
  for (size_t i = 0; i < estimate.size(); ++i) {
    acc += std::fabs(estimate[i] - truth[i]);
  }
  return acc / static_cast<double>(estimate.size());
}

}  // namespace kgeval
