#ifndef KGEVAL_STATS_CORRELATION_H_
#define KGEVAL_STATS_CORRELATION_H_

#include <vector>

namespace kgeval {

/// Pearson product-moment correlation of two equal-length series.
/// Returns 0 when either series is constant or shorter than 2.
double PearsonCorrelation(const std::vector<double>& x,
                          const std::vector<double>& y);

/// Kendall tau-b rank correlation (handles ties; O(n^2), fine for the small
/// model-ranking vectors the paper uses it on). Returns 0 when all pairs are
/// tied in either series.
double KendallTau(const std::vector<double>& x, const std::vector<double>& y);

/// Mean absolute error between an estimate series and a reference series.
double MeanAbsoluteError(const std::vector<double>& estimate,
                         const std::vector<double>& truth);

/// Sample mean.
double Mean(const std::vector<double>& x);

/// Sample standard deviation (n-1 denominator; 0 if fewer than 2 points).
double StdDev(const std::vector<double>& x);

/// Half-width of the normal-approximation 95% confidence interval of the
/// mean: 1.96 * sd / sqrt(n).
double NormalCi95HalfWidth(const std::vector<double>& x);

}  // namespace kgeval

#endif  // KGEVAL_STATS_CORRELATION_H_
