#ifndef KGEVAL_EVAL_METRICS_H_
#define KGEVAL_EVAL_METRICS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace kgeval {

/// Ranking metrics the paper reports: filtered MRR and Hits@{1,3,10}.
enum class MetricKind { kMrr = 0, kHits1, kHits3, kHits10 };

/// How the rank of the true answer is resolved among score ties.
/// kMean is the LibKGE "realistic" convention used as this library's default;
/// the alternatives exist for the tie-handling ablation bench.
enum class TieBreak { kMean = 0, kOptimistic, kPessimistic };

/// Converts tie/higher counts into a (possibly fractional) 1-based rank.
double RankFromCounts(int64_t num_higher, int64_t num_tied, TieBreak tie);

/// Aggregated results of a ranking evaluation.
struct RankingMetrics {
  double mrr = 0.0;
  double hits1 = 0.0;
  double hits3 = 0.0;
  double hits10 = 0.0;
  double mean_rank = 0.0;
  int64_t num_queries = 0;

  double Get(MetricKind kind) const;
  std::string ToString() const;

  /// Aggregates a vector of per-query ranks.
  static RankingMetrics FromRanks(const std::vector<double>& ranks);
};

/// Normal-approximation confidence half-widths around the matching
/// RankingMetrics fields: metric +/- half-width is the two-sided interval at
/// the quantile `z` (1.96 for 95%). Describes query-sampling noise — how far
/// the mean over the evaluated queries may sit from the mean over *all*
/// queries — not the candidate-pool bias of the sampling strategy (which is
/// what Section 4 / the recommenders address).
struct RankingCi {
  double mrr = 0.0;
  double hits1 = 0.0;
  double hits3 = 0.0;
  double hits10 = 0.0;
  double mean_rank = 0.0;
  double z = 0.0;            // Quantile the half-widths were computed at.
  int64_t num_queries = 0;
};

/// Streaming aggregator over per-query ranks: running mean and variance
/// (Welford) of every per-query statistic behind RankingMetrics (reciprocal
/// rank, the Hits@k indicators, the raw rank). The incremental core of the
/// adaptive evaluator — metrics and confidence half-widths are available
/// after every Add, in O(1), so an evaluation can stop as soon as its
/// interval is tight enough.
class RankingAccumulator {
 public:
  /// Folds in one query's (1-based, possibly fractional) rank.
  void Add(double rank);

  int64_t count() const { return n_; }

  /// Aggregated metrics over the ranks seen so far.
  RankingMetrics Metrics() const;

  /// Running unbiased sample variance of one metric's per-query statistic
  /// (0 until two ranks are seen).
  double SampleVariance(MetricKind kind) const;

  /// Normal-approximation CI half-width of one metric at quantile `z`.
  double CiHalfWidth(MetricKind kind, double z) const;

  /// Half-widths for all metrics at quantile `z`.
  RankingCi Ci(double z) const;

 private:
  // Per-query statistics, one Welford state each: reciprocal rank, the
  // three Hits@k indicators, the raw rank.
  static constexpr int kNumStats = 5;
  int64_t n_ = 0;
  double mean_[kNumStats] = {0, 0, 0, 0, 0};
  double m2_[kNumStats] = {0, 0, 0, 0, 0};
};

}  // namespace kgeval

#endif  // KGEVAL_EVAL_METRICS_H_
