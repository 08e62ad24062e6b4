#include "eval/metrics.h"

#include "stats/confidence.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace kgeval {

double RankFromCounts(int64_t num_higher, int64_t num_tied, TieBreak tie) {
  KGEVAL_DCHECK(num_higher >= 0 && num_tied >= 0);
  switch (tie) {
    case TieBreak::kMean:
      return 1.0 + static_cast<double>(num_higher) +
             static_cast<double>(num_tied) / 2.0;
    case TieBreak::kOptimistic:
      return 1.0 + static_cast<double>(num_higher);
    case TieBreak::kPessimistic:
      return 1.0 + static_cast<double>(num_higher) +
             static_cast<double>(num_tied);
  }
  return 1.0;
}

double RankingMetrics::Get(MetricKind kind) const {
  switch (kind) {
    case MetricKind::kMrr:
      return mrr;
    case MetricKind::kHits1:
      return hits1;
    case MetricKind::kHits3:
      return hits3;
    case MetricKind::kHits10:
      return hits10;
  }
  return 0.0;
}

std::string RankingMetrics::ToString() const {
  return StrFormat(
      "MRR=%.4f Hits@1=%.4f Hits@3=%.4f Hits@10=%.4f MR=%.1f (n=%lld)", mrr,
      hits1, hits3, hits10, mean_rank,
      static_cast<long long>(num_queries));
}

RankingMetrics RankingMetrics::FromRanks(const std::vector<double>& ranks) {
  RankingMetrics m;
  m.num_queries = static_cast<int64_t>(ranks.size());
  if (ranks.empty()) return m;
  for (double rank : ranks) {
    m.mrr += 1.0 / rank;
    m.hits1 += rank <= 1.0 ? 1.0 : 0.0;
    m.hits3 += rank <= 3.0 ? 1.0 : 0.0;
    m.hits10 += rank <= 10.0 ? 1.0 : 0.0;
    m.mean_rank += rank;
  }
  const double n = static_cast<double>(ranks.size());
  m.mrr /= n;
  m.hits1 /= n;
  m.hits3 /= n;
  m.hits10 /= n;
  m.mean_rank /= n;
  return m;
}

namespace {

/// Maps a metric to its Welford-state index inside RankingAccumulator.
int StatIndex(MetricKind kind) {
  switch (kind) {
    case MetricKind::kMrr:
      return 0;
    case MetricKind::kHits1:
      return 1;
    case MetricKind::kHits3:
      return 2;
    case MetricKind::kHits10:
      return 3;
  }
  return 0;
}

constexpr int kMeanRankStat = 4;

}  // namespace

void RankingAccumulator::Add(double rank) {
  KGEVAL_DCHECK(rank >= 1.0);
  const double x[kNumStats] = {1.0 / rank, rank <= 1.0 ? 1.0 : 0.0,
                               rank <= 3.0 ? 1.0 : 0.0,
                               rank <= 10.0 ? 1.0 : 0.0, rank};
  ++n_;
  for (int s = 0; s < kNumStats; ++s) {
    const double delta = x[s] - mean_[s];
    mean_[s] += delta / static_cast<double>(n_);
    m2_[s] += delta * (x[s] - mean_[s]);
  }
}

RankingMetrics RankingAccumulator::Metrics() const {
  RankingMetrics m;
  m.num_queries = n_;
  if (n_ == 0) return m;
  m.mrr = mean_[0];
  m.hits1 = mean_[1];
  m.hits3 = mean_[2];
  m.hits10 = mean_[3];
  m.mean_rank = mean_[kMeanRankStat];
  return m;
}

double RankingAccumulator::SampleVariance(MetricKind kind) const {
  if (n_ < 2) return 0.0;
  return m2_[StatIndex(kind)] / static_cast<double>(n_ - 1);
}

double RankingAccumulator::CiHalfWidth(MetricKind kind, double z) const {
  return NormalCiHalfWidth(SampleVariance(kind), n_, z);
}

RankingCi RankingAccumulator::Ci(double z) const {
  RankingCi ci;
  ci.z = z;
  ci.num_queries = n_;
  if (n_ < 2) return ci;
  ci.mrr = CiHalfWidth(MetricKind::kMrr, z);
  ci.hits1 = CiHalfWidth(MetricKind::kHits1, z);
  ci.hits3 = CiHalfWidth(MetricKind::kHits3, z);
  ci.hits10 = CiHalfWidth(MetricKind::kHits10, z);
  ci.mean_rank =
      NormalCiHalfWidth(m2_[kMeanRankStat] / static_cast<double>(n_ - 1), n_,
                        z);
  return ci;
}

}  // namespace kgeval
