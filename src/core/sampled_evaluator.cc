#include "core/sampled_evaluator.h"

#include <algorithm>
#include <atomic>
#include <numeric>

#include "eval/full_evaluator.h"
#include "eval/slot_blocks.h"
#include "sched/task_group.h"
#include "stats/confidence.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/timer.h"

namespace kgeval {
namespace {

/// Dies (KGEVAL_CHECK) unless every slot queried by the evaluated prefix
/// of `triples` has a non-empty, strictly increasing candidate pool of ids
/// in [0, num_entities) — the SampledCandidates contract the rankers'
/// index take-back relies on, checked once per pass instead of per block.
/// An empty pool would silently score the truth against nothing and report
/// rank 1 for every query of the slot — an optimistic estimate
/// indistinguishable from a perfect model. Slots the split never queries
/// are not checked and may be empty (their pools are never ranked against,
/// and the per-thread scratch only ever grows to the slots its own chunks
/// score).
void ValidateQueriedPools(const std::vector<Triple>& triples,
                          int64_t num_triples, int32_t num_relations,
                          int32_t num_entities,
                          const SampledCandidates& candidates) {
  // One flag per slot so each pool is checked once, not once per triple.
  std::vector<char> queried(2 * static_cast<size_t>(num_relations), 0);
  for (int64_t i = 0; i < num_triples; ++i) {
    for (QueryDirection dir : {QueryDirection::kHead, QueryDirection::kTail}) {
      queried[DomainRangeIndex(triples[i].relation, dir, num_relations)] = 1;
    }
  }
  for (size_t slot = 0; slot < queried.size(); ++slot) {
    if (!queried[slot]) continue;
    const std::vector<int32_t>& pool = candidates.pools[slot];
    const size_t n = pool.size();
    const size_t relation = slot < static_cast<size_t>(num_relations)
                                ? slot
                                : slot - num_relations;
    KGEVAL_CHECK(n > 0)
        << "empty candidate pool for queried slot " << slot << " (relation "
        << relation << ", "
        << (slot < static_cast<size_t>(num_relations) ? "head" : "tail")
        << " queries): ranking against an empty pool would report rank 1 "
        << "for every query of the slot";
    KGEVAL_CHECK(pool[0] >= 0 && pool[n - 1] < num_entities)
        << "candidate pool for queried slot " << slot
        << " holds an entity id outside [0, " << num_entities << ")";
    for (size_t i = 1; i < n; ++i) {
      KGEVAL_CHECK(pool[i] > pool[i - 1])
          << "candidate pool for queried slot " << slot
          << " is not strictly increasing at index " << i << " ("
          << pool[i - 1] << ", " << pool[i]
          << "): pools must be sorted and deduplicated";
    }
  }
}

}  // namespace

EstimateResult EvaluateSampled(const KgeModel& model, const Dataset& dataset,
                               const FilterIndex& filter, Split split,
                               const SampledCandidates& candidates,
                               const EstimateRequest& request) {
  WallTimer timer;
  const bool adaptive = request.adaptive.has_value();
  const std::vector<Triple>& triples = dataset.split(split);
  int64_t num_triples = static_cast<int64_t>(triples.size());
  // A fixed pass evaluates the split's prefix; an adaptive pass samples the
  // whole split and treats max_triples as a query budget.
  if (!adaptive && request.max_triples > 0) {
    num_triples = std::min(num_triples, request.max_triples);
  }
  const int32_t num_r = dataset.num_relations();
  ValidateQueriedPools(triples, num_triples, num_r, dataset.num_entities(),
                       candidates);

  EstimateResult result;
  result.sample_seconds = candidates.sample_seconds;
  result.ranks.assign(static_cast<size_t>(num_triples) * 2, 0.0);

  // A fixed pass is one round over every query in index order. An adaptive
  // pass consumes a uniform shuffle of *queries*, so every round — and
  // every prefix of rounds — is a simple random sample of the split's
  // query set: the running mean is unbiased and the iid interval honest.
  // (Shuffling slot blocks instead would make rounds cluster samples of
  // same-relation queries, whose correlated ranks bias small rounds and
  // shrink the effective sample size far below the query count.) Either
  // way RankQueries regroups a round's queries by slot for scoring.
  std::vector<int64_t> order;
  if (adaptive) {
    Rng rng(request.adaptive->shuffle_seed);
    order = ShuffledQueryOrder(num_triples, &rng);
  } else {
    order.resize(result.ranks.size());
    std::iota(order.begin(), order.end(), int64_t{0});
  }
  const size_t query_budget =
      adaptive && request.max_triples > 0
          ? std::min(2 * static_cast<size_t>(request.max_triples),
                     order.size())
          : order.size();
  const size_t round_queries =
      adaptive ? std::max<size_t>(1, request.adaptive->batch_queries)
               : order.size();
  // Every block of a slot ranks against the slot's pool, prepared in
  // kPoolTile-wide tiles into the chunk's scratch. The pool is strictly
  // increasing (ValidateQueriedPools), as the PoolIndex take-back requires.
  const SlotPoolSource prepare_slot =
      [&](int32_t slot, PreparedPool* scratch) -> const PreparedPool& {
    const std::vector<int32_t>& pool = candidates.pools[slot];
    scratch->Prepare(model, pool.data(), pool.size(), kPoolTile);
    return *scratch;
  };

  const double z = TwoSidedZ(kEstimateConfidence);
  RankingAccumulator acc;
  EvalSchedule schedule;  // Rebuilt each round, buffer capacity kept.
  size_t next_query = 0;
  while (next_query < query_budget) {
    if (request.cancel != nullptr && request.cancel->cancelled()) break;
    const size_t take = std::min(round_queries, query_budget - next_query);
    // An adaptive round holds few queries per pool slot, so its blocks
    // rarely fill kSampledQueryBlock anchors.
    result.scored_candidates += RankQueries(
        model, dataset, split, filter, order.data() + next_query, take,
        kSampledQueryBlock, TieBreak::kMean, prepare_slot, request.cancel,
        &schedule, result.ranks.data());
    // A cancel that landed mid-round left part of this round's ranks
    // unscored (0.0); folding them would poison the accumulator, so the
    // whole round is dropped and callers discard the result.
    if (request.cancel != nullptr && request.cancel->cancelled()) break;

    // Fold the round's ranks in query order: the ranks are bit-identical
    // however the chunks were threaded, so the accumulator — and with it
    // the CI and the stopping decision — is reproducible. A fixed pass
    // thereby folds every rank in index order.
    for (size_t k = next_query; k < next_query + take; ++k) {
      acc.Add(result.ranks[static_cast<size_t>(order[k])]);
    }
    next_query += take;
    if (!adaptive) continue;
    ++result.rounds;
    const double half_width =
        acc.CiHalfWidth(MetricKind::kMrr, z) *
        FinitePopulationCorrection(acc.count(), 2 * num_triples);
    result.half_width_history.push_back(half_width);
    if (acc.count() >= request.adaptive->min_queries &&
        half_width <= request.adaptive->target_half_width) {
      result.converged = true;
      break;
    }
  }

  result.cancelled =
      request.cancel != nullptr && request.cancel->cancelled();
  if (adaptive) {
    if (result.cancelled) result.converged = false;
    result.total_queries = 2 * num_triples;
    result.evaluated_queries = acc.count();
    result.metrics = acc.Metrics();
    result.ci = acc.Ci(z);
    const double fpc =
        FinitePopulationCorrection(acc.count(), result.total_queries);
    result.ci.mrr *= fpc;
    result.ci.hits1 *= fpc;
    result.ci.hits3 *= fpc;
    result.ci.hits10 *= fpc;
    result.ci.mean_rank *= fpc;
  } else if (!result.cancelled) {
    // A cancelled fixed pass abandoned some blocks, leaving their ranks at
    // 0.0 — metrics over partial ranks would be garbage (and rank 0 is
    // outside the accumulator's domain), so they stay zeroed.
    result.metrics = RankingMetrics::FromRanks(result.ranks);
    result.ci = acc.Ci(z);
  }
  result.eval_seconds = timer.Seconds();
  return result;
}

EstimateResult EvaluateSampledScalar(const KgeModel& model,
                                     const Dataset& dataset,
                                     const FilterIndex& filter, Split split,
                                     const SampledCandidates& candidates,
                                     const EstimateRequest& request) {
  WallTimer timer;
  const std::vector<Triple>& triples = dataset.split(split);
  int64_t num_triples = static_cast<int64_t>(triples.size());
  if (request.max_triples > 0) {
    num_triples = std::min(num_triples, request.max_triples);
  }
  const int32_t num_r = dataset.num_relations();
  ValidateQueriedPools(triples, num_triples, num_r, dataset.num_entities(),
                       candidates);

  EstimateResult result;
  result.sample_seconds = candidates.sample_seconds;
  result.ranks.assign(static_cast<size_t>(num_triples) * 2, 0.0);
  std::atomic<int64_t> scored{0};

  ParallelFor(
      0, static_cast<size_t>(num_triples),
      [&](size_t lo, size_t hi) {
        std::vector<float> scores;
        int64_t local_scored = 0;
        for (size_t i = lo; i < hi; ++i) {
          const Triple& triple = triples[i];
          for (QueryDirection dir :
               {QueryDirection::kTail, QueryDirection::kHead}) {
            const bool tail_dir = dir == QueryDirection::kTail;
            const int32_t anchor = tail_dir ? triple.head : triple.tail;
            const int32_t truth = tail_dir ? triple.tail : triple.head;
            const int32_t slot = DomainRangeIndex(triple.relation, dir, num_r);
            const std::vector<int32_t>& pool = candidates.pools[slot];
            scores.resize(pool.size() + 1);
            // Score the pool plus the true answer in one model call.
            model.ScoreCandidates(anchor, triple.relation, dir, pool.data(),
                                  pool.size(), scores.data());
            model.ScoreCandidates(anchor, triple.relation, dir, &truth, 1,
                                  scores.data() + pool.size());
            local_scored += static_cast<int64_t>(pool.size()) + 1;
            const std::vector<int32_t>* answers = filter.Answers(triple, dir);
            KGEVAL_CHECK(answers != nullptr);
            const double rank = FilteredRank(
                pool.data(), scores.data(), pool.size(), truth,
                scores[pool.size()], *answers, TieBreak::kMean,
                std::is_sorted(pool.begin(), pool.end()));
            result.ranks[i * 2 + (tail_dir ? 0 : 1)] = rank;
          }
        }
        scored.fetch_add(local_scored, std::memory_order_relaxed);
      },
      /*min_chunk=*/8);

  result.scored_candidates = scored.load();
  result.metrics = RankingMetrics::FromRanks(result.ranks);
  // The CI folds every rank in index order, as the fixed pass does.
  RankingAccumulator acc;
  for (double rank : result.ranks) acc.Add(rank);
  result.ci = acc.Ci(TwoSidedZ(kEstimateConfidence));
  result.eval_seconds = timer.Seconds();
  return result;
}

}  // namespace kgeval
