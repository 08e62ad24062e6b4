#include "core/adaptive_evaluator.h"

#include <algorithm>
#include <atomic>

#include "sched/task_group.h"
#include "stats/confidence.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/timer.h"

namespace kgeval {

AdaptiveEvalResult EvaluateAdaptive(const KgeModel& model,
                                    const Dataset& dataset,
                                    const FilterIndex& filter, Split split,
                                    const SampledCandidates& candidates,
                                    const AdaptiveEvalOptions& options) {
  WallTimer timer;
  const std::vector<Triple>& triples = dataset.split(split);
  const int64_t num_triples = static_cast<int64_t>(triples.size());
  const int32_t num_r = dataset.num_relations();
  ValidateQueriedPools(triples, num_triples, num_r, dataset.num_entities(),
                       candidates);

  AdaptiveEvalResult result;
  result.total_queries = 2 * num_triples;
  result.ranks.assign(static_cast<size_t>(result.total_queries), 0.0);

  // The schedule is a uniform shuffle of *queries*, so every round — and
  // every prefix of rounds — is a simple random sample of the split's
  // query set: the running mean is unbiased and the iid interval honest.
  // (Shuffling slot blocks instead would make rounds cluster samples of
  // same-relation queries, whose correlated ranks bias small rounds and
  // shrink the effective sample size far below the query count.) Each
  // round's queries are regrouped by relation purely for scoring
  // efficiency.
  Rng rng(options.shuffle_seed);
  const std::vector<int64_t> order = ShuffledQueryOrder(num_triples, &rng);

  SampledEvalOptions eval_options;
  eval_options.cancel = options.cancel;

  const double z = TwoSidedZ(kEstimateConfidence);
  const int64_t query_budget = options.max_triples > 0
                                   ? std::min<int64_t>(2 * options.max_triples,
                                                       result.total_queries)
                                   : result.total_queries;
  const size_t batch_queries = std::max<size_t>(1, options.batch_queries);

  RankingAccumulator acc;
  // The round's schedule; rebuilt each round, buffer capacity kept.
  EvalSchedule round;
  size_t next_query = 0;
  while (next_query < order.size()) {
    // The between-rounds cancellation poll; blocks inside a round bail in
    // ScoreSlotBlocks through eval_options.cancel.
    if (options.cancel != nullptr && options.cancel->cancelled()) break;
    if (acc.count() >= query_budget) break;
    const size_t take = std::min(
        {batch_queries, order.size() - next_query,
         static_cast<size_t>(query_budget - acc.count())});
    const size_t round_begin = next_query;
    // The per-relation runs of a round are small, so blocks rarely fill
    // kSampledQueryBlock anchors.
    filter.BuildQuerySchedule(triples, order.data() + round_begin, take,
                              kSampledQueryBlock, &round);
    next_query += take;
    std::atomic<int64_t> scored{0};
    // Each round is its own TaskGroup: the wait at the end of the round is
    // per-pass, so concurrent adaptive passes (EstimateAdaptiveMany) stay
    // independent down to the round granularity.
    TaskGroup round_group;
    SubmitSlotChunks(&round_group, round.blocks,
                     [&](size_t lo, size_t hi) {
                       SlotBlockScratch scratch;
                       const int64_t local_scored = ScoreSlotBlocks(
                           model, triples, filter, candidates, round.blocks, lo,
                           hi, eval_options, &scratch, result.ranks.data());
                       scored.fetch_add(local_scored,
                                        std::memory_order_relaxed);
                     });
    round_group.Wait();
    result.scored_candidates += scored.load();

    // A cancel that landed mid-round left part of this round's ranks
    // unscored (0.0); folding them would poison the accumulator, so the
    // whole round is dropped — the accumulator then holds only fully
    // scored rounds and the (discarded-by-callers) partial metrics below
    // stay well-defined.
    if (options.cancel != nullptr && options.cancel->cancelled()) break;

    // Fold the round's ranks in schedule order: the scored ranks are
    // bit-identical however the chunks were threaded, so the accumulator —
    // and with it the stopping decision — is reproducible.
    for (size_t k = round_begin; k < next_query; ++k) {
      acc.Add(result.ranks[static_cast<size_t>(order[k])]);
    }
    ++result.rounds;

    const double half_width =
        acc.CiHalfWidth(MetricKind::kMrr, z) *
        FinitePopulationCorrection(acc.count(), result.total_queries);
    result.half_width_history.push_back(half_width);
    if (acc.count() >= options.min_queries &&
        half_width <= options.target_half_width) {
      result.converged = true;
      break;
    }
  }

  result.cancelled =
      options.cancel != nullptr && options.cancel->cancelled();
  if (result.cancelled) result.converged = false;
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
  result.eval_seconds = timer.Seconds();
  return result;
}

}  // namespace kgeval
