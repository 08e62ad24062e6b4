#include "core/sampled_evaluator.h"

#include <algorithm>
#include <atomic>

#include "eval/full_evaluator.h"
#include "eval/slot_blocks.h"
#include "sched/task_group.h"
#include "stats/confidence.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/timer.h"

namespace kgeval {
namespace {

/// Folds every rank into an accumulator (in index order, so the CI is
/// deterministic) and stamps the result's confidence half-widths.
void FillCi(EstimateResult* result) {
  RankingAccumulator acc;
  for (double rank : result->ranks) acc.Add(rank);
  result->ci = acc.Ci(TwoSidedZ(kEstimateConfidence));
}

/// Per-thread scratch for ScoreSlotBlocks. The prepared pool carries across
/// consecutive blocks, and calls, of the same slot, so slot-contiguous
/// schedules prepare each pool once.
struct SlotBlockScratch {
  BlockRankScratch rank;
  PreparedPool pool;
  int32_t pool_slot = -1;  // Slot that `pool` describes.
};

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
    queried[triples[i].relation] = 1;                  // Head query slot.
    queried[triples[i].relation + num_relations] = 1;  // Tail query slot.
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

/// The shared incremental core of the fixed and adaptive passes: ranks blocks
/// [begin, end) of a FilterIndex slot-contiguous schedule against
/// `candidates` through RankSlotBlock, preparing a slot's pool in
/// kPoolTile-wide tiles when the slot changes. Thread-safe across disjoint
/// block ranges (each thread brings its own scratch). Returns the evaluated
/// queries' pool sizes + 1 summed (the scalar oracle's scored candidates),
/// not the kernel rows computed: the served `scored=` field reads it. Ranks
/// are bit-identical regardless of how the schedule is cut into ranges or
/// threads. `cancel` (optional) is polled before every block.
int64_t ScoreSlotBlocks(const KgeModel& model,
                        const std::vector<Triple>& triples,
                        const FilterIndex& filter,
                        const SampledCandidates& candidates,
                        const std::vector<SlotBlock>& blocks, size_t begin,
                        size_t end, const CancelToken* cancel,
                        SlotBlockScratch* scratch, double* ranks) {
  int64_t scored = 0;
  for (size_t b = begin; b < end; ++b) {
    // The cancellation poll: one relaxed load per block of up to
    // kSampledQueryBlock distinct anchors. A cancelled pass stops scoring
    // here — worker tasks drain in one block instead of being orphaned
    // mid-evaluation.
    if (cancel != nullptr && cancel->cancelled()) break;
    const SlotBlock& block = blocks[b];
    const std::vector<int32_t>& pool = candidates.pools[block.pool_slot];
    if (block.pool_slot != scratch->pool_slot) {
      // Slot-contiguous schedules keep a slot's blocks adjacent, so the
      // pool is prepared at the slot's first block and reused by every
      // following block of the same slot (the gather stays hot in cache
      // for the scoring call right after). The pool is strictly increasing
      // (ValidateQueriedPools), as the PoolIndex take-back requires.
      scratch->pool.Prepare(model, pool.data(), pool.size(), kPoolTile);
      scratch->pool_slot = block.pool_slot;
    }
    RankSlotBlock(model, triples, filter, block, scratch->pool, TieBreak::kMean,
                  &scratch->rank, ranks);
    scored += static_cast<int64_t>(block.end - block.begin) *
              static_cast<int64_t>(pool.size() + 1);
  }
  return scored;
}

/// The adaptive pass behind EvaluateSampled (see its comment).
EstimateResult EvaluateAdaptive(const KgeModel& model, const Dataset& dataset,
                                const FilterIndex& filter, Split split,
                                const SampledCandidates& candidates,
                                const EstimateRequest& request) {
  const AdaptiveEvalOptions& options = *request.adaptive;
  WallTimer timer;
  const std::vector<Triple>& triples = dataset.split(split);
  const int64_t num_triples = static_cast<int64_t>(triples.size());
  const int32_t num_r = dataset.num_relations();
  ValidateQueriedPools(triples, num_triples, num_r, dataset.num_entities(),
                       candidates);

  EstimateResult result;
  result.sample_seconds = candidates.sample_seconds;
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

  const double z = TwoSidedZ(kEstimateConfidence);
  const int64_t query_budget = request.max_triples > 0
                                   ? std::min<int64_t>(2 * request.max_triples,
                                                       result.total_queries)
                                   : result.total_queries;
  const size_t batch_queries = std::max<size_t>(1, options.batch_queries);

  RankingAccumulator acc;
  // The round's schedule; rebuilt each round, buffer capacity kept.
  EvalSchedule round;
  size_t next_query = 0;
  while (next_query < order.size()) {
    // The between-rounds cancellation poll; blocks inside a round bail in
    // ScoreSlotBlocks through request.cancel.
    if (request.cancel != nullptr && request.cancel->cancelled()) break;
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
    // per-pass, so concurrent adaptive passes stay independent down to the
    // round granularity.
    TaskGroup round_group;
    SubmitSlotChunks(&round_group, round.blocks,
                     [&](size_t lo, size_t hi) {
                       SlotBlockScratch scratch;
                       const int64_t local_scored = ScoreSlotBlocks(
                           model, triples, filter, candidates, round.blocks, lo,
                           hi, request.cancel, &scratch, result.ranks.data());
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
    if (request.cancel != nullptr && request.cancel->cancelled()) break;

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
      request.cancel != nullptr && request.cancel->cancelled();
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

}  // namespace

EstimateResult EvaluateSampled(const KgeModel& model, const Dataset& dataset,
                               const FilterIndex& filter, Split split,
                               const SampledCandidates& candidates,
                               const EstimateRequest& request) {
  if (request.adaptive) {
    return EvaluateAdaptive(model, dataset, filter, split, candidates,
                            request);
  }
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

  // Slot-major order: every query block shares one (relation, direction)
  // candidate pool, so the pool's embeddings are gathered once and whole
  // query blocks are scored per kernel call. The filter index owns the
  // grouping and emission order; its contract is only that blocks sharing
  // a pool slot are contiguous.
  const EvalSchedule schedule =
      filter.BuildSchedule(triples, num_triples, kSampledQueryBlock);
  // Parallelism is over slot-aligned chunks, not raw block ranges: a chunk
  // boundary inside a slot would make both sides prepare the slot's pool.
  // The pass is its own TaskGroup, so a concurrent evaluation (another
  // model in an EvalSession, another session entirely) interleaves chunks
  // on the shared workers and neither pass waits on the other's work.
  TaskGroup group;
  SubmitSlotChunks(&group, schedule.blocks, [&](size_t lo, size_t hi) {
    SlotBlockScratch scratch;
    const int64_t local_scored =
        ScoreSlotBlocks(model, triples, filter, candidates, schedule.blocks, lo,
                        hi, request.cancel, &scratch, result.ranks.data());
    scored.fetch_add(local_scored, std::memory_order_relaxed);
  });
  group.Wait();

  result.cancelled =
      request.cancel != nullptr && request.cancel->cancelled();
  result.scored_candidates = scored.load();
  // A cancelled pass abandoned some blocks, leaving their ranks at 0.0 —
  // metrics over partial ranks would be garbage (and rank 0 is outside the
  // accumulator's domain), so they stay zeroed; callers discard a
  // cancelled result.
  if (!result.cancelled) {
    result.metrics = RankingMetrics::FromRanks(result.ranks);
    FillCi(&result);
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
  FillCi(&result);
  result.eval_seconds = timer.Seconds();
  return result;
}

}  // namespace kgeval
