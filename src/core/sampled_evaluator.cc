#include "core/sampled_evaluator.h"

#include <algorithm>
#include <atomic>

#include "sched/task_group.h"
#include "stats/confidence.h"
#include "util/logging.h"
#include "util/timer.h"

namespace kgeval {
namespace {

/// Folds every rank into an accumulator (in index order, so the CI is
/// deterministic) and stamps the result's confidence half-widths.
void FillCi(SampledEvalResult* result) {
  RankingAccumulator acc;
  for (double rank : result->ranks) acc.Add(rank);
  result->ci = acc.Ci(TwoSidedZ(kEstimateConfidence));
}

}  // namespace

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

int64_t ScoreSlotBlocks(const KgeModel& model,
                        const std::vector<Triple>& triples,
                        const FilterIndex& filter,
                        const SampledCandidates& candidates,
                        const std::vector<SlotBlock>& blocks, size_t begin,
                        size_t end, const SampledEvalOptions& options,
                        SlotBlockScratch* scratch, double* ranks) {
  int64_t scored = 0;
  for (size_t b = begin; b < end; ++b) {
    // The cancellation poll: one relaxed load per block of up to
    // kSampledQueryBlock distinct anchors. A cancelled pass stops scoring
    // here — worker tasks drain in one block instead of being orphaned
    // mid-evaluation.
    if (options.cancel != nullptr && options.cancel->cancelled()) break;
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

SampledEvalResult EvaluateSampled(const KgeModel& model,
                                  const Dataset& dataset,
                                  const FilterIndex& filter, Split split,
                                  const SampledCandidates& candidates,
                                  const SampledEvalOptions& options) {
  WallTimer timer;
  const std::vector<Triple>& triples = dataset.split(split);
  int64_t num_triples = static_cast<int64_t>(triples.size());
  if (options.max_triples > 0) {
    num_triples = std::min(num_triples, options.max_triples);
  }
  const int32_t num_r = dataset.num_relations();
  ValidateQueriedPools(triples, num_triples, num_r, dataset.num_entities(),
                       candidates);

  SampledEvalResult result;
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
                        hi, options, &scratch, result.ranks.data());
    scored.fetch_add(local_scored, std::memory_order_relaxed);
  });
  group.Wait();

  result.cancelled =
      options.cancel != nullptr && options.cancel->cancelled();
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

SampledEvalResult EvaluateSampledScalar(const KgeModel& model,
                                        const Dataset& dataset,
                                        const FilterIndex& filter, Split split,
                                        const SampledCandidates& candidates,
                                        const SampledEvalOptions& options) {
  WallTimer timer;
  const std::vector<Triple>& triples = dataset.split(split);
  int64_t num_triples = static_cast<int64_t>(triples.size());
  if (options.max_triples > 0) {
    num_triples = std::min(num_triples, options.max_triples);
  }
  const int32_t num_r = dataset.num_relations();
  ValidateQueriedPools(triples, num_triples, num_r, dataset.num_entities(),
                       candidates);

  SampledEvalResult result;
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
