#include "eval/full_evaluator.h"

#include <algorithm>
#include <atomic>
#include <numeric>

#include "sched/task_group.h"
#include "util/logging.h"

namespace kgeval {
namespace {

/// Branch-free higher/tied counts of `row[0, n)` against a truth score
/// (n < 2^31). The loop has no data-dependent branch, so the compiler
/// vectorizes it.
struct RowCounts {
  int64_t higher = 0;
  int64_t tied = 0;
};
RowCounts CountHigherTied(const float* row, size_t n, float truth_score) {
  // 32-bit accumulators: twice the lanes of int64 per vector register.
  int32_t h = 0, t = 0;
  for (size_t i = 0; i < n; ++i) {
    h += row[i] > truth_score;
    t += row[i] == truth_score;
  }
  return {h, t};
}

/// Distinct anchors per full-ranking block (queries that repeat an anchor
/// share its row, so a block may hold more queries).
constexpr size_t kQueryBlock = 16;

}  // namespace

void PoolIndex::Build(const int32_t* ids, size_t n) {
  const size_t words = n == 0 ? 0 : static_cast<size_t>(ids[n - 1]) / 64 + 1;
  bits_.assign(words, 0);
  rank_.resize(words);
  for (size_t i = 0; i < n; ++i) {
    KGEVAL_CHECK(ids[i] >= 0 && (i == 0 || ids[i] > ids[i - 1]))
        << "PoolIndex needs strictly increasing non-negative ids (index "
        << i << ")";
    bits_[static_cast<size_t>(ids[i]) >> 6] |= uint64_t{1} << (ids[i] & 63);
  }
  int32_t count = 0;
  for (size_t w = 0; w < words; ++w) {
    rank_[w] = count;
    count += __builtin_popcountll(bits_[w]);
  }
}

void PreparedPool::Prepare(const KgeModel& model, const int32_t* ids,
                           size_t n, size_t tile) {
  index.Build(ids, n);
  size = n;
  tile_size = tile;
  tiles.resize((n + tile - 1) / tile);
  for (size_t t = 0; t < tiles.size(); ++t) {
    const size_t lo = t * tile;
    model.PrepareCandidates(ids + lo, std::min(n, lo + tile) - lo, &tiles[t]);
  }
}

void AddFilteredTileCounts(const float* row, size_t lo, size_t n,
                           float truth_score,
                           const std::vector<int32_t>& answers,
                           const PoolIndex& index, int64_t* higher,
                           int64_t* tied) {
  const RowCounts counts = CountHigherTied(row, n, truth_score);
  *higher += counts.higher;
  *tied += counts.tied;
  for (size_t a = 0; a < answers.size(); ++a) {
    if (a > 0 && answers[a] == answers[a - 1]) continue;  // Deduplicate.
    // An absent answer (-1) wraps to SIZE_MAX, outside every tile.
    const size_t offset = static_cast<size_t>(index.Find(answers[a])) - lo;
    if (offset >= n) continue;
    *higher -= row[offset] > truth_score;
    *tied -= row[offset] == truth_score;
  }
}

void RankSlotBlock(const KgeModel& model, const std::vector<Triple>& triples,
                   const FilterIndex& filter, const EvalSchedule& schedule,
                   const SlotBlock& block, const PreparedPool& pool,
                   TieBreak tie, BlockRankScratch* scratch, double* ranks) {
  const size_t qb = block.end - block.begin;
  const size_t rows = block.row_end - block.row_begin;
  const int32_t* idx = schedule.triple_idx.data() + block.begin;
  const int32_t* truths = schedule.truths.data() + block.begin;
  const int32_t* truth_rows = schedule.truth_rows.data() + block.begin;
  const int32_t* anchors = schedule.anchors.data() + block.row_begin;
  BlockRankScratch& s = *scratch;
  if (s.truth_scores.size() < qb) {
    s.truth_scores.resize(qb);
    s.answers.resize(qb);
    s.higher.resize(qb);
    s.tied.resize(qb);
  }
  if (!pool.tiles.empty() && s.scores.size() < rows * pool.tiles[0].size()) {
    s.scores.resize(rows * pool.tiles[0].size());
  }
  for (size_t q = 0; q < qb; ++q) {
    s.answers[q] = filter.Answers(triples[idx[q]], block.direction);
    KGEVAL_CHECK(s.answers[q] != nullptr);
    s.higher[q] = 0;
    s.tied[q] = 0;
  }
  for (size_t t = 0; t < pool.tiles.size(); ++t) {
    const CandidateBlock& tile = pool.tiles[t];
    const size_t n = tile.size();
    // The first tile's fused call also emits the truth scores: one query
    // construction per distinct anchor serves both.
    model.ScoreBlock(anchors, t == 0 ? truths : nullptr, rows, block.relation,
                     block.direction, tile, s.scores.data(),
                     t == 0 ? s.truth_scores.data() : nullptr, truth_rows, qb);
    for (size_t q = 0; q < qb; ++q) {
      AddFilteredTileCounts(s.scores.data() +
                                static_cast<size_t>(truth_rows[q]) * n,
                            t * pool.tile_size, n, s.truth_scores[q],
                            *s.answers[q], pool.index, &s.higher[q],
                            &s.tied[q]);
    }
  }
  const bool tail_dir = block.direction == QueryDirection::kTail;
  for (size_t q = 0; q < qb; ++q) {
    ranks[static_cast<size_t>(idx[q]) * 2 + (tail_dir ? 0 : 1)] =
        RankFromCounts(s.higher[q], s.tied[q], tie);
  }
}

double FilteredRank(const int32_t* candidates, const float* scores, size_t n,
                    int32_t truth, float truth_score,
                    const std::vector<int32_t>& answers, TieBreak tie,
                    bool candidates_sorted) {
  int64_t higher = 0;
  int64_t tied = 0;
  if (candidates_sorted) {
    // Count higher/tied over the whole array, then subtract the skipped
    // candidates (truth duplicates and filtered answers) located by binary
    // search: identical counts to the reference walk below.
    const RowCounts counts = CountHigherTied(scores, n, truth_score);
    higher = counts.higher;
    tied = counts.tied;
    const auto subtract_range = [&](int32_t value) {
      const int32_t* lo = std::lower_bound(candidates, candidates + n, value);
      for (const int32_t* p = lo; p != candidates + n && *p == value; ++p) {
        const float s = scores[p - candidates];
        if (s > truth_score) {
          --higher;
        } else if (s == truth_score) {
          --tied;
        }
      }
    };
    subtract_range(truth);
    for (size_t a = 0; a < answers.size(); ++a) {
      // Filtered setting: other known-true answers never demote the rank.
      if (answers[a] == truth) continue;          // Already subtracted.
      if (a > 0 && answers[a] == answers[a - 1]) continue;  // Deduplicate.
      subtract_range(answers[a]);
    }
  } else {
    // Reference walk for unsorted candidate arrays.
    for (size_t i = 0; i < n; ++i) {
      const int32_t c = candidates[i];
      if (c == truth) continue;
      if (std::binary_search(answers.begin(), answers.end(), c)) continue;
      if (scores[i] > truth_score) {
        ++higher;
      } else if (scores[i] == truth_score) {
        ++tied;
      }
    }
  }
  return RankFromCounts(higher, tied, tie);
}

int64_t RankQueries(const KgeModel& model, const Dataset& dataset, Split split,
                    const FilterIndex& filter, const int64_t* query_ids,
                    size_t n, size_t query_block, TieBreak tie,
                    const SlotPoolSource& pool_for, const CancelToken* cancel,
                    EvalSchedule* schedule, double* ranks) {
  const std::vector<Triple>& triples = dataset.split(split);
  BuildQuerySchedule(triples, dataset.num_relations(), query_ids, n,
                     query_block, schedule);
  const std::vector<SlotBlock>& blocks = schedule->blocks;
  std::atomic<int64_t> scored{0};
  // Parallelism is over slot-aligned chunks, not raw block ranges: a chunk
  // boundary inside a slot would make both sides prepare the slot's pool.
  TaskGroup group;
  for (const std::pair<size_t, size_t>& chunk : PartitionAtSlotBoundaries(
           blocks, group.pool()->num_threads() * 4)) {
    group.Submit([&, chunk] {
      BlockRankScratch scratch;
      PreparedPool scratch_pool;
      const PreparedPool* pool = nullptr;
      int32_t pool_slot = -1;  // The slot `pool` serves.
      int64_t local_scored = 0;
      for (size_t b = chunk.first; b < chunk.second; ++b) {
        // One relaxed load per block: a cancelled pass drains its workers
        // within a block instead of orphaning them mid-evaluation.
        if (cancel != nullptr && cancel->cancelled()) break;
        const SlotBlock& block = blocks[b];
        if (block.pool_slot != pool_slot) {
          // Schedules keep a slot's blocks adjacent, so a chunk asks for
          // each slot's pool once.
          pool = &pool_for(block.pool_slot, &scratch_pool);
          pool_slot = block.pool_slot;
        }
        RankSlotBlock(model, triples, filter, *schedule, block, *pool, tie,
                      &scratch, ranks);
        local_scored += static_cast<int64_t>(block.end - block.begin) *
                        static_cast<int64_t>(pool->size + 1);
      }
      scored.fetch_add(local_scored, std::memory_order_relaxed);
    });
  }
  group.Wait();
  return scored.load();
}

FullEvalResult EvaluateFullRanking(const KgeModel& model,
                                   const Dataset& dataset,
                                   const FilterIndex& filter, Split split,
                                   const FullEvalOptions& options) {
  const std::vector<Triple>& triples = dataset.split(split);
  int64_t num_triples = static_cast<int64_t>(triples.size());
  if (options.max_triples > 0) {
    num_triples = std::min(num_triples, options.max_triples);
  }
  FullEvalResult result;
  result.ranks.assign(static_cast<size_t>(num_triples) * 2, 0.0);

  // Full ranking is sampled ranking with every entity in every slot's pool:
  // the entity range is prepared once, in tiles, and every slot's blocks
  // rank against it.
  std::vector<int32_t> all_entities(dataset.num_entities());
  std::iota(all_entities.begin(), all_entities.end(), 0);
  PreparedPool pool;
  pool.Prepare(model, all_entities.data(), all_entities.size(), kPoolTile);
  std::vector<int64_t> query_ids(result.ranks.size());
  std::iota(query_ids.begin(), query_ids.end(), int64_t{0});
  EvalSchedule schedule;
  RankQueries(model, dataset, split, filter, query_ids.data(),
              query_ids.size(), kQueryBlock, options.tie,
              [&](int32_t, PreparedPool*) -> const PreparedPool& {
                return pool;
              },
              /*cancel=*/nullptr, &schedule, result.ranks.data());
  result.metrics = RankingMetrics::FromRanks(result.ranks);
  return result;
}

}  // namespace kgeval
