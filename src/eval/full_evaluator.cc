#include "eval/full_evaluator.h"

#include <algorithm>
#include <numeric>

#include "eval/slot_blocks.h"
#include "sched/task_group.h"
#include "util/logging.h"

namespace kgeval {

RowCounts CountHigherTied(const float* row, size_t n, float truth_score) {
  // 32-bit accumulators: twice the lanes of int64 per vector register.
  int32_t h = 0, t = 0;
  for (size_t i = 0; i < n; ++i) {
    h += row[i] > truth_score;
    t += row[i] == truth_score;
  }
  return {h, t};
}

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

double IndexedFilteredRank(const float* row, size_t n, float truth_score,
                           const std::vector<int32_t>& answers,
                           const PoolIndex& index, TieBreak tie) {
  RowCounts counts = CountHigherTied(row, n, truth_score);
  for (size_t a = 0; a < answers.size(); ++a) {
    if (a > 0 && answers[a] == answers[a - 1]) continue;  // Deduplicate.
    const int32_t pos = index.Find(answers[a]);
    if (pos < 0) continue;
    counts.higher -= row[pos] > truth_score;
    counts.tied -= row[pos] == truth_score;
  }
  return RankFromCounts(counts.higher, counts.tied, tie);
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

namespace {

/// Distinct anchors per batched kernel call (queries that repeat an
/// anchor share its row, so a block may hold more queries). One score
/// block is kQueryBlock x min(entity_tile, num_entities) floats: 1.1 MB on
/// codex-m's 17 050 entities, 2 MB at most with the default tile. The tile
/// is deliberately large: per-anchor work that happens once per kernel
/// call (TuckER's core contraction, ConvE's conv/FC trunk) repeats once
/// per tile, so small tiles would multiply it.
constexpr size_t kQueryBlock = 16;

}  // namespace

FullEvalResult EvaluateFullRanking(const KgeModel& model,
                                   const Dataset& dataset,
                                   const EvalProtocol& protocol, Split split,
                                   const FullEvalOptions& options) {
  const std::vector<Triple>& triples = dataset.split(split);
  int64_t num_triples = static_cast<int64_t>(triples.size());
  if (options.max_triples > 0) {
    num_triples = std::min(num_triples, options.max_triples);
  }
  const int32_t num_entities = dataset.num_entities();

  FullEvalResult result;
  result.ranks.assign(static_cast<size_t>(num_triples) * 2, 0.0);

  // Slot-major order, sharing the fused ScoreBlock kernel with the sampled
  // evaluator: queries are grouped by the protocol and the entity range
  // acts as the shared candidate pool, swept in cache-sized tiles. Each
  // distinct anchor of a block is scored once; its queries share the row.
  std::vector<int32_t> all_entities(num_entities);
  std::iota(all_entities.begin(), all_entities.end(), 0);
  const EvalSchedule schedule =
      protocol.BuildSchedule(triples, num_triples, kQueryBlock);
  const std::vector<SlotBlock>& blocks = schedule.blocks;

  // Prepare every entity tile once per evaluation; each slot block then
  // sweeps the prepared tiles instead of re-gathering/transposing the same
  // entity rows per block. One TaskGroup task per tile: the prepare is pure per-tile work, and a
  // concurrent evaluation interleaves its own tiles on the shared workers
  // instead of waiting on this pass's prepare barrier.
  const size_t tile_size = std::max<size_t>(1, options.entity_tile);
  const size_t num_tiles =
      (static_cast<size_t>(num_entities) + tile_size - 1) / tile_size;
  std::vector<CandidateBlock> tiles(num_tiles);
  TaskGroup prepare_group;
  for (size_t t = 0; t < num_tiles; ++t) {
    prepare_group.Submit([&, t] {
      const size_t e0 = t * tile_size;
      const size_t e1 =
          std::min(static_cast<size_t>(num_entities), e0 + tile_size);
      model.PrepareCandidates(all_entities.data() + e0, e1 - e0, &tiles[t]);
    });
  }
  prepare_group.Wait();

  // Slot-aligned chunks on an explicit TaskGroup, like the sampled
  // evaluator: the pass waits only on its own chunks, and chunk boundaries
  // coincide with slot boundaries so per-chunk query state never straddles
  // a kernel-relation change.
  TaskGroup group;
  SubmitSlotChunks(&group, blocks, [&](size_t block_lo, size_t block_hi) {
    // Per-row buffers hold kQueryBlock rows; per-query ones grow with the
    // largest block of the chunk.
    std::vector<int32_t> anchors(kQueryBlock);
    std::vector<float> scores(
        kQueryBlock *
        std::min(tile_size, static_cast<size_t>(num_entities)));
    std::vector<int32_t> truths, truth_rows;
    std::vector<float> truth_scores;
    std::vector<const std::vector<int32_t>*> answers;
    std::vector<int64_t> higher, tied;
    std::vector<size_t> cursor;
    for (size_t b = block_lo; b < block_hi; ++b) {
      const SlotBlock& block = blocks[b];
      const bool tail_dir = block.direction == QueryDirection::kTail;
      const size_t qb = block.end - block.begin;
      const int32_t kernel_relation = model.KernelRelation(
          triples[(*block.triple_idx)[block.begin]]);
      if (truths.size() < qb) {
        truths.resize(qb);
        truth_rows.resize(qb);
        truth_scores.resize(qb);
        answers.resize(qb);
        higher.resize(qb);
        tied.resize(qb);
        cursor.resize(qb);
      }
      const size_t rows = BlockRows(triples, block, anchors.data(),
                                    truths.data(), truth_rows.data());
      for (size_t q = 0; q < qb; ++q) {
        answers[q] = protocol.Answers(
            triples[(*block.triple_idx)[block.begin + q]], block.direction);
        KGEVAL_CHECK(answers[q] != nullptr);
        higher[q] = 0;
        tied[q] = 0;
        cursor[q] = 0;
      }
      for (size_t ti = 0; ti < num_tiles; ++ti) {
        const int32_t e0 = static_cast<int32_t>(ti * tile_size);
        const int32_t e1 = std::min(
            num_entities, e0 + static_cast<int32_t>(tile_size));
        const size_t tile = static_cast<size_t>(e1 - e0);
        // The first tile's fused call also emits the truth scores, so
        // the block runs one query construction fewer than a separate
        // ScorePairs pass would.
        model.ScoreBlock(
            anchors.data(), ti == 0 ? truths.data() : nullptr, rows,
            kernel_relation, block.direction, tiles[ti], scores.data(),
            ti == 0 ? truth_scores.data() : nullptr, truth_rows.data(), qb);
        for (size_t q = 0; q < qb; ++q) {
          const std::vector<int32_t>& ans = *answers[q];
          const float truth_score = truth_scores[q];
          const float* row =
              scores.data() + static_cast<size_t>(truth_rows[q]) * tile;
          // Count the whole row branch-free, then take back the filtered
          // answers inside [e0, e1) by direct index, each distinct entity
          // once. `ans` is sorted and includes the truth (EvalProtocol
          // contract), so the counts equal a walk that skips every
          // filtered entity.
          RowCounts counts = CountHigherTied(row, tile, truth_score);
          // Tiles run in entity order, so the answer cursor carried over
          // from the previous tile already sits at the first answer >= e0.
          size_t cur = cursor[q];
          for (; cur < ans.size() && ans[cur] < e1; ++cur) {
            if (cur > 0 && ans[cur] == ans[cur - 1]) continue;
            const float s = row[ans[cur] - e0];
            counts.higher -= s > truth_score;
            counts.tied -= s == truth_score;
          }
          cursor[q] = cur;
          higher[q] += counts.higher;
          tied[q] += counts.tied;
        }
      }
      for (size_t q = 0; q < qb; ++q) {
        const double rank =
            RankFromCounts(higher[q], tied[q], options.tie);
        const size_t i =
            static_cast<size_t>((*block.triple_idx)[block.begin + q]);
        result.ranks[i * 2 + (tail_dir ? 0 : 1)] = rank;
      }
    }
  });
  group.Wait();

  result.metrics = RankingMetrics::FromRanks(result.ranks);
  return result;
}

FullEvalResult EvaluateFullRanking(const KgeModel& model,
                                   const Dataset& dataset,
                                   const FilterIndex& filter, Split split,
                                   const FullEvalOptions& options) {
  const StaticFilteredProtocol protocol(dataset.num_relations(), &filter);
  return EvaluateFullRanking(model, dataset, protocol, split, options);
}

}  // namespace kgeval
