#include "eval/slot_blocks.h"

#include <algorithm>
#include <numeric>

#include "util/logging.h"

namespace kgeval {

size_t BlockRows(const std::vector<Triple>& triples, const SlotBlock& block,
                 int32_t* anchors, int32_t* truths, int32_t* truth_rows) {
  const bool tail_dir = block.direction == QueryDirection::kTail;
  size_t rows = 0;
  for (size_t q = 0; q < block.end - block.begin; ++q) {
    const Triple& triple = triples[(*block.triple_idx)[block.begin + q]];
    const int32_t anchor = QueryAnchor(triple, block.direction);
    if (rows == 0 || anchors[rows - 1] != anchor) anchors[rows++] = anchor;
    truths[q] = tail_dir ? triple.tail : triple.head;
    truth_rows[q] = static_cast<int32_t>(rows - 1);
  }
  return rows;
}

void AppendAnchorBlocks(const std::vector<Triple>& triples,
                        QueryDirection direction, int32_t pool_slot,
                        size_t query_block, const std::vector<int32_t>* run,
                        std::vector<SlotBlock>* blocks) {
  KGEVAL_DCHECK(query_block > 0);
  if (run->empty()) return;
  KGEVAL_DCHECK(std::is_sorted(run->begin(), run->end(),
                               [&](int32_t a, int32_t b) {
                                 return QueryAnchor(triples[a], direction) <
                                        QueryAnchor(triples[b], direction);
                               }));
  const int32_t relation = triples[(*run)[0]].relation;
  size_t lo = 0;
  size_t distinct = 0;
  for (size_t i = 0; i < run->size(); ++i) {
    const bool new_anchor =
        i == 0 || QueryAnchor(triples[(*run)[i]], direction) !=
                      QueryAnchor(triples[(*run)[i - 1]], direction);
    if (!new_anchor) continue;
    if (distinct == query_block) {
      blocks->push_back({relation, direction, run, lo, i, pool_slot});
      lo = i;
      distinct = 0;
    }
    ++distinct;
  }
  blocks->push_back({relation, direction, run, lo, run->size(), pool_slot});
}

std::vector<int64_t> ShuffledQueryOrder(int64_t num_triples, Rng* rng) {
  std::vector<int64_t> order(static_cast<size_t>(num_triples) * 2);
  std::iota(order.begin(), order.end(), int64_t{0});
  rng->Shuffle(&order);
  return order;
}

std::vector<std::pair<size_t, size_t>> PartitionAtSlotBoundaries(
    const std::vector<SlotBlock>& blocks, size_t max_chunks) {
  std::vector<std::pair<size_t, size_t>> chunks;
  if (blocks.empty()) return chunks;
  max_chunks = std::max<size_t>(1, max_chunks);
  const size_t target = (blocks.size() + max_chunks - 1) / max_chunks;
  // When one slot's run is cut for load balance, every piece re-prepares
  // the slot's pool, so pieces keep at least this many blocks — without
  // the floor, small datasets on many-core machines (target of one block)
  // would degenerate back to prepare-per-block.
  constexpr size_t kMinSplitBlocks = 4;
  const size_t piece = std::max(target, kMinSplitBlocks);
  size_t chunk_begin = 0;
  size_t run_begin = 0;  // First block of the current slot run.
  int32_t run_slot = blocks[0].pool_slot;
  for (size_t b = 1; b <= blocks.size(); ++b) {
    const bool slot_edge =
        b == blocks.size() || blocks[b].pool_slot != run_slot;
    if (!slot_edge) continue;
    // The run [run_begin, b) just ended. Oversized runs are cut into
    // piece-sized chunks of their own (still single-slot chunks); normal
    // runs extend the current chunk, which is cut at this slot edge once
    // it reaches the target.
    if (b - run_begin >= 2 * piece) {
      if (run_begin > chunk_begin) {
        chunks.emplace_back(chunk_begin, run_begin);
      }
      for (size_t lo = run_begin; lo < b; lo += piece) {
        chunks.emplace_back(lo, std::min(b, lo + piece));
      }
      chunk_begin = b;
    } else if (b - chunk_begin >= target) {
      chunks.emplace_back(chunk_begin, b);
      chunk_begin = b;
    }
    if (b < blocks.size()) {
      run_begin = b;
      run_slot = blocks[b].pool_slot;
    }
  }
  if (chunk_begin < blocks.size()) {
    chunks.emplace_back(chunk_begin, blocks.size());
  }
  return chunks;
}

}  // namespace kgeval
