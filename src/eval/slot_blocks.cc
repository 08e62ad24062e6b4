#include "eval/slot_blocks.h"

#include <algorithm>
#include <numeric>

#include "util/logging.h"

namespace kgeval {
namespace {

/// Digit width of the radix sorts: a 2^11-entry histogram stays in L1,
/// and two passes cover every graph below 2^22 entities.
constexpr int kRadixBits = 11;

/// Stable LSD radix sort of `keys` by their upper 32 bits, in as few
/// digits of at most kRadixBits as `max_high` needs. A pass costs
/// O(n + 2^kRadixBits), never O(max_high), so an adaptive round of a few
/// hundred queries sorts in microseconds on any graph.
void RadixSortByHighWord(uint32_t max_high, std::vector<uint64_t>* keys,
                         std::vector<uint64_t>* scratch) {
  const int bits = max_high == 0 ? 0 : 32 - __builtin_clz(max_high);
  const int passes = (bits + kRadixBits - 1) / kRadixBits;
  if (passes == 0) return;
  const int width = (bits + passes - 1) / passes;
  const uint64_t digit_mask = (uint64_t{1} << width) - 1;
  uint32_t start[size_t{1} << kRadixBits];
  scratch->resize(keys->size());
  for (int p = 0; p < passes; ++p) {
    const int shift = 32 + p * width;
    std::fill(start, start + (size_t{1} << width), 0u);
    for (uint64_t key : *keys) ++start[(key >> shift) & digit_mask];
    uint32_t sum = 0;
    for (size_t d = 0; d <= digit_mask; ++d) {
      const uint32_t count = start[d];
      start[d] = sum;
      sum += count;
    }
    for (uint64_t key : *keys) {
      (*scratch)[start[(key >> shift) & digit_mask]++] = key;
    }
    keys->swap(*scratch);
  }
}

/// The direction of a query id's query.
QueryDirection IdDirection(uint32_t id) {
  return (id & 1) != 0 ? QueryDirection::kHead : QueryDirection::kTail;
}

}  // namespace

void BuildQuerySchedule(const std::vector<Triple>& triples,
                        int32_t num_relations, const int64_t* query_ids,
                        size_t n, size_t query_block, EvalSchedule* schedule) {
  KGEVAL_DCHECK(query_block > 0);
  // A key is the sort field above the query id; a query id fits 32 bits
  // because triple indices are int32. Sort by anchor, then stably by slot.
  std::vector<uint64_t>& keys = schedule->sort_keys;
  keys.resize(n);
  uint32_t max_anchor = 0;
  for (size_t k = 0; k < n; ++k) {
    const uint32_t id = static_cast<uint32_t>(query_ids[k]);
    const uint32_t anchor = static_cast<uint32_t>(
        QueryAnchor(triples[id >> 1], IdDirection(id)));
    max_anchor = std::max(max_anchor, anchor);
    keys[k] = (uint64_t{anchor} << 32) | id;
  }
  RadixSortByHighWord(max_anchor, &keys, &schedule->sort_scratch);
  uint32_t max_slot = 0;
  for (uint64_t& key : keys) {
    const uint32_t id = static_cast<uint32_t>(key);
    const uint32_t slot = static_cast<uint32_t>(DomainRangeIndex(
        triples[id >> 1].relation, IdDirection(id), num_relations));
    max_slot = std::max(max_slot, slot);
    key = (uint64_t{slot} << 32) | id;
  }
  RadixSortByHighWord(max_slot, &keys, &schedule->sort_scratch);

  schedule->triple_idx.resize(n);
  schedule->truths.resize(n);
  schedule->truth_rows.resize(n);
  std::vector<int32_t>& anchors = schedule->anchors;
  std::vector<SlotBlock>& blocks = schedule->blocks;
  anchors.clear();
  blocks.clear();
  for (size_t q = 0; q < n; ++q) {
    const uint32_t id = static_cast<uint32_t>(keys[q]);
    const int32_t slot = static_cast<int32_t>(keys[q] >> 32);
    const QueryDirection dir = IdDirection(id);
    const Triple& triple = triples[id >> 1];
    const int32_t anchor = QueryAnchor(triple, dir);
    const bool new_slot = blocks.empty() || blocks.back().pool_slot != slot;
    const bool new_anchor = new_slot || anchors.back() != anchor;
    if (new_anchor &&
        (new_slot ||
         blocks.back().row_end - blocks.back().row_begin == query_block)) {
      blocks.push_back(
          {triple.relation, dir, slot, q, q, anchors.size(), anchors.size()});
    }
    SlotBlock& block = blocks.back();
    if (new_anchor) {
      anchors.push_back(anchor);
      block.row_end = anchors.size();
    }
    block.end = q + 1;
    schedule->triple_idx[q] = static_cast<int32_t>(id >> 1);
    schedule->truths[q] =
        dir == QueryDirection::kTail ? triple.tail : triple.head;
    schedule->truth_rows[q] =
        static_cast<int32_t>(block.row_end - 1 - block.row_begin);
  }
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
