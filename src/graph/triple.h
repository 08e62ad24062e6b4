#ifndef KGEVAL_GRAPH_TRIPLE_H_
#define KGEVAL_GRAPH_TRIPLE_H_

#include <cstddef>
#include <cstdint>
#include <functional>

namespace kgeval {

/// A single (head, relation, tail) fact. Entity and relation ids are dense
/// 32-bit indices assigned by the dataset vocabularies.
struct Triple {
  int32_t head = 0;
  int32_t relation = 0;
  int32_t tail = 0;

  friend bool operator==(const Triple& a, const Triple& b) {
    return a.head == b.head && a.relation == b.relation && a.tail == b.tail;
  }
};

/// Direction of a ranking query derived from a test triple: kTail ranks
/// candidates for (h, r, ?); kHead ranks candidates for (?, r, t).
enum class QueryDirection { kTail = 0, kHead = 1 };

/// Index of a relation's domain (head side) or range (tail side) column in
/// the |E| x 2|R| recommender score matrix. Domains occupy columns
/// [0, |R|), ranges occupy [|R|, 2|R|) — the layout of Algorithm 1.
inline int32_t DomainRangeIndex(int32_t relation, QueryDirection direction,
                                int32_t num_relations) {
  // A tail query samples candidate *tails*, i.e., from the range column.
  return direction == QueryDirection::kTail ? relation + num_relations
                                            : relation;
}

/// Packs (a, b) into one 64-bit key for pair-index hash maps.
inline uint64_t PackPair(int32_t a, int32_t b) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(a)) << 32) |
         static_cast<uint32_t>(b);
}

/// Mixes a 64-bit key (a PackPair key, say) for hash containers: the
/// first round of the murmur3 64-bit finaliser.
struct PairHash {
  size_t operator()(uint64_t key) const {
    key ^= key >> 33;
    key *= 0xFF51AFD7ED558CCDULL;
    key ^= key >> 33;
    return static_cast<size_t>(key);
  }
};

struct TripleHash {
  size_t operator()(const Triple& t) const {
    return PairHash()(
        PackPair(t.head, t.tail) ^
        (static_cast<uint64_t>(static_cast<uint32_t>(t.relation)) << 13));
  }
};

}  // namespace kgeval

#endif  // KGEVAL_GRAPH_TRIPLE_H_
