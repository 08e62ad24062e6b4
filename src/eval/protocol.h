#ifndef KGEVAL_EVAL_PROTOCOL_H_
#define KGEVAL_EVAL_PROTOCOL_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "graph/dataset.h"
#include "graph/triple.h"

namespace kgeval {

/// The filtered-ranking protocol's membership index, built over every
/// triple of all splits: the known-true answers (any known (h, r, t) fact,
/// from any split) that are filtered out of a query's ranking. How the
/// queries are scheduled and which pool they rank against is
/// BuildQuerySchedule's business (eval/slot_blocks.h), so the index holds
/// only the answer sets.
class FilterIndex {
 public:
  explicit FilterIndex(const Dataset& dataset);

  /// Known true answers filtered out of the query's ranking (they contain
  /// the query's own truth): tails of (h, r) for kTail queries, heads of
  /// (r, t) for kHead queries. Never nullptr for queries derived from the
  /// index's dataset.
  const std::vector<int32_t>* Answers(const Triple& triple,
                                      QueryDirection direction) const;

  /// Known true tails for (h, r), sorted; nullptr when none.
  const std::vector<int32_t>* TailsFor(int32_t head, int32_t relation) const;

  /// Known true heads for (r, t), sorted; nullptr when none.
  const std::vector<int32_t>* HeadsFor(int32_t relation, int32_t tail) const;

 private:
  using AnswerMap =
      std::unordered_map<uint64_t, std::vector<int32_t>, PairHash>;

  AnswerMap tails_;  // (h, r) -> sorted tails
  AnswerMap heads_;  // (r, t) -> sorted heads
};

}  // namespace kgeval

#endif  // KGEVAL_EVAL_PROTOCOL_H_
