#ifndef KGEVAL_SERVICE_CHECKPOINT_WATCHER_H_
#define KGEVAL_SERVICE_CHECKPOINT_WATCHER_H_

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "util/status.h"

namespace kgeval {

/// Epoch-order sort key of a checkpoint filename: the value of the last
/// run of digits in the stem ("epoch_00123.ckpt" -> 123), or INT64_MAX for
/// names without one. Sorting by (key, name) is *numeric* epoch order, so
/// directory ordering stays correct even for snapshots whose epoch number
/// outgrew CheckpointPath's zero padding (the lexicographic trap the
/// padding alone cannot close — see CheckpointPathOrdering in io_test).
int64_t CheckpointEpochKey(const std::string& filename);

/// Lists the regular files under `dir` ending in ".ckpt", sorted by
/// (CheckpointEpochKey, name). Non-matching names (including the
/// in-progress "*.tmp" files Trainer renames into place) are skipped.
/// Returns full paths. The directory itself failing to open is an error;
/// an empty directory is an empty list.
Result<std::vector<std::string>> ListCheckpointFiles(const std::string& dir);

/// The WATCH verb's directory poller, separated from sockets and
/// evaluation so its delivery rules are unit-testable: each Poll() lists
/// the directory and returns — in epoch order — only the files never
/// returned before. Delivery is at-most-once by filename: a path stays
/// claimed even if its evaluation later fails (the service reports that
/// failure as an ITEM ... ERR line; re-delivering would make a truncated
/// file spam one error per poll). Files landing between polls are picked
/// up by the next Poll().
class CheckpointWatcher {
 public:
  explicit CheckpointWatcher(std::string dir) : dir_(std::move(dir)) {}

  /// New, never-delivered checkpoint paths in epoch order. A directory
  /// read error returns the error (already-claimed state is unchanged, so
  /// a transient failure never causes duplicate delivery later).
  Result<std::vector<std::string>> Poll();

  const std::string& dir() const { return dir_; }

 private:
  std::string dir_;
  std::set<std::string> seen_;
};

}  // namespace kgeval

#endif  // KGEVAL_SERVICE_CHECKPOINT_WATCHER_H_
