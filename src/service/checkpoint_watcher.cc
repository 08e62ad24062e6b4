#include "service/checkpoint_watcher.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <limits>
#include <string_view>
#include <utility>

#include "util/string_util.h"

namespace kgeval {

namespace fs = std::filesystem;

int64_t CheckpointEpochKey(const std::string& filename) {
  const size_t dot = filename.rfind('.');
  const std::string stem =
      dot == std::string::npos ? filename : filename.substr(0, dot);
  // Last run of digits in the stem.
  size_t end = stem.size();
  while (end > 0 && !std::isdigit(static_cast<unsigned char>(stem[end - 1]))) {
    --end;
  }
  size_t begin = end;
  while (begin > 0 &&
         std::isdigit(static_cast<unsigned char>(stem[begin - 1]))) {
    --begin;
  }
  if (begin == end) return std::numeric_limits<int64_t>::max();
  int64_t value = 0;
  for (size_t i = begin; i < end; ++i) {
    if (value > (std::numeric_limits<int64_t>::max() - 9) / 10) {
      return std::numeric_limits<int64_t>::max();  // Absurdly long run.
    }
    value = value * 10 + (stem[i] - '0');
  }
  return value;
}

Result<std::vector<std::string>> ListCheckpointFiles(const std::string& dir) {
  static constexpr std::string_view kExtension = ".ckpt";
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  if (ec) {
    return Status::IoError(StrFormat("cannot list %s: %s", dir.c_str(),
                                     ec.message().c_str()));
  }
  std::vector<std::pair<int64_t, std::string>> keyed;
  for (const auto& entry : it) {
    if (!entry.is_regular_file(ec) || ec) continue;
    const std::string name = entry.path().filename().string();
    if (name.size() < kExtension.size() ||
        name.compare(name.size() - kExtension.size(), kExtension.size(),
                     kExtension) != 0) {
      continue;
    }
    keyed.emplace_back(CheckpointEpochKey(name), name);
  }
  std::sort(keyed.begin(), keyed.end());
  std::vector<std::string> paths;
  paths.reserve(keyed.size());
  for (auto& [key, name] : keyed) {
    paths.push_back((fs::path(dir) / name).string());
  }
  return paths;
}

Result<std::vector<std::string>> CheckpointWatcher::Poll() {
  auto listed = ListCheckpointFiles(dir_);
  if (!listed.ok()) return listed.status();
  std::vector<std::string> fresh;
  for (std::string& path : listed.ValueOrDie()) {
    const std::string name = fs::path(path).filename().string();
    if (seen_.count(name)) continue;
    fresh.push_back(std::move(path));
  }
  // Claim only after the full listing succeeded; order stays epoch order
  // because the listing was sorted.
  for (const std::string& path : fresh) {
    seen_.insert(fs::path(path).filename().string());
  }
  return fresh;
}

}  // namespace kgeval
