#ifndef KGEVAL_TESTS_CHECKPOINT_HEADER_H_
#define KGEVAL_TESTS_CHECKPOINT_HEADER_H_

#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>

#include "models/kge_model.h"

namespace kgeval {

/// Writes a 48-byte checkpoint that is only a valid v1 header (magic,
/// version, then the 40-byte field block) with no parameter data after it:
/// the file a client can hand the server to claim arbitrarily large tables.
inline void WriteHeaderOnlyCheckpoint(const std::string& path, ModelType type,
                                      int32_t num_entities,
                                      int32_t num_relations, int32_t dim,
                                      int32_t num_params) {
  std::string bytes = "KGEV";
  const auto put = [&bytes](const auto& value) {
    char raw[sizeof(value)];
    std::memcpy(raw, &value, sizeof(value));
    bytes.append(raw, sizeof(value));
  };
  put(int32_t{1});  // Version.
  put(static_cast<int32_t>(type));
  put(num_entities);
  put(num_relations);
  put(dim);
  put(int32_t{0});   // Reserved.
  put(int32_t{0});   // Pad.
  put(uint64_t{7});  // Seed.
  put(num_params);
  put(int32_t{0});   // Pad.
  std::ofstream(path, std::ios::binary) << bytes;
}

}  // namespace kgeval

#endif  // KGEVAL_TESTS_CHECKPOINT_HEADER_H_
