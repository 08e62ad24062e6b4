#ifndef KGEVAL_MODELS_CHECKPOINT_H_
#define KGEVAL_MODELS_CHECKPOINT_H_

#include <memory>
#include <string>

#include "models/kge_model.h"
#include "util/status.h"

namespace kgeval {

/// Writes a binary checkpoint of `model`'s parameters (not optimizer state)
/// to `path`. Format: magic, version, a fixed field-by-field header (model
/// type, shapes, seed, parameter count — serialized explicitly, so the same
/// model always produces byte-identical files regardless of ABI), then the
/// named parameter matrices in CollectParameters order. The stream is
/// flushed and closed before returning, so a full disk surfaces as IoError
/// here rather than as a silently truncated file.
Status SaveModel(KgeModel* model, const std::string& path);

/// Reconstructs a model from a checkpoint: the stored type/shapes drive
/// AllocateModel (zero-filled tables, no seeded init, no optimizer state),
/// then every parameter is read from the file — a load costs what reading
/// the bytes costs. Fails with IoError on unreadable/truncated files and
/// InvalidArgument on format/shape mismatches. The path is opened
/// non-blocking and anything but a regular file (a FIFO, a directory, a
/// device) is InvalidArgument before the first read, so a client-chosen
/// path can never park the caller in open(2). Every header field is
/// validated, and the parameter bytes the header implies are checked
/// against the file's size, before any allocation, so a corrupt or short
/// file yields a Status, never a crash or a huge allocation.
Result<std::unique_ptr<KgeModel>> LoadModel(const std::string& path);

}  // namespace kgeval

#endif  // KGEVAL_MODELS_CHECKPOINT_H_
