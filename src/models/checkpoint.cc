#include "models/checkpoint.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <iterator>
#include <type_traits>

#include "util/fault.h"
#include "util/string_util.h"

namespace kgeval {
namespace {

constexpr char kMagic[4] = {'K', 'G', 'E', 'V'};
constexpr int32_t kVersion = 1;

/// Every model exposes a handful of parameter matrices; a header claiming
/// orders of magnitude more is corrupt, not big. The shape caps likewise
/// bound what any real checkpoint describes: without them a single
/// bit-flipped count would sail into CreateModel and die in a huge (or
/// overflowing) allocation instead of returning InvalidArgument.
constexpr int32_t kMaxParams = 1024;
constexpr int32_t kMaxEntities = 1 << 28;
constexpr int32_t kMaxRelations = 1 << 24;
constexpr int32_t kMaxDim = 1 << 16;
/// Cap on any one embedding table (rows x cols), in elements: 2^33 floats
/// is 32 GiB — beyond any model this library trains, and small enough that
/// size arithmetic downstream can never overflow.
constexpr int64_t kMaxTableElements = int64_t{1} << 33;

template <typename T>
void WritePod(std::ofstream& out, const T& value) {
  static_assert(std::is_trivially_copyable<T>::value,
                "only scalar fields are serialized directly");
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

/// Reads exactly `size` bytes; false on a short file or a read error.
bool ReadFull(int fd, void* dst, size_t size) {
  char* p = static_cast<char*>(dst);
  while (size > 0) {
    const ssize_t n = ::read(fd, p, size);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    p += n;
    size -= static_cast<size_t>(n);
  }
  return true;
}

template <typename T>
bool ReadPod(int fd, T* value) {
  static_assert(std::is_trivially_copyable<T>::value,
                "only scalar fields are serialized directly");
  return ReadFull(fd, value, sizeof(T));
}

void WriteString(std::ofstream& out, const std::string& s) {
  WritePod(out, static_cast<int32_t>(s.size()));
  out.write(s.data(), static_cast<std::streamsize>(s.size()));
}

bool ReadString(int fd, std::string* s) {
  int32_t size = 0;
  if (!ReadPod(fd, &size) || size < 0 || size > 1 << 20) return false;
  s->resize(static_cast<size_t>(size));
  return ReadFull(fd, s->data(), s->size());
}

struct Header {
  int32_t model_type = 0;
  int32_t num_entities = 0;
  int32_t num_relations = 0;
  int32_t dim = 0;
  int32_t reserved = 0;
  uint64_t seed = 0;
  int32_t num_params = 0;
};

/// The v1 header occupies 40 bytes on disk: five int32 fields, 4 pad
/// bytes, the uint64 seed, the int32 parameter count, 4 more pad bytes.
/// The fifth int32 (offset 16) is reserved: it held TuckER's relation
/// width, 0 for every other model, so it is written as 0 and any other
/// value is rejected. Both pad slots were originally struct padding
/// (historically whatever bytes the stack held — writing the struct as one
/// POD leaked uninitialized memory to disk and tied the format to one
/// ABI's layout); they are written as zeros and ignored on read, so old
/// files whose pad holds garbage still load.
void WriteHeader(std::ofstream& out, const Header& header) {
  const int32_t pad = 0;
  WritePod(out, header.model_type);
  WritePod(out, header.num_entities);
  WritePod(out, header.num_relations);
  WritePod(out, header.dim);
  WritePod(out, header.reserved);
  WritePod(out, pad);
  WritePod(out, header.seed);
  WritePod(out, header.num_params);
  WritePod(out, pad);
}

bool ReadHeaderFields(int fd, Header* header) {
  int32_t pad = 0;
  return ReadPod(fd, &header->model_type) &&
         ReadPod(fd, &header->num_entities) &&
         ReadPod(fd, &header->num_relations) && ReadPod(fd, &header->dim) &&
         ReadPod(fd, &header->reserved) && ReadPod(fd, &pad) &&
         ReadPod(fd, &header->seed) && ReadPod(fd, &header->num_params) &&
         ReadPod(fd, &pad);
}

/// Rejects headers whose fields cannot describe any model: counts and
/// dimensions flow into CreateModel and allocation sizes, so a negative or
/// absurd value from a corrupt file must stop here, not surface as a crash
/// or a bogus model downstream.
Status ValidateHeader(const Header& header, const std::string& path) {
  if (std::none_of(std::begin(kAllModelTypes), std::end(kAllModelTypes),
                   [&](ModelType type) {
                     return static_cast<int32_t>(type) == header.model_type;
                   })) {
    return Status::InvalidArgument(StrFormat(
        "%s: invalid model type %d", path.c_str(), header.model_type));
  }
  if (header.num_entities <= 0 || header.num_entities > kMaxEntities ||
      header.num_relations <= 0 || header.num_relations > kMaxRelations) {
    return Status::InvalidArgument(StrFormat(
        "%s: invalid entity/relation counts %d/%d", path.c_str(),
        header.num_entities, header.num_relations));
  }
  if (header.dim <= 0 || header.dim > kMaxDim) {
    return Status::InvalidArgument(
        StrFormat("%s: invalid dimension dim=%d", path.c_str(), header.dim));
  }
  if (header.reserved != 0) {
    return Status::InvalidArgument(
        StrFormat("%s: reserved header field is %d, not 0", path.c_str(),
                  header.reserved));
  }
  const int64_t entity_elements =
      int64_t{header.num_entities} * int64_t{header.dim};
  const int64_t relation_elements =
      int64_t{header.num_relations} * int64_t{header.dim};
  if (entity_elements > kMaxTableElements ||
      relation_elements > kMaxTableElements) {
    return Status::InvalidArgument(StrFormat(
        "%s: embedding tables implausibly large (%lld / %lld elements)",
        path.c_str(), static_cast<long long>(entity_elements),
        static_cast<long long>(relation_elements)));
  }
  if (header.num_params <= 0 || header.num_params > kMaxParams) {
    return Status::InvalidArgument(StrFormat(
        "%s: invalid parameter count %d", path.c_str(), header.num_params));
  }
  return Status::OK();
}

}  // namespace

Status SaveModel(KgeModel* model, const std::string& path) {
  if (model == nullptr) return Status::InvalidArgument("model is null");
  std::ofstream out(path, std::ios::binary);
  if (!out.is_open()) {
    return Status::IoError(StrFormat("cannot write %s", path.c_str()));
  }
  std::vector<KgeModel::NamedParameter> params;
  model->CollectParameters(&params);

  out.write(kMagic, sizeof(kMagic));
  WritePod(out, kVersion);
  Header header;
  header.model_type = static_cast<int32_t>(model->type());
  header.num_entities = model->num_entities();
  header.num_relations = model->num_relations();
  header.dim = model->options().dim;
  header.seed = model->options().seed;
  header.num_params = static_cast<int32_t>(params.size());
  WriteHeader(out, header);

  for (const auto& param : params) {
    WriteString(out, param.name);
    WritePod(out, static_cast<int64_t>(param.matrix->rows()));
    WritePod(out, static_cast<int64_t>(param.matrix->cols()));
    out.write(reinterpret_cast<const char*>(param.matrix->data()),
              static_cast<std::streamsize>(param.matrix->size() *
                                           sizeof(float)));
  }
  // The final write can succeed into the stream buffer while the bytes
  // never reach the disk (ENOSPC, quota): only a flush + close forces the
  // data out where the failure becomes observable on the stream state.
  // Fault point "io.checkpoint.write" injects exactly that late failure.
  out.flush();
  if (FaultPoint("io.checkpoint.write")) {
    return Status::IoError(
        StrFormat("short write to %s (injected fault)", path.c_str()));
  }
  if (!out.good()) {
    return Status::IoError(StrFormat("short write to %s", path.c_str()));
  }
  out.close();
  if (out.fail()) {
    return Status::IoError(StrFormat("failed to close %s", path.c_str()));
  }
  return Status::OK();
}

namespace {

Result<Header> ReadHeader(int fd, const std::string& path) {
  char magic[4];
  if (!ReadFull(fd, magic, sizeof(magic)) ||
      std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument(
        StrFormat("%s is not a kgeval checkpoint", path.c_str()));
  }
  int32_t version = 0;
  if (!ReadPod(fd, &version) || version != kVersion) {
    return Status::InvalidArgument(
        StrFormat("unsupported checkpoint version %d", version));
  }
  Header header;
  if (!ReadHeaderFields(fd, &header)) {
    return Status::IoError("truncated checkpoint header");
  }
  KGEVAL_RETURN_NOT_OK(ValidateHeader(header, path));
  return header;
}

Status RestoreParameters(KgeModel* model, int fd, const Header& header) {
  std::vector<KgeModel::NamedParameter> params;
  model->CollectParameters(&params);
  if (static_cast<int32_t>(params.size()) != header.num_params) {
    return Status::InvalidArgument(
        StrFormat("checkpoint has %d parameters, model has %zu",
                  header.num_params, params.size()));
  }
  for (auto& param : params) {
    // Fault point "io.checkpoint.read": a parameter read fails as if the
    // file were truncated under us — what a torn copy or a failing disk
    // produces. Sweeps must turn this into a per-item error, never a
    // crashed pass (chaos_test).
    if (FaultPoint("io.checkpoint.read")) {
      return Status::IoError("truncated parameter data (injected fault)");
    }
    std::string name;
    if (!ReadString(fd, &name)) {
      return Status::IoError("truncated parameter name");
    }
    if (name != param.name) {
      return Status::InvalidArgument(StrFormat(
          "parameter order mismatch: expected '%s', found '%s'",
          param.name, name.c_str()));
    }
    int64_t rows = 0, cols = 0;
    if (!ReadPod(fd, &rows) || !ReadPod(fd, &cols)) {
      return Status::IoError("truncated parameter shape");
    }
    if (rows != static_cast<int64_t>(param.matrix->rows()) ||
        cols != static_cast<int64_t>(param.matrix->cols())) {
      return Status::InvalidArgument(StrFormat(
          "shape mismatch for '%s': checkpoint %lldx%lld vs model %zux%zu",
          param.name, static_cast<long long>(rows),
          static_cast<long long>(cols), param.matrix->rows(),
          param.matrix->cols()));
    }
    if (!ReadFull(fd, param.matrix->data(),
                  param.matrix->size() * sizeof(float))) {
      return Status::IoError("truncated parameter data");
    }
  }
  return Status::OK();
}

/// Owns the checkpoint's file descriptor for the length of one load.
class ScopedFd {
 public:
  explicit ScopedFd(int fd) : fd_(fd) {}
  ~ScopedFd() {
    if (fd_ >= 0) ::close(fd_);
  }
  ScopedFd(const ScopedFd&) = delete;
  ScopedFd& operator=(const ScopedFd&) = delete;

  int get() const { return fd_; }

 private:
  int fd_;
};

}  // namespace

Result<std::unique_ptr<KgeModel>> LoadModel(const std::string& path) {
  // Fault point "io.checkpoint.open": the open fails with an injected
  // errno — armed with ENOENT it reproduces the sweep TOCTOU exactly (file
  // listed, then deleted before the open).
  int injected = 0;
  if (FaultPoint("io.checkpoint.open", &injected)) {
    return Status::IoError(StrFormat("cannot open %s: %s (injected fault)",
                                     path.c_str(), strerror(injected)));
  }
  // The path is client-chosen (EVAL), so nothing here may block: a FIFO
  // without a writer would hold open(2) forever without O_NONBLOCK, and
  // with it a FIFO or device must still fail before the first read.
  ScopedFd fd(::open(path.c_str(), O_RDONLY | O_NONBLOCK | O_CLOEXEC));
  if (fd.get() < 0) {
    return Status::IoError(
        StrFormat("cannot open %s: %s", path.c_str(), strerror(errno)));
  }
  struct stat st;
  if (::fstat(fd.get(), &st) != 0) {
    return Status::IoError(
        StrFormat("cannot stat %s: %s", path.c_str(), strerror(errno)));
  }
  if (!S_ISREG(st.st_mode)) {
    return Status::InvalidArgument(
        StrFormat("%s is not a regular file", path.c_str()));
  }
  auto header_or = ReadHeader(fd.get(), path);
  if (!header_or.ok()) return header_or.status();
  const Header header = header_or.ValueOrDie();

  ModelOptions options;
  options.dim = header.dim;
  options.seed = header.seed;
  const ModelType type = static_cast<ModelType>(header.model_type);
  // The tables the header describes must fit in what the file holds: a
  // 48-byte file may claim tens of GiB of parameters (the per-table caps
  // bound each table, not RESCAL's d^2 relation rows), and it must fail
  // here, before anything is allocated.
  const int64_t payload_bytes =
      ParameterElementCount(type, header.num_entities, header.num_relations,
                            options) *
      static_cast<int64_t>(sizeof(float));
  const off_t data_start = ::lseek(fd.get(), 0, SEEK_CUR);
  const off_t file_bytes = st.st_size;
  if (data_start < 0 || file_bytes - data_start < payload_bytes) {
    return Status::IoError(StrFormat(
        "%s: truncated checkpoint: the header describes %lld parameter "
        "bytes, the file holds %lld after it",
        path.c_str(), static_cast<long long>(payload_bytes),
        static_cast<long long>(file_bytes - data_start)));
  }
  // No seeded init: RestoreParameters checks the parameter count, names and
  // shapes against the header, and overwrites every table.
  auto model_or =
      AllocateModel(type, header.num_entities, header.num_relations, options);
  if (!model_or.ok()) return model_or.status();
  std::unique_ptr<KgeModel> model = std::move(model_or).ValueOrDie();
  KGEVAL_RETURN_NOT_OK(RestoreParameters(model.get(), fd.get(), header));
  return {std::move(model)};
}

}  // namespace kgeval
