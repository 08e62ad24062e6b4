#include "graph/io.h"

#include <fstream>
#include <unordered_map>

#include "util/string_util.h"

namespace kgeval {
namespace {

/// String -> dense id vocabulary, insertion-ordered.
class Vocab {
 public:
  int32_t GetOrAdd(const std::string& label) {
    auto [it, inserted] =
        index_.emplace(label, static_cast<int32_t>(labels_.size()));
    if (inserted) labels_.push_back(label);
    return it->second;
  }

  int32_t size() const { return static_cast<int32_t>(labels_.size()); }
  std::vector<std::string> TakeLabels() { return std::move(labels_); }

 private:
  std::unordered_map<std::string, int32_t> index_;
  std::vector<std::string> labels_;
};

/// The end of a getline loop over `in`: a failed read (a directory, say,
/// or an EIO) stops the loop just as the end of the file does, and only
/// bad() tells the two apart.
Status ReadFinished(const std::ifstream& in, const std::string& path) {
  if (in.bad()) {
    return Status::IoError(StrFormat("error reading %s", path.c_str()));
  }
  return Status::OK();
}

/// Hands the `columns` tab-separated fields of each line of `in` (opened
/// from `path`) to `row`. One trailing '\r' is stripped first, so a CRLF
/// file loads like its LF copy; a line then empty is blank and skipped. A
/// line with another field count, or an empty field, is InvalidArgument
/// naming `path:line`.
template <typename RowFn>
Status ReadRows(std::ifstream& in, const std::string& path, size_t columns,
                RowFn row) {
  std::string line;
  int64_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    const std::vector<std::string> fields = SplitString(line, '\t');
    if (fields.size() != columns) {
      return Status::InvalidArgument(
          StrFormat("%s:%lld: expected %zu tab-separated fields, got %zu",
                    path.c_str(), static_cast<long long>(line_number),
                    columns, fields.size()));
    }
    for (const std::string& field : fields) {
      if (field.empty()) {
        return Status::InvalidArgument(
            StrFormat("%s:%lld: empty field", path.c_str(),
                      static_cast<long long>(line_number)));
      }
    }
    row(fields);
  }
  return ReadFinished(in, path);
}

/// Reads one split file of 3-column lines.
Status ReadTriples(const std::string& path, bool required, Vocab* entities,
                   Vocab* relations, std::vector<Triple>* out) {
  std::ifstream in(path);
  if (!in.is_open()) {
    if (required) {
      return Status::IoError(StrFormat("cannot open %s", path.c_str()));
    }
    return Status::OK();
  }
  return ReadRows(in, path, 3, [&](const std::vector<std::string>& fields) {
    out->push_back(Triple{entities->GetOrAdd(fields[0]),
                          relations->GetOrAdd(fields[1]),
                          entities->GetOrAdd(fields[2])});
  });
}

/// Closes a finished output file. A write can succeed into the stream
/// buffer while the bytes never reach the disk (ENOSPC, quota); only the
/// flush inside close() makes that failure show on the stream state.
Status CloseWritten(std::ofstream& out, const std::string& path) {
  out.close();
  if (out.fail()) {
    return Status::IoError(StrFormat("short write to %s", path.c_str()));
  }
  return Status::OK();
}

}  // namespace

Result<Dataset> LoadDatasetFromTsv(const std::string& dir,
                                   const std::string& name) {
  Vocab entities, relations, types;
  std::vector<Triple> train, valid, test;
  KGEVAL_RETURN_NOT_OK(ReadTriples(dir + "/train.txt", /*required=*/true,
                                   &entities, &relations, &train));
  KGEVAL_RETURN_NOT_OK(ReadTriples(dir + "/valid.txt", /*required=*/false,
                                   &entities, &relations, &valid));
  KGEVAL_RETURN_NOT_OK(ReadTriples(dir + "/test.txt", /*required=*/false,
                                   &entities, &relations, &test));

  // Optional entity types.
  std::vector<std::pair<int32_t, int32_t>> assignments;
  {
    const std::string path = dir + "/types.txt";
    std::ifstream in(path);
    if (in.is_open()) {
      KGEVAL_RETURN_NOT_OK(
          ReadRows(in, path, 2, [&](const std::vector<std::string>& fields) {
            assignments.emplace_back(entities.GetOrAdd(fields[0]),
                                     types.GetOrAdd(fields[1]));
          }));
    }
  }
  TypeStore store(entities.size(), types.size());
  for (const auto& [entity, type] : assignments) store.Assign(entity, type);
  store.Seal();

  Dataset dataset(name, entities.size(), relations.size(), std::move(train),
                  std::move(valid), std::move(test), std::move(store));
  dataset.set_entity_labels(entities.TakeLabels());
  dataset.set_relation_labels(relations.TakeLabels());
  return dataset;
}

Status SaveDatasetToTsv(const Dataset& dataset, const std::string& dir) {
  auto write_split = [&](const std::string& file,
                         const std::vector<Triple>& triples) -> Status {
    if (triples.empty() && file != "train.txt") return Status::OK();
    const std::string path = dir + "/" + file;
    std::ofstream out(path);
    if (!out.is_open()) {
      return Status::IoError(StrFormat("cannot write %s", path.c_str()));
    }
    for (const Triple& t : triples) {
      out << dataset.EntityLabel(t.head) << '\t'
          << dataset.RelationLabel(t.relation) << '\t'
          << dataset.EntityLabel(t.tail) << '\n';
    }
    return CloseWritten(out, path);
  };
  KGEVAL_RETURN_NOT_OK(write_split("train.txt", dataset.train()));
  KGEVAL_RETURN_NOT_OK(write_split("valid.txt", dataset.valid()));
  KGEVAL_RETURN_NOT_OK(write_split("test.txt", dataset.test()));
  if (dataset.has_types()) {
    const std::string path = dir + "/types.txt";
    std::ofstream out(path);
    if (!out.is_open()) {
      return Status::IoError(StrFormat("cannot write %s", path.c_str()));
    }
    for (int32_t e = 0; e < dataset.num_entities(); ++e) {
      for (int32_t type : dataset.types().TypesOf(e)) {
        out << dataset.EntityLabel(e) << '\t' << "type" << type << '\n';
      }
    }
    return CloseWritten(out, path);
  }
  return Status::OK();
}

}  // namespace kgeval
