#ifndef KGEVAL_GRAPH_IO_H_
#define KGEVAL_GRAPH_IO_H_

#include <string>

#include "graph/dataset.h"
#include "util/status.h"

namespace kgeval {

/// Loads a dataset from the standard KGC text layout used by FB15k-237,
/// CoDEx, YAGO3-10 and friends:
///
///   <dir>/train.txt   tab-separated "head<TAB>relation<TAB>tail" per line
///   <dir>/valid.txt   (optional)
///   <dir>/test.txt    (optional)
///   <dir>/types.txt   (optional) "entity<TAB>type" per line
///
/// Entity/relation/type vocabularies are built from the string
/// labels in order of first appearance; the labels are attached to the
/// dataset. Lines may end in LF or CRLF. Fails with IoError when train.txt
/// is missing and InvalidArgument on malformed lines, including lines with
/// an empty field (the offending file:line is in the message).
Result<Dataset> LoadDatasetFromTsv(const std::string& dir,
                                   const std::string& name = "tsv");

/// Writes the dataset back out in the same layout (labels are used when
/// present, otherwise E<i>/R<i> placeholders). Creates files in `dir`,
/// which must already exist. Each file is closed and checked before the
/// next is written, so a full disk fails as IoError.
Status SaveDatasetToTsv(const Dataset& dataset, const std::string& dir);

}  // namespace kgeval

#endif  // KGEVAL_GRAPH_IO_H_
