#ifndef KGEVAL_UTIL_TABLE_H_
#define KGEVAL_UTIL_TABLE_H_

#include <string>
#include <vector>

namespace kgeval {

/// Minimal aligned-text table used by the bench harness to print the paper's
/// tables. Cells are strings; columns are padded to their widest cell.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  /// Appends a data row; must have the same arity as the header.
  void AddRow(std::vector<std::string> row);

  /// Inserts a horizontal separator before the next added row.
  void AddSeparator();

  /// Renders to a string with a header rule and column padding.
  std::string ToString() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
  std::vector<size_t> separators_;  // Row indices that get a rule above them.
};

}  // namespace kgeval

#endif  // KGEVAL_UTIL_TABLE_H_
