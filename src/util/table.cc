#include "util/table.h"

#include <algorithm>

#include "util/logging.h"

namespace kgeval {

TextTable::TextTable(std::vector<std::string> header)
    : header_(std::move(header)) {}

void TextTable::AddRow(std::vector<std::string> row) {
  KGEVAL_CHECK_EQ(row.size(), header_.size());
  rows_.push_back(std::move(row));
}

void TextTable::AddSeparator() { separators_.push_back(rows_.size()); }

std::string TextTable::ToString() const {
  std::vector<size_t> widths(header_.size());
  for (size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto render_row = [&](const std::vector<std::string>& row) {
    std::string line;
    for (size_t c = 0; c < row.size(); ++c) {
      line += row[c];
      line.append(widths[c] - row[c].size(), ' ');
      if (c + 1 < row.size()) line += "  ";
    }
    while (!line.empty() && line.back() == ' ') line.pop_back();
    line += "\n";
    return line;
  };
  std::string rule;
  for (size_t c = 0; c < widths.size(); ++c) {
    rule.append(widths[c], '-');
    if (c + 1 < widths.size()) rule += "  ";
  }
  rule += "\n";

  std::string out = render_row(header_);
  out += rule;
  for (size_t r = 0; r < rows_.size(); ++r) {
    if (std::find(separators_.begin(), separators_.end(), r) !=
            separators_.end() &&
        r != 0) {
      out += rule;
    }
    out += render_row(rows_[r]);
  }
  return out;
}

}  // namespace kgeval
