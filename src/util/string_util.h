#ifndef KGEVAL_UTIL_STRING_UTIL_H_
#define KGEVAL_UTIL_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace kgeval {

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Splits `text` on `sep` (single char); keeps empty fields.
std::vector<std::string> SplitString(std::string_view text, char sep);

/// Formats a count with thousands separators: 1234567 -> "1,234,567".
std::string FormatWithCommas(long long value);

}  // namespace kgeval

#endif  // KGEVAL_UTIL_STRING_UTIL_H_
