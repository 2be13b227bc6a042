#ifndef RDFSUM_UTIL_STRING_UTIL_H_
#define RDFSUM_UTIL_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace rdfsum {

/// Splits `input` on `sep`, keeping empty fields.
std::vector<std::string_view> Split(std::string_view input, char sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view input);

bool StartsWith(std::string_view text, std::string_view prefix);
bool EndsWith(std::string_view text, std::string_view suffix);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Formats `n` with thousands separators, e.g. 1234567 -> "1,234,567".
std::string FormatWithCommas(uint64_t n);

/// Formats a double with `digits` decimal places.
std::string FormatDouble(double value, int digits);

/// Strict decimal parse for command-line numbers: `text` must be one or
/// more ASCII digits and nothing else (no sign, no whitespace, no prefix)
/// with a value of at most `max`. Returns false, leaving *out untouched,
/// otherwise — std::stoull would wrap "-5" and skip leading blanks.
bool ParseDecimal(std::string_view text, uint64_t max, uint64_t* out);

/// Lower-cases ASCII characters.
std::string AsciiToLower(std::string_view input);

}  // namespace rdfsum

#endif  // RDFSUM_UTIL_STRING_UTIL_H_
