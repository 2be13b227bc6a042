#include "util/string_util.h"

#include <cctype>
#include <charconv>
#include <cstdio>
#include <system_error>

namespace rdfsum {

std::vector<std::string_view> Split(std::string_view input, char sep) {
  std::vector<std::string_view> out;
  size_t start = 0;
  while (true) {
    size_t pos = input.find(sep, start);
    if (pos == std::string_view::npos) {
      out.push_back(input.substr(start));
      break;
    }
    out.push_back(input.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

bool ParseDecimal(std::string_view text, uint64_t max, uint64_t* out) {
  // from_chars into an unsigned type takes no sign, no blank and no
  // prefix, and reports overflow instead of wrapping.
  uint64_t value = 0;
  const char* end = text.data() + text.size();
  const std::from_chars_result r = std::from_chars(text.data(), end, value);
  if (r.ec != std::errc() || r.ptr != end || value > max) return false;
  *out = value;
  return true;
}

std::string_view StripWhitespace(std::string_view input) {
  size_t begin = 0;
  size_t end = input.size();
  while (begin < end &&
         std::isspace(static_cast<unsigned char>(input[begin]))) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(input[end - 1]))) {
    --end;
  }
  return input.substr(begin, end - begin);
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.substr(text.size() - suffix.size()) == suffix;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::string FormatWithCommas(uint64_t n) {
  std::string digits = std::to_string(n);
  std::string out;
  int count = 0;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    if (count > 0 && count % 3 == 0) out.push_back(',');
    out.push_back(*it);
    ++count;
  }
  return std::string(out.rbegin(), out.rend());
}

std::string FormatDouble(double value, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, value);
  return buf;
}

std::string AsciiToLower(std::string_view input) {
  std::string out(input);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

}  // namespace rdfsum
