#include "io/term_scanner.h"

#include <array>
#include <cstdint>
#include <cstring>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace rdfsum::io::internal {
namespace {

/// Byte classes of an IRIREF body.
enum IriByte : uint8_t { kIriPlain, kIriClose, kIriEscape, kIriIllegal };

constexpr std::array<uint8_t, 256> kIriClass = [] {
  std::array<uint8_t, 256> t{};
  for (int c = 0; c <= 0x20; ++c) t[c] = kIriIllegal;
  for (unsigned char c : std::string_view("<\"{}|^`")) t[c] = kIriIllegal;
  t['>'] = kIriClose;
  t['\\'] = kIriEscape;
  return t;
}();

/// Index of the first byte at or after `i` that is not a plain IRI byte
/// (kIriClass), or text.size(). IRIs are most of an N-Triples dump's bytes,
/// so with SSE2 sixteen bytes are classified per step.
size_t SkipPlainIri(std::string_view text, size_t i) {
#if defined(__SSE2__)
  const __m128i space = _mm_set1_epi8(0x20);
  while (i + 16 <= text.size()) {
    const __m128i x =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(text.data() + i));
    // x <= 0x20 as unsigned bytes, then the nine special characters.
    __m128i hit = _mm_cmpeq_epi8(_mm_min_epu8(x, space), x);
    for (char c : {'<', '>', '"', '{', '}', '|', '^', '`', '\\'}) {
      hit = _mm_or_si128(hit, _mm_cmpeq_epi8(x, _mm_set1_epi8(c)));
    }
    if (const int bits = _mm_movemask_epi8(hit); bits != 0) {
      return i + static_cast<size_t>(__builtin_ctz(bits));
    }
    i += 16;
  }
#endif
  while (i < text.size() &&
         kIriClass[static_cast<uint8_t>(text[i])] == kIriPlain) {
    ++i;
  }
  return i;
}

/// Bytes of a blank node label: [A-Za-z0-9_.-].
constexpr std::array<bool, 256> kBlankByte = [] {
  std::array<bool, 256> t{};
  for (int c = 'a'; c <= 'z'; ++c) t[c] = true;
  for (int c = 'A'; c <= 'Z'; ++c) t[c] = true;
  for (int c = '0'; c <= '9'; ++c) t[c] = true;
  t['_'] = t['-'] = t['.'] = true;
  return t;
}();

bool IsAlpha(char c) { return (c | 0x20) >= 'a' && (c | 0x20) <= 'z'; }
bool IsDigit(char c) { return c >= '0' && c <= '9'; }

/// LANGTAG ::= [a-zA-Z]+ ('-' [a-zA-Z0-9]+)*
bool IsLangTag(std::string_view tag) {
  size_t i = 0;
  while (i < tag.size() && IsAlpha(tag[i])) ++i;
  if (i == 0) return false;
  while (i < tag.size()) {
    if (tag[i] != '-') return false;
    const size_t seg = ++i;
    while (i < tag.size() && (IsAlpha(tag[i]) || IsDigit(tag[i]))) ++i;
    if (i == seg) return false;
  }
  return true;
}

/// Appends the UTF-8 encoding of `cp` to `out`; returns false for invalid
/// code points.
bool AppendUtf8(uint32_t cp, std::string* out) {
  if (cp <= 0x7F) {
    out->push_back(static_cast<char>(cp));
  } else if (cp <= 0x7FF) {
    out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else if (cp <= 0xFFFF) {
    if (cp >= 0xD800 && cp <= 0xDFFF) return false;  // surrogate
    out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else if (cp <= 0x10FFFF) {
    out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else {
    return false;
  }
  return true;
}

bool ParseHex(std::string_view text, size_t pos, size_t len, uint32_t* out) {
  if (pos + len > text.size()) return false;
  uint32_t value = 0;
  for (size_t i = 0; i < len; ++i) {
    char c = text[pos + i];
    value <<= 4;
    if (c >= '0' && c <= '9') value |= static_cast<uint32_t>(c - '0');
    else if (c >= 'a' && c <= 'f') value |= static_cast<uint32_t>(c - 'a' + 10);
    else if (c >= 'A' && c <= 'F') value |= static_cast<uint32_t>(c - 'A' + 10);
    else return false;
  }
  *out = value;
  return true;
}

/// Index of the first `c` in text[from, to), or `to`.
size_t FindByte(std::string_view text, size_t from, size_t to, char c) {
  const void* hit = std::memchr(text.data() + from, c, to - from);
  return hit ? static_cast<size_t>(static_cast<const char*>(hit) - text.data())
             : to;
}

/// Scans a STRING_LITERAL_QUOTE body at text[pos] == '"' through its
/// closing quote: memchr finds the quote, and a second memchr over the same
/// span finds whether any escape must be decoded first.
Status ScanQuoted(std::string_view text, size_t& pos, std::string* scratch,
                  std::string_view* out) {
  const size_t begin = pos + 1;
  size_t i = begin;
  size_t quote = FindByte(text, i, text.size(), '"');
  size_t escape = FindByte(text, i, quote, '\\');
  if (escape == quote) {
    if (quote == text.size()) {
      return Status::InvalidArgument("unterminated literal");
    }
    *out = text.substr(begin, quote - begin);
    pos = quote + 1;
    return Status::OK();
  }
  scratch->clear();
  while (escape != quote) {
    scratch->append(text.data() + i, escape - i);
    i = escape;
    RDFSUM_RETURN_IF_ERROR(DecodeEscape(text, i, scratch));
    // An escaped quote (\") consumed the quote found so far.
    if (i > quote) quote = FindByte(text, i, text.size(), '"');
    escape = FindByte(text, i, quote, '\\');
  }
  if (quote == text.size()) {
    return Status::InvalidArgument("unterminated literal");
  }
  scratch->append(text.data() + i, quote - i);
  *out = *scratch;
  pos = quote + 1;
  return Status::OK();
}

/// ScanIri plus N-Triples' non-empty rule.
Status ScanNonEmptyIri(std::string_view text, size_t& pos,
                       std::string* scratch, std::string_view* out) {
  RDFSUM_RETURN_IF_ERROR(ScanIri(text, pos, scratch, out));
  if (out->empty()) return Status::InvalidArgument("empty IRI");
  return Status::OK();
}

Status ScanLiteral(std::string_view text, size_t& pos, TermScratch* scratch,
                   TermRef* out) {
  *out = TermRef{TermKind::kLiteral, {}, {}, {}};
  RDFSUM_RETURN_IF_ERROR(ScanQuoted(text, pos, &scratch->lexical,
                                    &out->lexical));
  if (pos < text.size() && text[pos] == '@') {
    const size_t begin = ++pos;
    while (pos < text.size() &&
           (IsAlpha(text[pos]) || IsDigit(text[pos]) || text[pos] == '-')) {
      ++pos;
    }
    out->language = text.substr(begin, pos - begin);
    if (out->language.empty()) {
      return Status::InvalidArgument("empty language tag");
    }
    if (!IsLangTag(out->language)) {
      return Status::InvalidArgument("malformed language tag");
    }
    return Status::OK();
  }
  if (pos + 1 < text.size() && text[pos] == '^' && text[pos + 1] == '^') {
    pos += 2;
    if (pos >= text.size() || text[pos] != '<') {
      return Status::InvalidArgument("datatype must be an IRI");
    }
    return ScanNonEmptyIri(text, pos, &scratch->datatype, &out->datatype);
  }
  return Status::OK();
}

Status ScanBlank(std::string_view text, size_t& pos, TermRef* out) {
  // text[pos..pos+1] == "_:"
  const size_t begin = pos + 2;
  size_t end = begin;
  while (end < text.size() && kBlankByte[static_cast<uint8_t>(text[end])]) {
    ++end;
  }
  // A trailing '.' belongs to the statement terminator, not the label.
  while (end > begin && text[end - 1] == '.') --end;
  if (end == begin) return Status::InvalidArgument("empty blank node label");
  *out = TermRef{TermKind::kBlank, text.substr(begin, end - begin), {}, {}};
  pos = end;
  return Status::OK();
}

}  // namespace

Status DecodeEscape(std::string_view text, size_t& pos, std::string* out) {
  if (pos + 1 >= text.size()) {
    return Status::InvalidArgument("dangling backslash");
  }
  char c = text[pos + 1];
  switch (c) {
    case 't': out->push_back('\t'); pos += 2; return Status::OK();
    case 'b': out->push_back('\b'); pos += 2; return Status::OK();
    case 'n': out->push_back('\n'); pos += 2; return Status::OK();
    case 'r': out->push_back('\r'); pos += 2; return Status::OK();
    case 'f': out->push_back('\f'); pos += 2; return Status::OK();
    case '"': out->push_back('"'); pos += 2; return Status::OK();
    case '\'': out->push_back('\''); pos += 2; return Status::OK();
    case '\\': out->push_back('\\'); pos += 2; return Status::OK();
    case 'u': {
      uint32_t cp = 0;
      if (!ParseHex(text, pos + 2, 4, &cp) || !AppendUtf8(cp, out)) {
        return Status::InvalidArgument("bad \\u escape");
      }
      pos += 6;
      return Status::OK();
    }
    case 'U': {
      uint32_t cp = 0;
      if (!ParseHex(text, pos + 2, 8, &cp) || !AppendUtf8(cp, out)) {
        return Status::InvalidArgument("bad \\U escape");
      }
      pos += 10;
      return Status::OK();
    }
    default:
      return Status::InvalidArgument(std::string("unknown escape \\") + c);
  }
}

Status ScanIri(std::string_view text, size_t& pos, std::string* scratch,
               std::string_view* out) {
  // text[pos] == '<'. Runs of plain bytes are skipped (SkipPlainIri) and
  // copied only once an escape forces a decode.
  const size_t begin = pos + 1;
  size_t run = begin;
  bool decoded = false;
  for (size_t i = SkipPlainIri(text, begin); i < text.size();
       i = SkipPlainIri(text, i)) {
    switch (kIriClass[static_cast<uint8_t>(text[i])]) {
      case kIriClose:
        if (decoded) {
          scratch->append(text.data() + run, i - run);
          *out = *scratch;
        } else {
          *out = text.substr(begin, i - begin);
        }
        pos = i + 1;
        return Status::OK();
      case kIriEscape:
        if (i + 1 < text.size() && text[i + 1] != 'u' && text[i + 1] != 'U') {
          return Status::InvalidArgument(std::string("illegal escape \\") +
                                         text[i + 1] + " in IRI");
        }
        if (!decoded) scratch->clear();
        decoded = true;
        scratch->append(text.data() + run, i - run);
        RDFSUM_RETURN_IF_ERROR(DecodeEscape(text, i, scratch));
        run = i;
        continue;
      default:  // kIriIllegal; SkipPlainIri never stops on kIriPlain
        return Status::InvalidArgument("illegal character in IRI");
    }
  }
  return Status::InvalidArgument("unterminated IRI");
}

Status ScanTerm(std::string_view text, size_t& pos, TermScratch* scratch,
                TermRef* out) {
  while (pos < text.size() && (text[pos] == ' ' || text[pos] == '\t')) ++pos;
  if (pos >= text.size()) return Status::InvalidArgument("expected term");
  const char c = text[pos];
  if (c == '<') {
    *out = TermRef{TermKind::kIri, {}, {}, {}};
    return ScanNonEmptyIri(text, pos, &scratch->lexical, &out->lexical);
  }
  if (c == '"') return ScanLiteral(text, pos, scratch, out);
  if (c == '_' && pos + 1 < text.size() && text[pos + 1] == ':') {
    return ScanBlank(text, pos, out);
  }
  return Status::InvalidArgument("unrecognized term start: '" +
                                 std::string(1, c) + "'");
}

}  // namespace rdfsum::io::internal
