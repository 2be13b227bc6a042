#include "oracle/reference_ntriples.h"

#include <map>
#include <set>
#include <string>
#include <tuple>

namespace rdfsum::io {
namespace {

bool IsLetter(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}
bool IsDigit(char c) { return c >= '0' && c <= '9'; }

/// The bytes std::isspace accepts in the "C" locale.
bool IsLineSpace(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

int HexValue(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

/// One statement line, read left to right with one cursor.
class Line {
 public:
  explicit Line(std::string_view text) : text_(text) {}

  /// '.' and then nothing but spaces and tabs.
  bool ReadTerminator() {
    SkipSpaces();
    if (AtEnd() || Peek() != '.') return false;
    ++pos_;
    SkipSpaces();
    return AtEnd();
  }

  /// <iri> | "literal"[@lang | ^^<iri>] | _:label
  bool ReadTerm(Term* out) {
    SkipSpaces();
    if (AtEnd()) return false;
    if (Peek() == '<') {
      out->kind = TermKind::kIri;
      return ReadIri(&out->lexical);
    }
    if (Peek() == '"') {
      out->kind = TermKind::kLiteral;
      return ReadLiteral(out);
    }
    if (Peek() == '_' && pos_ + 1 < text_.size() && text_[pos_ + 1] == ':') {
      out->kind = TermKind::kBlank;
      return ReadBlank(&out->lexical);
    }
    return false;
  }

 private:
  /// IRIREF: any byte but #x00-#x20 and <>"{}|^`\, or a \u / \U escape.
  /// Must not be empty.
  bool ReadIri(std::string* out) {
    ++pos_;  // '<'
    while (true) {
      if (AtEnd()) return false;
      const char c = Peek();
      if (c == '>') {
        ++pos_;
        return !out->empty();
      }
      if (c == '\\') {
        if (!ReadUchar(out)) return false;
        continue;
      }
      if (static_cast<unsigned char>(c) <= 0x20) return false;
      if (c == '<' || c == '"' || c == '{' || c == '}' || c == '|' ||
          c == '^' || c == '`') {
        return false;
      }
      out->push_back(c);
      ++pos_;
    }
  }

  /// The cursor is on a backslash: \uXXXX or \UXXXXXXXX, a Unicode scalar
  /// value, appended as UTF-8.
  bool ReadUchar(std::string* out) {
    if (pos_ + 1 >= text_.size()) return false;
    const char u = text_[pos_ + 1];
    size_t digits = 0;
    if (u == 'u') digits = 4;
    if (u == 'U') digits = 8;
    if (digits == 0) return false;
    if (pos_ + 2 + digits > text_.size()) return false;
    uint32_t cp = 0;
    for (size_t i = 0; i < digits; ++i) {
      const int v = HexValue(text_[pos_ + 2 + i]);
      if (v < 0) return false;
      cp = cp * 16 + static_cast<uint32_t>(v);
    }
    if (cp > 0x10FFFF || (cp >= 0xD800 && cp <= 0xDFFF)) return false;
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 + cp / 64));
      out->push_back(static_cast<char>(0x80 + cp % 64));
    } else if (cp < 0x10000) {
      out->push_back(static_cast<char>(0xE0 + cp / 4096));
      out->push_back(static_cast<char>(0x80 + cp / 64 % 64));
      out->push_back(static_cast<char>(0x80 + cp % 64));
    } else {
      out->push_back(static_cast<char>(0xF0 + cp / 262144));
      out->push_back(static_cast<char>(0x80 + cp / 4096 % 64));
      out->push_back(static_cast<char>(0x80 + cp / 64 % 64));
      out->push_back(static_cast<char>(0x80 + cp % 64));
    }
    pos_ += 2 + digits;
    return true;
  }

  /// The cursor is on a backslash inside a string: ECHAR or UCHAR.
  bool ReadStringEscape(std::string* out) {
    if (pos_ + 1 >= text_.size()) return false;
    const char e = text_[pos_ + 1];
    const std::string_view from = "tbnrf\"'\\";
    const std::string_view to = "\t\b\n\r\f\"'\\";
    const size_t k = from.find(e);
    if (k != std::string_view::npos) {
      out->push_back(to[k]);
      pos_ += 2;
      return true;
    }
    return ReadUchar(out);
  }

  bool ReadLiteral(Term* out) {
    ++pos_;  // '"'
    while (true) {
      if (AtEnd()) return false;
      const char c = Peek();
      if (c == '"') {
        ++pos_;
        break;
      }
      if (c == '\\') {
        if (!ReadStringEscape(&out->lexical)) return false;
        continue;
      }
      out->lexical.push_back(c);
      ++pos_;
    }
    if (!AtEnd() && Peek() == '@') {
      ++pos_;
      while (!AtEnd() &&
             (IsLetter(Peek()) || IsDigit(Peek()) || Peek() == '-')) {
        out->language.push_back(Peek());
        ++pos_;
      }
      return IsLangTag(out->language);
    }
    if (pos_ + 1 < text_.size() && Peek() == '^' && text_[pos_ + 1] == '^') {
      pos_ += 2;
      if (AtEnd() || Peek() != '<') return false;
      return ReadIri(&out->datatype);
    }
    return true;
  }

  /// LANGTAG ::= [a-zA-Z]+ ('-' [a-zA-Z0-9]+)*, checked by a two-state walk.
  static bool IsLangTag(const std::string& tag) {
    if (tag.empty() || !IsLetter(tag[0])) return false;
    bool in_first = true;
    bool after_dash = false;
    for (char c : tag) {
      if (c == '-') {
        if (after_dash) return false;
        after_dash = true;
        in_first = false;
      } else if (in_first ? IsLetter(c) : (IsLetter(c) || IsDigit(c))) {
        after_dash = false;
      } else {
        return false;
      }
    }
    return !after_dash;
  }

  /// _:label with label bytes [A-Za-z0-9_.-]; trailing dots are given back
  /// to the statement terminator.
  bool ReadBlank(std::string* out) {
    pos_ += 2;  // "_:"
    while (!AtEnd() && (IsLetter(Peek()) || IsDigit(Peek()) ||
                        Peek() == '_' || Peek() == '-' || Peek() == '.')) {
      out->push_back(Peek());
      ++pos_;
    }
    while (!out->empty() && out->back() == '.') {
      out->pop_back();
      --pos_;
    }
    return !out->empty();
  }

  bool AtEnd() const { return pos_ >= text_.size(); }
  char Peek() const { return text_[pos_]; }

  void SkipSpaces() {
    while (!AtEnd() && (Peek() == ' ' || Peek() == '\t')) ++pos_;
  }

  std::string_view text_;
  size_t pos_ = 0;
};

/// subject predicate object '.', nothing after but spaces and tabs.
bool ReadStatement(std::string_view text, Term* s, Term* p, Term* o) {
  Line line(text);
  if (!line.ReadTerm(s) || s->kind == TermKind::kLiteral) return false;
  if (!line.ReadTerm(p) || p->kind != TermKind::kIri) return false;
  if (!line.ReadTerm(o)) return false;
  return line.ReadTerminator();
}

}  // namespace

ReferenceNTriples ReferenceParseNTriples(std::string_view text,
                                         const std::vector<Term>& seed_terms) {
  using Key = std::tuple<int, std::string, std::string, std::string>;
  ReferenceNTriples out;
  std::map<Key, TermId> ids;
  auto intern = [&](const Term& t) {
    const Key key{static_cast<int>(t.kind), t.lexical, t.datatype, t.language};
    auto it = ids.find(key);
    if (it != ids.end()) return it->second;
    out.terms.push_back(t);
    const TermId id = static_cast<TermId>(out.terms.size());
    ids.emplace(key, id);
    return id;
  };
  for (const Term& t : seed_terms) intern(t);

  std::set<std::tuple<TermId, TermId, TermId>> seen;
  size_t start = 0;
  while (true) {
    size_t end = start;
    while (end < text.size() && text[end] != '\n') ++end;
    std::string_view line = text.substr(start, end - start);
    ++out.lines;
    size_t b = 0;
    size_t e = line.size();
    while (b < e && IsLineSpace(line[b])) ++b;
    while (e > b && IsLineSpace(line[e - 1])) --e;
    line = line.substr(b, e - b);
    if (!line.empty() && line[0] != '#') {
      Term s, p, o;
      if (ReadStatement(line, &s, &p, &o)) {
        const TermId si = intern(s);
        const TermId pi = intern(p);
        const TermId oi = intern(o);
        if (seen.insert({si, pi, oi}).second) {
          out.triples.push_back(Triple{si, pi, oi});
        }
      } else {
        out.skipped_lines.push_back(out.lines);
      }
    }
    if (end == text.size()) break;
    start = end + 1;
  }
  return out;
}

}  // namespace rdfsum::io
