#include "rdf/term.h"

namespace rdfsum {
namespace {

/// Appends `lex` with the characters N-Triples requires escaping inside
/// literals escaped; runs of plain bytes are appended in one go.
void AppendEscapedLiteral(std::string_view lex, std::string* out) {
  size_t run = 0;
  for (size_t i = 0; i < lex.size(); ++i) {
    const char* esc = nullptr;
    switch (lex[i]) {
      case '\\':
        esc = "\\\\";
        break;
      case '"':
        esc = "\\\"";
        break;
      case '\n':
        esc = "\\n";
        break;
      case '\r':
        esc = "\\r";
        break;
      case '\t':
        esc = "\\t";
        break;
      default:
        continue;
    }
    out->append(lex.data() + run, i - run);
    out->append(esc, 2);
    run = i + 1;
  }
  out->append(lex.data() + run, lex.size() - run);
}

}  // namespace

void Term::AppendNTriples(std::string* out) const {
  switch (kind) {
    case TermKind::kIri:
      out->push_back('<');
      out->append(lexical);
      out->push_back('>');
      return;
    case TermKind::kBlank:
      out->append("_:");
      out->append(lexical);
      return;
    case TermKind::kLiteral:
      out->push_back('"');
      AppendEscapedLiteral(lexical, out);
      out->push_back('"');
      if (!language.empty()) {
        out->push_back('@');
        out->append(language);
      } else if (!datatype.empty()) {
        out->append("^^<");
        out->append(datatype);
        out->push_back('>');
      }
      return;
  }
}

std::string Term::ToNTriples() const {
  std::string out;
  AppendNTriples(&out);
  return out;
}

}  // namespace rdfsum
