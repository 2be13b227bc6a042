#ifndef RDFSUM_RDF_TERM_H_
#define RDFSUM_RDF_TERM_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace rdfsum {

/// Kind of an RDF term, per the RDF 1.1 abstract syntax.
enum class TermKind : uint8_t {
  kIri = 0,
  kLiteral = 1,
  kBlank = 2,
};

struct Term;

/// A borrowed RDF term: a kind plus views of its three pieces (same meaning
/// as Term's fields). Dictionary probes and the N-Triples scanner work on
/// refs so a term that is already interned is never copied into a string;
/// a Term is built only when a new id is inserted (ToTerm). A ref is valid
/// while the bytes it views are: never keep one past the Term, input text
/// or scratch buffer it was taken from.
struct TermRef {
  TermKind kind = TermKind::kIri;
  std::string_view lexical;
  std::string_view datatype;
  std::string_view language;

  bool is_iri() const { return kind == TermKind::kIri; }
  bool is_literal() const { return kind == TermKind::kLiteral; }

  /// Decoded bytes of all three pieces (ParseOptions::max_term_bytes).
  size_t bytes() const {
    return lexical.size() + datatype.size() + language.size();
  }

  bool operator==(const TermRef& other) const {
    return kind == other.kind && lexical == other.lexical &&
           datatype == other.datatype && language == other.language;
  }

  /// An owning copy.
  Term ToTerm() const;
};

/// One RDF term: an IRI, a literal (with optional datatype IRI or language
/// tag), or a blank node. Terms are value types; graphs store dictionary-
/// encoded ids (TermId) instead of Term objects.
struct Term {
  TermKind kind = TermKind::kIri;
  /// IRI string (without angle brackets), literal lexical form, or blank
  /// node label (without the "_:" prefix).
  std::string lexical;
  /// Datatype IRI for typed literals; empty otherwise.
  std::string datatype;
  /// Language tag for language-tagged literals; empty otherwise.
  std::string language;

  static Term Iri(std::string_view iri) {
    return Term{TermKind::kIri, std::string(iri), {}, {}};
  }
  static Term Literal(std::string_view lex) {
    return Term{TermKind::kLiteral, std::string(lex), {}, {}};
  }
  static Term TypedLiteral(std::string_view lex, std::string_view dt) {
    return Term{TermKind::kLiteral, std::string(lex), std::string(dt), {}};
  }
  static Term LangLiteral(std::string_view lex, std::string_view lang) {
    return Term{TermKind::kLiteral, std::string(lex), {}, std::string(lang)};
  }
  static Term Blank(std::string_view label) {
    return Term{TermKind::kBlank, std::string(label), {}, {}};
  }

  bool is_iri() const { return kind == TermKind::kIri; }
  bool is_literal() const { return kind == TermKind::kLiteral; }
  bool is_blank() const { return kind == TermKind::kBlank; }

  bool operator==(const Term& other) const {
    return kind == other.kind && lexical == other.lexical &&
           datatype == other.datatype && language == other.language;
  }

  /// A view of this term; valid while the term is alive and unchanged.
  operator TermRef() const {  // NOLINT
    return TermRef{kind, lexical, datatype, language};
  }

  /// Appends the canonical N-Triples rendering to `out`: <iri>, "lit",
  /// "lit"@en, "lit"^^<dt>, _:label, with \\ " \n \r \t escaped inside
  /// literals. The served ROW frames and the CLI both print these bytes.
  void AppendNTriples(std::string* out) const;

  /// AppendNTriples into a fresh string.
  std::string ToNTriples() const;
};

inline Term TermRef::ToTerm() const {
  return Term{kind, std::string(lexical), std::string(datatype),
              std::string(language)};
}

}  // namespace rdfsum

#endif  // RDFSUM_RDF_TERM_H_
