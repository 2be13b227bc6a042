#ifndef RDFSUM_IO_TERM_SCANNER_H_
#define RDFSUM_IO_TERM_SCANNER_H_

#include <cstddef>
#include <string>
#include <string_view>

#include "rdf/term.h"
#include "util/status.h"

/// The one N-Triples term scanner, shared by the N-Triples line parser, the
/// public NTriplesParser::ParseTerm and the Turtle parser's IRI path. Terms
/// come back as TermRefs that point into the input; only a term that
/// contains a backslash escape is decoded, into caller-owned scratch.
/// Grammar and materialization rules: src/io/README.md.
namespace rdfsum::io::internal {

/// Reusable decode buffers for one term position of a statement. A TermRef
/// returned by ScanTerm may point into these, so a scratch must outlive the
/// ref and must not be handed to another ScanTerm while the ref is in use.
struct TermScratch {
  std::string lexical;
  std::string datatype;
};

/// Skips spaces and tabs, then scans one term at text[pos]: <iri>, _:label,
/// "literal", "literal"@lang or "literal"^^<datatype>. On success `*out`
/// holds the term and `pos` is just past it. IRIs (including datatypes)
/// must be non-empty.
Status ScanTerm(std::string_view text, size_t& pos, TermScratch* scratch,
                TermRef* out);

/// Scans an IRIREF body at text[pos] == '<' through its closing '>'. Bytes
/// #x00-#x20 and <"{}|^` are illegal, and the only escapes are \uXXXX and
/// \UXXXXXXXX. `*out` views `text` unless an escape forced a decode into
/// `*scratch`. An empty body is returned as is; callers decide if it is
/// legal (Turtle resolves <> against @base).
Status ScanIri(std::string_view text, size_t& pos, std::string* scratch,
               std::string_view* out);

/// Decodes the string escape at text[pos] (a backslash) into `out` and
/// advances `pos` past it: \t \b \n \r \f \" \' \\ \uXXXX \UXXXXXXXX. The
/// Turtle parser decodes its string escapes through this function too.
Status DecodeEscape(std::string_view text, size_t& pos, std::string* out);

}  // namespace rdfsum::io::internal

#endif  // RDFSUM_IO_TERM_SCANNER_H_
