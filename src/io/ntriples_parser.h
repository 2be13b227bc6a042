#ifndef RDFSUM_IO_NTRIPLES_PARSER_H_
#define RDFSUM_IO_NTRIPLES_PARSER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "rdf/graph.h"
#include "util/exec_context.h"
#include "util/status.h"
#include "util/statusor.h"

namespace rdfsum::io {

/// Parsing knobs.
struct ParseOptions {
  /// In strict mode any malformed line aborts with InvalidArgument, and the
  /// graph keeps the triples of the lines before it; otherwise malformed
  /// lines are counted and skipped (useful for crawled data).
  bool strict = true;
  /// 0 = unlimited. A line longer than this is malformed without being
  /// parsed — the recovery guard against a corrupt dump whose missing
  /// newline turns the rest of the file into one multi-gigabyte "line".
  uint64_t max_line_bytes = 0;
  /// 0 = unlimited. Cap on one decoded term (lexical + datatype + language
  /// bytes); an oversized term makes the line malformed.
  uint64_t max_term_bytes = 0;
  /// Optional governance: polled between lines; a tripped deadline or
  /// cancellation aborts the parse with the context's status (partial
  /// triples already added to the graph stay — callers discard the graph).
  util::ExecContext* exec = nullptr;
};

/// Counters filled by the parser.
struct ParseStats {
  /// At most this many line-numbered diagnostics are retained per parse;
  /// the rest only bump `skipped`.
  static constexpr size_t kMaxDiagnostics = 20;

  uint64_t lines = 0;
  uint64_t triples = 0;     // triples successfully added (before dedup)
  uint64_t duplicates = 0;  // triples already present in the graph
  uint64_t skipped = 0;     // malformed lines skipped (strict = false)
  /// Line-numbered reasons for skipped lines ("line 17: unterminated IRI"),
  /// capped at kMaxDiagnostics. Strict mode reports the first failure in
  /// the returned Status instead.
  std::vector<std::string> diagnostics;
};

/// A line-oriented N-Triples 1.1 parser (the role raptor/serd/Jena play for
/// the paper's prototype; see DESIGN.md §5 on this substitution).
///
/// Supported term forms: <iri>, _:label, "literal", "literal"@lang,
/// "literal"^^<datatype>, with \t \b \n \r \f \" \' \\ \uXXXX \UXXXXXXXX
/// escapes in literals and only \uXXXX \UXXXXXXXX escapes in IRIs. IRIs
/// exclude bytes #x00-#x20, and language tags follow LANGTAG. Comment lines
/// (#) and blank lines are ignored. Grammar and the zero-copy term scanner:
/// src/io/README.md.
class NTriplesParser {
 public:
  /// Triples the parse collects between graph inserts: it interns each
  /// line's terms as it scans them, then adds a full batch to the graph in
  /// one loop (src/io/README.md).
  /// A constant, not a ParseOptions knob; tests place lines on either side
  /// of a batch boundary with it.
  static constexpr size_t kInsertBatch = 4096;

  /// Parses all lines of `text` into `graph` in one pass on the calling
  /// thread. Pre-sizes the graph's triple
  /// set and dictionary from the input's line count so bulk loads don't
  /// rehash the open-addressing index repeatedly.
  static Status ParseString(std::string_view text, Graph* graph,
                            ParseStats* stats = nullptr,
                            const ParseOptions& options = {});

  /// Parses the file at `path` into `graph` (buffered through ParseString,
  /// inheriting its size-based pre-reserve).
  static Status ParseFile(const std::string& path, Graph* graph,
                          ParseStats* stats = nullptr,
                          const ParseOptions& options = {});

  /// Parses a single term serialization, e.g. `<http://a>` or `"x"@en`,
  /// through the same scanner as ParseString and copies it into a Term.
  /// Exposed for tests and for the SPARQL parser, which reuses it.
  static StatusOr<Term> ParseTerm(std::string_view text);
};

}  // namespace rdfsum::io

#endif  // RDFSUM_IO_NTRIPLES_PARSER_H_
