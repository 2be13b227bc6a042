#ifndef RDFSUM_ORACLE_REFERENCE_NTRIPLES_H_
#define RDFSUM_ORACLE_REFERENCE_NTRIPLES_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "rdf/term.h"
#include "rdf/triple.h"

namespace rdfsum::io {

/// What a lenient N-Triples parse of a text should produce, computed the
/// obvious way: the oracle NTriplesParser::ParseString is compared against
/// at every thread count.
struct ReferenceNTriples {
  /// The dictionary: id i is terms[i - 1]. The seed terms come first, then
  /// every term of an accepted line in first-occurrence order (subject,
  /// predicate, object, line by line).
  std::vector<Term> terms;
  /// Triples of accepted lines as ids into `terms`, duplicates dropped, in
  /// line order.
  std::vector<Triple> triples;
  /// 1-based numbers of the malformed lines a lenient parse skips.
  std::vector<uint64_t> skipped_lines;
  /// Lines of the text, counted like ParseStats::lines.
  uint64_t lines = 0;
};

/// Parses `text` by the grammar of src/io/README.md one character at a
/// time into Terms, with no hashing (terms and triples are deduplicated
/// through ordered maps) and no knowledge of the library's scanner.
/// `seed_terms` are the terms a fresh graph's dictionary already holds.
ReferenceNTriples ReferenceParseNTriples(std::string_view text,
                                         const std::vector<Term>& seed_terms);

}  // namespace rdfsum::io

#endif  // RDFSUM_ORACLE_REFERENCE_NTRIPLES_H_
