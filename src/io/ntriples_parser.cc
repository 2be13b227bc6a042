#include "io/ntriples_parser.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "io/read_file.h"
#include "io/term_scanner.h"
#include "util/fault_injection.h"
#include "util/string_util.h"

namespace rdfsum::io {
namespace {

bool IsWs(char c) { return c == ' ' || c == '\t'; }

void SkipWs(std::string_view text, size_t& pos) {
  while (pos < text.size() && IsWs(text[pos])) ++pos;
}

using internal::ScanTerm;
using internal::TermScratch;

/// Enforces ParseOptions::max_term_bytes on a decoded term. The line-level
/// max_line_bytes guard bounds how much a single term scan can accumulate,
/// so a post-decode check here is enough.
Status CheckTermSize(TermRef t, const ParseOptions& options) {
  if (options.max_term_bytes == 0) return Status::OK();
  const uint64_t size = t.bytes();
  if (size > options.max_term_bytes) {
    return Status::InvalidArgument(
        "term of " + std::to_string(size) + " bytes exceeds max_term_bytes (" +
        std::to_string(options.max_term_bytes) + ")");
  }
  return Status::OK();
}

/// A small direct-mapped cache of recently interned IRIs and blank nodes
/// with their ids. Dumps repeat a subject line after line and draw
/// predicates and many objects from small sets, so a hit skips HashTerm and
/// the dictionary probe. Dictionary ids are append-only, so a cached id
/// never goes stale; an entry keeps its own copy of the bytes because a
/// scanned TermRef dies with its line. Literals bypass the cache.
class RecentTerms {
 public:
  /// The id of `t`: cached, or `intern(t)` (which then fills the entry).
  template <typename Intern>
  TermId Get(TermRef t, Intern&& intern) {
    if (t.is_literal()) return intern(t);
    Entry& e = entries_[Index(t.lexical)];
    if (e.id != kInvalidTermId && e.kind == t.kind && e.lexical == t.lexical) {
      return e.id;
    }
    e.id = intern(t);
    e.kind = t.kind;
    e.lexical.assign(t.lexical);
    return e.id;
  }

 private:
  static constexpr int kBits = 8;

  struct Entry {
    TermId id = kInvalidTermId;
    TermKind kind = TermKind::kIri;
    std::string lexical;
  };

  /// Mixes the length and the last eight bytes, where IRIs of one dump
  /// differ (their prefixes are shared).
  static size_t Index(std::string_view s) {
    uint64_t tail = 0;
    const size_t n = std::min<size_t>(s.size(), sizeof(tail));
    if (n > 0) std::memcpy(&tail, s.data() + s.size() - n, n);
    return static_cast<size_t>(((tail ^ s.size()) * 0x9E3779B97F4A7C15ULL) >>
                               (64 - kBits));
  }

  std::array<Entry, size_t{1} << kBits> entries_;
};

/// Line-loop state that lives across the lines of one parse.
struct LineState {
  explicit LineState(Dictionary* d) : dict(d) {}

  /// The id of `t`, interned into `dict` on its first occurrence.
  TermId Intern(TermRef t) {
    return recent.Get(t, [this](TermRef r) { return dict->Encode(r); });
  }

  Dictionary* dict;
  TermScratch scratch[3];  // decode buffers of s, p, o
  RecentTerms recent;
};

/// Parses one statement line into `*out`, interning its terms s, then p,
/// then o (first-occurrence order).
Status ParseLine(std::string_view line, const ParseOptions& options,
                 LineState* state, Triple* out) {
  size_t pos = 0;
  TermRef s, p, o;
  RDFSUM_RETURN_IF_ERROR(ScanTerm(line, pos, &state->scratch[0], &s));
  RDFSUM_RETURN_IF_ERROR(CheckTermSize(s, options));
  RDFSUM_RETURN_IF_ERROR(ScanTerm(line, pos, &state->scratch[1], &p));
  if (!p.is_iri()) {
    return Status::InvalidArgument("property must be an IRI");
  }
  RDFSUM_RETURN_IF_ERROR(CheckTermSize(p, options));
  RDFSUM_RETURN_IF_ERROR(ScanTerm(line, pos, &state->scratch[2], &o));
  RDFSUM_RETURN_IF_ERROR(CheckTermSize(o, options));
  if (s.is_literal()) {
    return Status::InvalidArgument("subject must not be a literal");
  }
  SkipWs(line, pos);
  if (pos >= line.size() || line[pos] != '.') {
    return Status::InvalidArgument("missing statement terminator '.'");
  }
  ++pos;
  SkipWs(line, pos);
  if (pos != line.size()) {
    return Status::InvalidArgument("trailing garbage after '.'");
  }
  // Declaration order sequences the interns s, then p, then o.
  const TermId s_id = state->Intern(s);
  const TermId p_id = state->Intern(p);
  const TermId o_id = state->Intern(o);
  *out = Triple{s_id, p_id, o_id};
  return Status::OK();
}

/// The line loop: splits `text` on '\n' (a trailing newline yields a final
/// empty line), strips '\r' and surrounding whitespace, skips
/// comments/blanks, enforces max_line_bytes, polls options.exec every
/// ExecContext::kCheckInterval lines and hands each parsed triple to
/// `add(Triple)`. Counts into `stats`; returns the strict-mode failure
/// ("line N: reason") or the governance trip that stopped it.
template <typename Add>
Status ParseLines(std::string_view text, const ParseOptions& options,
                  LineState* state, ParseStats* stats, Add&& add) {
  size_t start = 0;
  uint64_t line_no = 0;
  while (start <= text.size()) {
    size_t end = text.find('\n', start);
    std::string_view line = end == std::string_view::npos
                                ? text.substr(start)
                                : text.substr(start, end - start);
    ++line_no;
    if (options.exec != nullptr &&
        (line_no & (util::ExecContext::kCheckInterval - 1)) == 0) {
      RDFSUM_RETURN_IF_ERROR(options.exec->Check());
    }
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    std::string_view stripped = StripWhitespace(line);
    ++stats->lines;
    if (!stripped.empty() && stripped[0] != '#') {
      Status st;
      Triple t{};
      if (options.max_line_bytes != 0 && line.size() > options.max_line_bytes) {
        st = Status::InvalidArgument(
            "line of " + std::to_string(line.size()) +
            " bytes exceeds max_line_bytes (" +
            std::to_string(options.max_line_bytes) + ")");
      } else {
        st = ParseLine(stripped, options, state, &t);
      }
      auto reason = [&] {
        return "line " + std::to_string(line_no) + ": " +
               std::string(st.message());
      };
      if (st.ok()) {
        add(t);
        ++stats->triples;
      } else if (options.strict) {
        return Status::InvalidArgument(reason());
      } else {
        ++stats->skipped;
        if (stats->diagnostics.size() < ParseStats::kMaxDiagnostics) {
          stats->diagnostics.push_back(reason());
        }
      }
    }
    if (end == std::string_view::npos) break;
    start = end + 1;
  }
  return Status::OK();
}

}  // namespace

StatusOr<Term> NTriplesParser::ParseTerm(std::string_view text) {
  size_t pos = 0;
  TermScratch scratch;
  TermRef term;
  RDFSUM_RETURN_IF_ERROR(ScanTerm(text, pos, &scratch, &term));
  SkipWs(text, pos);
  if (pos != text.size()) {
    return Status::InvalidArgument("trailing characters after term");
  }
  return term.ToTerm();
}

Status NTriplesParser::ParseString(std::string_view text, Graph* graph,
                                   ParseStats* stats,
                                   const ParseOptions& options) {
  RDFSUM_FAILPOINT("load:parse");
  ParseStats discarded;
  if (stats == nullptr) stats = &discarded;
  // One line is at most one triple, so the line count sizes the triple
  // set. The dictionary is sized for one fresh term per line: an upper
  // bound, not an estimate (100k BSBM lines intern 31k terms). Growing it
  // by doubling instead parsed no faster and raised peak RSS under glibc's
  // malloc (src/io/README.md).
  const size_t estimated =
      static_cast<size_t>(std::count(text.begin(), text.end(), '\n')) + 1;
  graph->Reserve(graph->NumTriples() + estimated);
  graph->dict().Reserve(graph->dict().size() + estimated);
  // Interning stays in line (ids in first-occurrence order); the inserts
  // of one batch run back to back, so their RowSet probes are not
  // interleaved with scanning. The batch (48 KiB) stays in cache whatever
  // the input size.
  std::vector<Triple> batch;
  batch.reserve(kInsertBatch);
  auto flush = [&] {
    for (const Triple& t : batch) {
      if (!graph->Add(t)) ++stats->duplicates;
    }
    batch.clear();
  };
  LineState state(&graph->dict());
  Status st = ParseLines(text, options, &state, stats, [&](const Triple& t) {
    batch.push_back(t);
    if (batch.size() == kInsertBatch) flush();
  });
  flush();  // the tail, also after a strict failure or an exec trip
  return st;
}

Status NTriplesParser::ParseFile(const std::string& path, Graph* graph,
                                 ParseStats* stats,
                                 const ParseOptions& options) {
  std::string buffer;
  RDFSUM_RETURN_IF_ERROR(internal::ReadFile(path, &buffer));
  return ParseString(buffer, graph, stats, options);
}

}  // namespace rdfsum::io
