#include "io/ntriples_parser.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <fstream>
#include <utility>

#include "io/term_scanner.h"
#include "util/fault_injection.h"
#include "util/parallel_for.h"
#include "util/string_util.h"
#include "util/timer.h"

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

/// One line-numbered skip reason, chunk-relative (see ChunkParse).
struct ChunkDiag {
  uint64_t line;  // 1-based within the chunk
  std::string message;
};

/// Outcome of the shared per-line driver over one chunk of input; at one
/// thread a single chunk covers the whole text. All line numbers are
/// chunk-relative (1-based) — the merge offsets them by the preceding
/// chunks' line counts to recover global numbers.
struct ChunkParse {
  uint64_t lines = 0;
  uint64_t triples = 0;
  uint64_t duplicates = 0;  // seen only by chunk 0, which adds to the graph
  uint64_t skipped = 0;
  std::vector<ChunkDiag> diagnostics;  // first kMaxDiagnostics skip reasons
  uint64_t error_line = 0;             // strict-mode failure line; 0 = none
  std::string error_message;
  Status exec_status;  // non-OK when governance tripped mid-chunk
};

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

/// Line-loop state that lives across the lines of one chunk.
struct LineState {
  TermScratch scratch[3];  // decode buffers of s, p, o
  RecentTerms recent;
};

/// Parses one statement line, interns its terms through `intern(TermRef) ->
/// TermId` (s, then p, then o: first-occurrence order) and hands the triple
/// to `add(Triple)`.
template <typename Intern, typename Add>
Status ParseLine(std::string_view line, const ParseOptions& options,
                 LineState* state, ChunkParse* out, Intern&& intern,
                 Add&& add) {
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
  const TermId s_id = state->recent.Get(s, intern);
  const TermId p_id = state->recent.Get(p, intern);
  const TermId o_id = state->recent.Get(o, intern);
  add(Triple{s_id, p_id, o_id});
  ++out->triples;
  return Status::OK();
}

/// The line loop, parameterized over ParseLine's intern and add: splits
/// `text` on '\n' (a trailing newline yields a final empty line), strips
/// '\r' and surrounding whitespace, skips comments/blanks, enforces
/// max_line_bytes, and polls options.exec every ExecContext::kCheckInterval lines. Stops
/// early on a strict-mode parse failure or a governance trip, leaving the
/// failure in `out`. Chunk views handed to this driver must not carry their
/// trailing chunk-boundary '\n' (the final chunk keeps its tail verbatim),
/// so per-chunk line counts sum exactly to the one-chunk count.
template <typename Intern, typename Add>
void ParseChunkLines(std::string_view text, const ParseOptions& options,
                     ChunkParse* out, Intern&& intern, Add&& add) {
  size_t start = 0;
  uint64_t line_no = 0;
  LineState state;
  while (start <= text.size()) {
    size_t end = text.find('\n', start);
    std::string_view line = end == std::string_view::npos
                                ? text.substr(start)
                                : text.substr(start, end - start);
    ++line_no;
    if (options.exec != nullptr &&
        (line_no & (util::ExecContext::kCheckInterval - 1)) == 0) {
      Status st = options.exec->Check();
      if (!st.ok()) {
        out->exec_status = std::move(st);
        return;
      }
    }
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    std::string_view stripped = StripWhitespace(line);
    ++out->lines;
    if (!stripped.empty() && stripped[0] != '#') {
      Status st;
      if (options.max_line_bytes != 0 && line.size() > options.max_line_bytes) {
        st = Status::InvalidArgument(
            "line of " + std::to_string(line.size()) +
            " bytes exceeds max_line_bytes (" +
            std::to_string(options.max_line_bytes) + ")");
      } else {
        st = ParseLine(stripped, options, &state, out, intern, add);
      }
      if (!st.ok()) {
        if (options.strict) {
          out->error_line = line_no;
          out->error_message = std::string(st.message());
          return;
        }
        ++out->skipped;
        if (out->diagnostics.size() < ParseStats::kMaxDiagnostics) {
          out->diagnostics.push_back({line_no, std::string(st.message())});
        }
      }
    }
    if (end == std::string_view::npos) break;
    start = end + 1;
  }
}

/// Folds one chunk's counters and (offset-fixed) diagnostics into `stats`.
void MergeChunkStats(const ChunkParse& cp, uint64_t line_offset,
                     ParseStats* stats) {
  if (stats == nullptr) return;
  stats->lines += cp.lines;
  stats->triples += cp.triples;
  stats->duplicates += cp.duplicates;
  stats->skipped += cp.skipped;
  for (const ChunkDiag& d : cp.diagnostics) {
    if (stats->diagnostics.size() >= ParseStats::kMaxDiagnostics) break;
    stats->diagnostics.push_back(
        "line " + std::to_string(line_offset + d.line) + ": " + d.message);
  }
}

/// The Status a chunk failure maps to at the ParseString boundary.
Status ChunkFailure(const ChunkParse& cp, uint64_t line_offset) {
  if (!cp.exec_status.ok()) return cp.exec_status;
  return Status::InvalidArgument("line " +
                                 std::to_string(line_offset + cp.error_line) +
                                 ": " + cp.error_message);
}

/// Per-chunk state. Chunks after the first stage their triples: the
/// chunk-local dictionary assigns dense local ids in the chunk's own
/// first-occurrence order; `hashes[i]` caches HashTerm for local id i+1 so
/// the merge pass never rehashes a term.
struct ChunkStage {
  ChunkParse parse;
  Dictionary dict;
  std::vector<uint64_t> hashes;
  std::vector<Triple> staged;  // local-id triples in line order
  Status inject;               // load:chunk failpoint outcome
};

/// Minimum bytes of input per parse chunk: below this, thread spawn and
/// merge overhead dominate and one chunk wins. Small enough that
/// multi-threaded tests on few-KB inputs still exercise real chunking.
constexpr size_t kMinChunkBytes = 256;

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
  const uint32_t num_chunks = util::ResolveThreadCount(
      options.num_threads, std::max<uint64_t>(text.size() / kMinChunkBytes, 1));

  // Chunk boundaries land just after a '\n', so every chunk is a whole
  // number of lines. Chunk 0 interns straight into the graph; the others
  // parse into a local dictionary + staged triples in parallel, and the
  // replay below feeds them in chunk order — reproducing the one-chunk parse
  // byte-for-byte (ids, insertion order, stats, diagnostics). Invariants:
  // src/io/README.md.
  std::vector<std::pair<size_t, size_t>> bounds;
  bounds.reserve(num_chunks);
  const size_t target = text.size() / num_chunks;
  size_t begin = 0;
  do {
    size_t end = text.size();
    if (bounds.size() + 1 < num_chunks) {
      const size_t probe = begin + target;
      if (probe < text.size()) {
        const size_t nl = text.find('\n', probe);
        end = nl == std::string_view::npos ? text.size() : nl + 1;
      }
    }
    bounds.emplace_back(begin, end);
    begin = end;
  } while (begin < text.size());

  Timer timer;
  std::vector<ChunkStage> stages(bounds.size());
  util::ParallelFor(
      static_cast<uint32_t>(bounds.size()), [&](uint32_t shard) {
        ChunkStage& cs = stages[shard];
        cs.inject = RDFSUM_FAILPOINT_STATUS("load:chunk");
        if (!cs.inject.ok()) return;
        const auto [cb, ce] = bounds[shard];
        // Non-final chunks end with the boundary '\n'; strip it so the
        // uniform split-on-'\n' driver counts exactly this chunk's lines
        // (the final chunk keeps its tail, trailing newline included, to
        // preserve the trailing-empty-line semantics).
        const bool final_chunk = ce == text.size();
        std::string_view view =
            text.substr(cb, ce - cb - (final_chunk ? 0 : 1));
        // One line is at most one triple, so the line count sizes the
        // triple set and the staging buffers. The dictionaries are sized
        // for one fresh term per line: an upper bound, not an estimate
        // (100k BSBM lines intern 31k terms). Growing chunk 0's dictionary
        // by doubling instead parsed no faster and raised peak RSS under
        // glibc's malloc (src/io/README.md).
        const size_t estimated =
            static_cast<size_t>(std::count(view.begin(), view.end(), '\n')) +
            1;
        if (shard == 0) {
          graph->Reserve(graph->NumTriples() + estimated);
          graph->dict().Reserve(graph->dict().size() + estimated);
          Dictionary& dict = graph->dict();
          // Interning stays in line (ids in first-occurrence order); the
          // inserts of one batch run back to back, so their RowSet probes
          // are not interleaved with scanning. The batch (48 KiB) stays in
          // cache whatever the input size.
          std::vector<Triple> batch;
          batch.reserve(kInsertBatch);
          auto flush = [&] {
            for (const Triple& t : batch) {
              if (!graph->Add(t)) ++cs.parse.duplicates;
            }
            batch.clear();
          };
          ParseChunkLines(
              view, options, &cs.parse,
              [&dict](TermRef t) { return dict.Encode(t); },
              [&](const Triple& t) {
                batch.push_back(t);
                if (batch.size() == kInsertBatch) flush();
              });
          flush();  // the tail, also after a strict failure or an exec trip
          return;
        }
        cs.dict.Reserve(estimated);
        cs.hashes.reserve(estimated);
        cs.staged.reserve(estimated);
        ParseChunkLines(
            view, options, &cs.parse,
            [&cs](TermRef t) {
              const uint64_t h = Dictionary::HashTerm(t);
              TermId id = cs.dict.EncodeHashed(t, h);
              if (id > cs.hashes.size()) cs.hashes.push_back(h);
              return id;
            },
            [&cs](const Triple& t) { cs.staged.push_back(t); });
      });
  if (stats != nullptr) {
    stats->parse_seconds += timer.ElapsedSeconds();
    stats->chunks = static_cast<uint32_t>(bounds.size());
  }

  // Fold stats and find the first failure in chunk (= stream) order;
  // counters of chunks past a failure are discarded, like a parse that
  // never reaches those lines. An injected chunk fault precedes its chunk's
  // parse, so it carries no partial counters or staged triples.
  Status failure;
  size_t replay_end = 0;
  uint64_t line_offset = 0;
  for (const ChunkStage& cs : stages) {
    ++replay_end;
    if (!cs.inject.ok()) {
      failure = cs.inject;
      break;
    }
    MergeChunkStats(cs.parse, line_offset, stats);
    if (!cs.parse.exec_status.ok() || cs.parse.error_line != 0) {
      failure = ChunkFailure(cs.parse, line_offset);
      break;
    }
    line_offset += cs.parse.lines;
  }
  if (failure.ok()) RDFSUM_FAILPOINT("load:dict-merge");

  // Deterministic replay of chunks 1.., through the failing chunk's staged
  // prefix: the first use of each local id interns its term into the shared
  // dictionary (reusing the cached hash), so final ids are assigned in
  // stream first-occurrence order, and a failed parse leaves the same
  // triples and dictionary at every thread count.
  Timer intern_timer;
  size_t staged_total = 0;
  size_t distinct_total = 0;
  for (size_t i = 1; i < replay_end; ++i) {
    staged_total += stages[i].staged.size();
    distinct_total += stages[i].hashes.size();
  }
  graph->Reserve(graph->NumTriples() + staged_total);
  graph->dict().Reserve(graph->dict().size() + distinct_total);

  Dictionary& dict = graph->dict();
  uint64_t replayed = 0;
  uint64_t duplicates = 0;
  std::vector<TermId> remap;
  for (size_t i = 1; i < replay_end; ++i) {
    ChunkStage& cs = stages[i];
    remap.assign(cs.hashes.size() + 1, kInvalidTermId);
    auto global_id = [&](TermId local) {
      TermId& slot = remap[local];
      if (slot == kInvalidTermId) {
        slot = dict.EncodeHashed(cs.dict.Decode(local), cs.hashes[local - 1]);
      }
      return slot;
    };
    for (const Triple& t : cs.staged) {
      if (options.exec != nullptr &&
          (++replayed & (util::ExecContext::kCheckInterval - 1)) == 0) {
        RDFSUM_RETURN_IF_ERROR(options.exec->Check());
      }
      // Braced init sequences the three remaps left to right (s, p, o).
      Triple global{global_id(t.s), global_id(t.p), global_id(t.o)};
      if (!graph->Add(global)) ++duplicates;
    }
    cs.staged = std::vector<Triple>();  // release as we go
  }
  if (stats != nullptr) {
    stats->duplicates += duplicates;
    stats->intern_seconds += intern_timer.ElapsedSeconds();
  }
  return failure;
}

Status NTriplesParser::ParseFile(const std::string& path, Graph* graph,
                                 ParseStats* stats,
                                 const ParseOptions& options) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  in.seekg(0, std::ios::end);
  const std::streamoff size = in.tellg();
  if (size < 0) return Status::IOError("cannot stat " + path);
  in.seekg(0);
  std::string buffer(static_cast<size_t>(size), '\0');
  if (size > 0 && !in.read(buffer.data(), size)) {
    return Status::IOError("cannot read " + path);
  }
  return ParseString(buffer, graph, stats, options);
}

}  // namespace rdfsum::io
