#ifndef RDFSUM_STORE_MMAP_STORE_H_
#define RDFSUM_STORE_MMAP_STORE_H_

#include <memory>
#include <string>

#include "rdf/dictionary.h"
#include "rdf/frozen_image.h"
#include "rdf/graph.h"
#include "store/triple_table.h"
#include "util/status.h"
#include "util/statusor.h"

namespace rdfsum::store {

struct FreezeOptions {
  /// When non-null, receives the wall seconds spent sorting/deduplicating
  /// the permutations (TripleTable::Build) — the `freeze` entry of the
  /// CLI's phase-time breakdown.
  double* freeze_seconds = nullptr;
};

/// Writes `g` as a frozen store image (rdf/frozen_image.h): dictionary,
/// sorted SPO/POS/OSP permutations with statistics, and the data, type and
/// schema components verbatim. The output is deterministic — the same graph
/// produces byte-identical files. The image is written beside `path` and
/// renamed over it, so freezing into the path an open MmapStore (or a
/// serving daemon) maps leaves that store reading its old image; the next
/// Open reads the new one.
/// Failpoint: `image:write`.
/// (Two overloads instead of `= {}`: GCC PR 88165, see fault_injection.h.)
Status FreezeGraphToFile(const Graph& g, const std::string& path,
                         const FreezeOptions& options);
inline Status FreezeGraphToFile(const Graph& g, const std::string& path) {
  return FreezeGraphToFile(g, path, FreezeOptions());
}

/// A read-only store opened from a frozen image: the file is mmap'd
/// (PROT_READ; a heap read is the fallback when mapping fails) and, after
/// FrozenImage::Attach's corruption wall, served zero-copy —
///
///  - dict(): a view-mode Dictionary probing the on-disk slot table,
///  - table(): a borrowed TripleTable (TripleTable::Borrow) whose
///    permutations are spans into the mapping, serving MatchSpan/Count
///    without loading the file.
///
/// Open cost is one pass over the image bytes, not O(triples) parsing and
/// sorting — the warm-start path (`warmstart_*` in BENCH_substrate.json):
/// the word-wise checksums (ImageHash64) read at memory speed, so the
/// structural checks (sortedness, id ranges, the same-triples fingerprint,
/// component routing) are most of the rest. The store is immutable and
/// self-contained; it must outlive every evaluator, cursor, GraphView and
/// Graph handed out from it.
class MmapStore {
 public:
  /// Opens and validates `path` (checksums and structure, always).
  /// Failpoint: `image:open`.
  static StatusOr<std::unique_ptr<MmapStore>> Open(const std::string& path);

  ~MmapStore();
  MmapStore(const MmapStore&) = delete;
  MmapStore& operator=(const MmapStore&) = delete;

  const FrozenImage& image() const { return image_; }
  const Dictionary& dict() const { return *dict_; }
  const TripleTable& table() const { return table_; }

  /// The image's data, type and schema components in their stored
  /// insertion order, as a read-only view over a fresh view dictionary of
  /// the image (same ids and minted-URI counter as the frozen graph, but its
  /// own overlay and decode cache — not dict()). Summaries and estimators
  /// computed from it equal the parse path's bit for bit, and minting into
  /// its dictionary never writes memory a reader of dict() probes. Each call
  /// returns an independent view; it and its dictionary borrow the mapped
  /// bytes and must not outlive this store.
  GraphView View() const;

  /// View() replayed into a Graph, byte-identical to the graph that was
  /// frozen — for callers that need a mutable graph (the CLI's saturation,
  /// tests). It copies every triple; summarize View() instead.
  Graph ToGraph() const;

 private:
  MmapStore() = default;

  std::string heap_;  // owns the bytes when mmap is unavailable/failed
  void* map_ = nullptr;
  size_t map_size_ = 0;
  const char* data_ = nullptr;
  size_t size_ = 0;
  FrozenImage image_;
  std::shared_ptr<Dictionary> dict_;
  TripleTable table_;
};

}  // namespace rdfsum::store

#endif  // RDFSUM_STORE_MMAP_STORE_H_
