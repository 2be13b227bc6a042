#include "store/mmap_store.h"

#include <algorithm>
#include <cstdio>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#define RDFSUM_HAVE_MMAP 1
#endif

#include "store/table_stats.h"
#include "util/fault_injection.h"
#include "util/timer.h"

namespace rdfsum::store {

Status FreezeGraphToFile(const Graph& g, const std::string& path,
                         const FreezeOptions& options) {
  RDFSUM_FAILPOINT("image:write");

  ImageBuilder builder;
  ImageMeta meta{};
  AppendDictionarySections(g.dict(), &meta, &builder);

  std::vector<Triple> rows = g.Triples();
  Timer freeze_timer;
  TripleTable table = TripleTable::Build(std::move(rows));
  if (options.freeze_seconds != nullptr) {
    *options.freeze_seconds = freeze_timer.ElapsedSeconds();
  }
  meta.num_triples = table.size();
  const TableStats& stats = table.stats();
  meta.num_distinct_subjects = stats.num_distinct_subjects();
  meta.num_distinct_predicates = stats.num_distinct_predicates();
  meta.num_distinct_objects = stats.num_distinct_objects();
  builder.AddArray(SectionId::kSpo, table.Permutation(IndexKind::kSpo));
  builder.AddArray(SectionId::kPos, table.Permutation(IndexKind::kPos));
  builder.AddArray(SectionId::kOsp, table.Permutation(IndexKind::kOsp));

  std::vector<ImagePredStat> preds;
  preds.reserve(stats.by_predicate().size());
  for (const auto& [p, ps] : stats.by_predicate()) {
    preds.push_back(ImagePredStat{p, 0, ps.count, ps.distinct_subjects,
                                  ps.distinct_objects});
  }
  std::sort(preds.begin(), preds.end(),
            [](const ImagePredStat& a, const ImagePredStat& b) {
              return a.p < b.p;
            });
  meta.num_predicates = preds.size();
  builder.AddArray<ImagePredStat>(SectionId::kPredStats, preds);

  meta.num_type_triples = g.types().size();
  meta.num_schema_triples = g.schema().size();
  meta.num_data_triples = g.data().size();
  builder.AddArray<Triple>(SectionId::kTypeTriples, g.types());
  builder.AddArray<Triple>(SectionId::kSchemaTriples, g.schema());
  builder.AddArray<Triple>(SectionId::kDataTriples, g.data());

  builder.Add(SectionId::kMeta,
              std::string(reinterpret_cast<const char*>(&meta), sizeof(meta)));
  return builder.WriteFile(path);
}

MmapStore::~MmapStore() {
#ifdef RDFSUM_HAVE_MMAP
  if (map_ != nullptr) ::munmap(map_, map_size_);
#endif
}

StatusOr<std::unique_ptr<MmapStore>> MmapStore::Open(
    const std::string& path) {
  RDFSUM_FAILPOINT("image:open");

  std::unique_ptr<MmapStore> store(new MmapStore());
#ifdef RDFSUM_HAVE_MMAP
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::IOError("cannot open " + path);
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IOError("cannot stat " + path);
  }
  const size_t file_size = static_cast<size_t>(st.st_size);
  if (file_size > 0) {
    void* map = ::mmap(nullptr, file_size, PROT_READ, MAP_PRIVATE, fd, 0);
    if (map != MAP_FAILED) {
      store->map_ = map;
      store->map_size_ = file_size;
      store->data_ = static_cast<const char*>(map);
      store->size_ = file_size;
    }
  }
  ::close(fd);
#endif
  if (store->data_ == nullptr) {
    // Heap fallback: read the whole file. Same bytes, same validation —
    // only the paging behavior differs.
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) return Status::IOError("cannot open " + path);
    char buf[1 << 16];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      store->heap_.append(buf, n);
    }
    const bool read_error = std::ferror(f) != 0;
    std::fclose(f);
    if (read_error) return Status::IOError("cannot read " + path);
    store->data_ = store->heap_.data();
    store->size_ = store->heap_.size();
  }

  RDFSUM_ASSIGN_OR_RETURN(store->image_,
                          FrozenImage::Attach(store->data_, store->size_));

  store->dict_ = Dictionary::FromView(store->image_.dictionary_view());

  const ImageMeta& m = store->image_.meta();
  std::vector<std::pair<TermId, PredicateStats>> per_predicate;
  std::span<const ImagePredStat> preds =
      store->image_.Array<ImagePredStat>(SectionId::kPredStats);
  per_predicate.reserve(preds.size());
  for (const ImagePredStat& ps : preds) {
    per_predicate.emplace_back(
        ps.p, PredicateStats{ps.count, ps.distinct_subjects,
                             ps.distinct_objects});
  }
  TableStats stats = TableStats::Restore(
      m.num_triples, m.num_distinct_subjects, m.num_distinct_predicates,
      m.num_distinct_objects, per_predicate);
  store->table_ = TripleTable::Borrow(
      store->image_.Array<Triple>(SectionId::kSpo),
      store->image_.Array<Triple>(SectionId::kPos),
      store->image_.Array<Triple>(SectionId::kOsp), std::move(stats));
  return store;
}

GraphView MmapStore::View() const {
  std::shared_ptr<Dictionary> dict =
      Dictionary::FromView(image_.dictionary_view());
  // Interned before anything else, as a Graph over the same dictionary
  // would, so minted ids match the parse path's.
  const Vocabulary vocab(*dict);
  return {std::move(dict), vocab, image_.Array<Triple>(SectionId::kDataTriples),
          image_.Array<Triple>(SectionId::kTypeTriples),
          image_.Array<Triple>(SectionId::kSchemaTriples)};
}

Graph MmapStore::ToGraph() const {
  const GraphView view = View();
  Graph g(view.dict);
  g.Reserve(image_.meta().num_triples);
  // Insertion order as frozen: D, then T, then S (Graph::ForEachTriple), so
  // the component vectors and the canonical dense numbering match exactly.
  for (std::span<const Triple> part : {view.data, view.types, view.schema}) {
    for (const Triple& t : part) g.Add(t);
  }
  return g;
}

}  // namespace rdfsum::store
