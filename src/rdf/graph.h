#ifndef RDFSUM_RDF_GRAPH_H_
#define RDFSUM_RDF_GRAPH_H_

#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "rdf/dictionary.h"
#include "rdf/term.h"
#include "rdf/triple.h"
#include "rdf/vocabulary.h"
#include "util/row_set.h"
#include "util/status.h"

namespace rdfsum {

class DenseGraph;

/// A read-only view of a graph's three components over its dictionary —
/// everything the summarizers and the cardinality estimator read. A Graph
/// converts to one implicitly, and store::MmapStore::View() makes one over
/// an image's stored components. The spans borrow: a view must not outlive
/// the triples it was taken from. The dictionary is shared and writable
/// because a summary mints its nodes into it.
struct GraphView {
  std::shared_ptr<Dictionary> dict;
  Vocabulary vocab;
  std::span<const Triple> data;
  std::span<const Triple> types;
  std::span<const Triple> schema;
};

/// An RDF graph in the paper's triple-based representation G = <D, S, T>
/// (§2.1):
///   - D (data component): all triples that are neither τ nor RDFS,
///   - S (schema component): triples whose property is ≺sc, ≺sp, ←↩d or ↪→r,
///   - T (type component): rdf:type triples.
///
/// Triples are dictionary-encoded; the dictionary is shared (shared_ptr) so
/// a summary can live in the same id space as the graph it summarizes, and
/// so that saturation can add triples without re-interning strings.
///
/// Insertion de-duplicates: a Graph is a *set* of triples.
class Graph {
 public:
  /// Copying a Graph copies the triple storage but shares the dictionary.
  Graph(const Graph&) = default;
  Graph(Graph&&) = default;
  Graph& operator=(const Graph&) = default;
  Graph& operator=(Graph&&) = default;

  /// Creates a graph with a fresh dictionary.
  Graph();

  /// Creates a graph sharing an existing dictionary.
  explicit Graph(std::shared_ptr<Dictionary> dict);

  /// Adds an encoded triple, routing it to the right component.
  /// Returns true iff the triple was not already present.
  bool Add(const Triple& t);

  /// Interns the terms and adds the triple.
  bool AddTerms(TermRef s, TermRef p, TermRef o);

  /// Convenience: adds <s> <p> <o> with all three terms IRIs.
  bool AddIris(std::string_view s, std::string_view p, std::string_view o);

  /// Adds every triple of `other` (which must share this dictionary).
  void AddAll(const Graph& other);

  /// Pre-sizes the triple set for `num_triples` insertions; call before bulk
  /// Add loops to avoid rehashing on the hot path.
  void Reserve(size_t num_triples);

  bool Contains(const Triple& t) const {
    const TermId row[3] = {t.s, t.p, t.o};
    return all_.Find(row) != util::RowSet::kNotFound;
  }

  /// Data component D_G.
  const std::vector<Triple>& data() const { return data_; }
  /// Type component T_G.
  const std::vector<Triple>& types() const { return types_; }
  /// Schema component S_G.
  const std::vector<Triple>& schema() const { return schema_; }

  /// |G|e: total number of (distinct) triples.
  size_t NumTriples() const { return all_.size(); }
  bool Empty() const { return all_.size() == 0; }

  Dictionary& dict() { return *dict_; }
  const Dictionary& dict() const { return *dict_; }
  std::shared_ptr<Dictionary> dict_ptr() const { return dict_; }
  const Vocabulary& vocab() const { return vocab_; }

  /// Deep copy sharing the same dictionary.
  Graph Clone() const;

  /// The components as a read-only view (valid until the next mutation).
  operator GraphView() const {
    return {dict_, vocab_, data_, types_, schema_};
  }

  /// Builds the dense-ID substrate of this graph (see DenseGraph); nothing
  /// is cached.
  DenseGraph Dense() const;

  /// Every triple in D, then T, then S, gathered into one vector (the rows
  /// a store::TripleTable is built from).
  std::vector<Triple> Triples() const;

  /// Invokes `fn(const Triple&)` for every triple in D, then T, then S.
  template <typename Fn>
  void ForEachTriple(Fn&& fn) const {
    for (const Triple& t : data_) fn(t);
    for (const Triple& t : types_) fn(t);
    for (const Triple& t : schema_) fn(t);
  }

 private:
  std::shared_ptr<Dictionary> dict_;
  Vocabulary vocab_;
  std::vector<Triple> data_;
  std::vector<Triple> types_;
  std::vector<Triple> schema_;
  util::RowSet all_{3};  // membership; order lives in the vectors above
};

/// Verifies the "well-behaved" conditions of §2.1: (i) no class appears in a
/// property position, (ii) classes have no properties besides rdf:type and
/// RDFS ones (i.e. a class node never occurs as subject/object of a data
/// triple). All shipped generators produce well-behaved graphs.
Status CheckWellBehaved(const Graph& g);

}  // namespace rdfsum

#endif  // RDFSUM_RDF_GRAPH_H_
