#include "rdf/graph.h"

#include <unordered_set>

#include "rdf/dense_graph.h"

namespace rdfsum {

Graph::Graph() : dict_(std::make_shared<Dictionary>()), vocab_(*dict_) {}

Graph::Graph(std::shared_ptr<Dictionary> dict)
    : dict_(std::move(dict)), vocab_(*dict_) {}

bool Graph::Add(const Triple& t) {
  const TermId row[3] = {t.s, t.p, t.o};
  if (!all_.Insert(row)) return false;
  if (vocab_.IsType(t.p)) {
    types_.push_back(t);
  } else if (vocab_.IsSchemaProperty(t.p)) {
    schema_.push_back(t);
  } else {
    data_.push_back(t);
  }
  return true;
}

bool Graph::AddTerms(TermRef s, TermRef p, TermRef o) {
  return Add(Triple{dict_->Encode(s), dict_->Encode(p), dict_->Encode(o)});
}

bool Graph::AddIris(std::string_view s, std::string_view p,
                    std::string_view o) {
  return AddTerms({TermKind::kIri, s, {}, {}}, {TermKind::kIri, p, {}, {}},
                  {TermKind::kIri, o, {}, {}});
}

void Graph::AddAll(const Graph& other) {
  Reserve(all_.size() + other.NumTriples());
  other.ForEachTriple([this](const Triple& t) { Add(t); });
}

void Graph::Reserve(size_t num_triples) { all_.Reserve(num_triples); }

std::vector<Triple> Graph::Triples() const {
  std::vector<Triple> out;
  out.reserve(NumTriples());
  ForEachTriple([&](const Triple& t) { out.push_back(t); });
  return out;
}

DenseGraph Graph::Dense() const { return DenseGraph(*this); }

Graph Graph::Clone() const {
  Graph out(dict_);
  out.data_ = data_;
  out.types_ = types_;
  out.schema_ = schema_;
  out.all_ = all_;
  return out;
}

Status CheckWellBehaved(const Graph& g) {
  std::unordered_set<TermId> classes;
  for (const Triple& t : g.types()) classes.insert(t.o);
  for (const Triple& t : g.schema()) {
    if (t.p == g.vocab().subclass) {
      classes.insert(t.s);
      classes.insert(t.o);
    }
  }
  for (const Triple& t : g.data()) {
    if (classes.count(t.p)) {
      return Status::InvalidArgument(
          "class used in property position: " +
          g.dict().Decode(t.p).ToNTriples());
    }
    if (classes.count(t.s)) {
      return Status::InvalidArgument(
          "class has a non-RDFS property: " +
          g.dict().Decode(t.s).ToNTriples());
    }
    if (classes.count(t.o)) {
      return Status::InvalidArgument(
          "class appears as data object: " +
          g.dict().Decode(t.o).ToNTriples());
    }
  }
  for (const Triple& t : g.types()) {
    if (classes.count(t.s)) {
      return Status::InvalidArgument(
          "class has an rdf:type edge: " + g.dict().Decode(t.s).ToNTriples());
    }
  }
  return Status::OK();
}

}  // namespace rdfsum
