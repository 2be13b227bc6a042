#include "rdf/vocabulary.h"

namespace rdfsum {

Vocabulary::Vocabulary(Dictionary& dict) {
  rdf_type = dict.EncodeIri(vocab::kRdfType);
  subclass = dict.EncodeIri(vocab::kRdfsSubClassOf);
  subproperty = dict.EncodeIri(vocab::kRdfsSubPropertyOf);
  domain = dict.EncodeIri(vocab::kRdfsDomain);
  range = dict.EncodeIri(vocab::kRdfsRange);
}

Vocabulary Vocabulary::InView(const DictionaryView& view) {
  auto lookup = [&view](std::string_view iri) {
    return Dictionary::LookupInView(view, {TermKind::kIri, iri, {}, {}});
  };
  Vocabulary v;
  v.rdf_type = lookup(vocab::kRdfType);
  v.subclass = lookup(vocab::kRdfsSubClassOf);
  v.subproperty = lookup(vocab::kRdfsSubPropertyOf);
  v.domain = lookup(vocab::kRdfsDomain);
  v.range = lookup(vocab::kRdfsRange);
  return v;
}

}  // namespace rdfsum
