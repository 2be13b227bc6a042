#ifndef RDFSUM_RDF_VOCABULARY_H_
#define RDFSUM_RDF_VOCABULARY_H_

#include <string_view>

#include "rdf/dictionary.h"
#include "rdf/triple.h"

namespace rdfsum {

/// Well-known RDF / RDFS IRIs (Figure 1 of the paper).
namespace vocab {

inline constexpr std::string_view kRdfType =
    "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";
inline constexpr std::string_view kRdfsSubClassOf =
    "http://www.w3.org/2000/01/rdf-schema#subClassOf";
inline constexpr std::string_view kRdfsSubPropertyOf =
    "http://www.w3.org/2000/01/rdf-schema#subPropertyOf";
inline constexpr std::string_view kRdfsDomain =
    "http://www.w3.org/2000/01/rdf-schema#domain";
inline constexpr std::string_view kRdfsRange =
    "http://www.w3.org/2000/01/rdf-schema#range";
inline constexpr std::string_view kXsdInteger =
    "http://www.w3.org/2001/XMLSchema#integer";
inline constexpr std::string_view kXsdString =
    "http://www.w3.org/2001/XMLSchema#string";
inline constexpr std::string_view kXsdDate =
    "http://www.w3.org/2001/XMLSchema#date";

}  // namespace vocab

/// Dictionary ids for the RDF/RDFS built-ins, interned once per dictionary.
///
/// Every Graph owns one of these so that triple routing (data vs. type vs.
/// schema component) is an integer comparison.
struct Vocabulary {
  TermId rdf_type = kInvalidTermId;
  TermId subclass = kInvalidTermId;
  TermId subproperty = kInvalidTermId;
  TermId domain = kInvalidTermId;
  TermId range = kInvalidTermId;

  Vocabulary() = default;
  explicit Vocabulary(Dictionary& dict);

  /// The built-ins' ids in a frozen image's dictionary, looked up, never
  /// interned: a built-in the image lacks keeps kInvalidTermId, which no
  /// stored triple uses. `view` must be validated (FrozenImage::Attach).
  static Vocabulary InView(const DictionaryView& view);

  /// True iff `p` is one of the four RDFS constraint properties
  /// (≺sc, ≺sp, ←↩d, ↪→r).
  bool IsSchemaProperty(TermId p) const {
    return p == subclass || p == subproperty || p == domain || p == range;
  }

  bool IsType(TermId p) const { return p == rdf_type; }
};

}  // namespace rdfsum

#endif  // RDFSUM_RDF_VOCABULARY_H_
