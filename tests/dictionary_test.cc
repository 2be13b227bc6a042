#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <string_view>

#include "rdf/dictionary.h"
#include "rdf/term.h"
#include "rdf/triple.h"
#include "rdf/vocabulary.h"

namespace rdfsum {
namespace {

TEST(TermTest, Factories) {
  Term iri = Term::Iri("http://a");
  EXPECT_TRUE(iri.is_iri());
  EXPECT_EQ(iri.lexical, "http://a");

  Term lit = Term::Literal("hi");
  EXPECT_TRUE(lit.is_literal());

  Term blank = Term::Blank("b0");
  EXPECT_TRUE(blank.is_blank());
}

TEST(TermTest, NTriplesRendering) {
  EXPECT_EQ(Term::Iri("http://a").ToNTriples(), "<http://a>");
  EXPECT_EQ(Term::Blank("b0").ToNTriples(), "_:b0");
  EXPECT_EQ(Term::Literal("hi").ToNTriples(), "\"hi\"");
  EXPECT_EQ(Term::LangLiteral("hi", "en").ToNTriples(), "\"hi\"@en");
  EXPECT_EQ(Term::TypedLiteral("5", "http://dt").ToNTriples(),
            "\"5\"^^<http://dt>");
}

TEST(TermTest, LiteralEscaping) {
  EXPECT_EQ(Term::Literal("a\"b\\c\nd\te\r").ToNTriples(),
            "\"a\\\"b\\\\c\\nd\\te\\r\"");
}

TEST(TermTest, AppendNTriplesAppendsTheToNTriplesBytes) {
  const Term terms[] = {
      Term::Iri("http://a"),
      Term::Blank("b0"),
      Term::Literal(""),
      Term::Literal("\\"),
      Term::Literal("\"\"x\n"),
      Term::Literal("plain run\tthen \"quoted\" tail\r"),
      Term::LangLiteral("a\"b", "en"),
      Term::TypedLiteral("5\n", "http://dt"),
  };
  std::string out = "prefix|";
  std::string expected = out;
  for (const Term& t : terms) {
    t.AppendNTriples(&out);
    expected += t.ToNTriples();
  }
  EXPECT_EQ(out, expected);
  EXPECT_EQ(Term::Literal("\"\"x\n").ToNTriples(), "\"\\\"\\\"x\\n\"");
  EXPECT_EQ(Term::Literal("\\").ToNTriples(), "\"\\\\\"");
}

TEST(TermTest, EqualityDistinguishesKindsAndTags) {
  EXPECT_EQ(Term::Iri("x"), Term::Iri("x"));
  EXPECT_FALSE(Term::Iri("x") == Term::Literal("x"));
  EXPECT_FALSE(Term::Literal("x") == Term::LangLiteral("x", "en"));
  EXPECT_FALSE(Term::LangLiteral("x", "en") == Term::LangLiteral("x", "fr"));
  EXPECT_FALSE(Term::Literal("x") == Term::TypedLiteral("x", "dt"));
}

TEST(DictionaryTest, EncodeIsIdempotent) {
  Dictionary d;
  TermId a = d.EncodeIri("http://a");
  TermId b = d.EncodeIri("http://a");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, kInvalidTermId);
}

TEST(DictionaryTest, IdsAreDenseFromOne) {
  Dictionary d;
  TermId a = d.EncodeIri("http://a");
  TermId b = d.EncodeIri("http://b");
  EXPECT_EQ(a, 1u);
  EXPECT_EQ(b, 2u);
  EXPECT_EQ(d.size(), 3u);  // including reserved slot 0
}

TEST(DictionaryTest, DistinctKindsGetDistinctIds) {
  Dictionary d;
  TermId iri = d.Encode(Term::Iri("x"));
  TermId lit = d.Encode(Term::Literal("x"));
  TermId blank = d.Encode(Term::Blank("x"));
  EXPECT_NE(iri, lit);
  EXPECT_NE(lit, blank);
  EXPECT_NE(iri, blank);
}

TEST(DictionaryTest, DecodeRoundTrip) {
  Dictionary d;
  Term original = Term::LangLiteral("bonjour", "fr");
  TermId id = d.Encode(original);
  EXPECT_EQ(d.Decode(id), original);
}

TEST(DictionaryTest, LookupMissingReturnsInvalid) {
  Dictionary d;
  EXPECT_EQ(d.Lookup(Term::Iri("nope")), kInvalidTermId);
}

TEST(DictionaryTest, ContainsChecksRange) {
  Dictionary d;
  TermId a = d.EncodeIri("a");
  EXPECT_TRUE(d.Contains(a));
  EXPECT_FALSE(d.Contains(kInvalidTermId));
  EXPECT_FALSE(d.Contains(999));
}

TEST(DictionaryTest, MintedUrisAreFreshAndRecognized) {
  Dictionary d;
  TermId m1 = d.MintNodeUri("node:w");
  TermId m2 = d.MintNodeUri("node:w");
  EXPECT_NE(m1, m2);
  EXPECT_TRUE(d.IsMinted(m1));
  EXPECT_TRUE(d.IsMinted(m2));
  EXPECT_FALSE(d.IsMinted(d.EncodeIri("http://user/iri")));
}

TEST(DictionaryTest, MintSkipsCollidingUserUris) {
  Dictionary d;
  // A user interned a URI that looks minted; minting must not return it.
  TermId user = d.EncodeIri("urn:rdfsum:node:x:0");
  TermId m = d.MintNodeUri("node:x");
  EXPECT_NE(m, user);
}

TEST(DictionaryTest, MintedLiteralLookalikeIsNotMinted) {
  Dictionary d;
  TermId lit = d.EncodeLiteral("urn:rdfsum:node:w:0");
  EXPECT_FALSE(d.IsMinted(lit));
}

/// The lexical form of the pinned HashTerm vectors: `n` bytes of a..z.
std::string PinnedLexical(size_t n) {
  std::string s;
  for (size_t i = 0; i < n; ++i) s.push_back(static_cast<char>('a' + i % 26));
  return s;
}

TEST(DictionaryTest, HashTermPinnedVectors) {
  // The same table is in docs/FORMAT.md §5.3: frozen images store slot
  // tables keyed by HashTerm, so changing a value is a format break.
  // Lengths 0, 7, 8, 9, 16 and 33 cover the empty piece, tail-only, one
  // whole word, word + tail, two words and four words + tail.
  constexpr std::string_view kXsdString =
      "http://www.w3.org/2001/XMLSchema#string";
  struct Vector {
    TermKind kind;
    std::string_view datatype;
    std::string_view language;
    size_t length;
    uint64_t hash;
  };
  const Vector vectors[] = {
      {TermKind::kIri, {}, {}, 0, 0x1b92511efff5d679ull},
      {TermKind::kIri, {}, {}, 7, 0xf4b0c2524c51c720ull},
      {TermKind::kIri, {}, {}, 8, 0xfef0815ec9ee78b7ull},
      {TermKind::kIri, {}, {}, 9, 0xfa4a02dabec19e5aull},
      {TermKind::kIri, {}, {}, 16, 0x91781f1e30a822a1ull},
      {TermKind::kIri, {}, {}, 33, 0xd75e88c90f0f6dd9ull},
      {TermKind::kBlank, {}, {}, 0, 0x52b14a1911cff701ull},
      {TermKind::kBlank, {}, {}, 7, 0xa1c46fce145e5775ull},
      {TermKind::kBlank, {}, {}, 8, 0x50aa24955124164bull},
      {TermKind::kBlank, {}, {}, 9, 0x8f0576667e8a50e6ull},
      {TermKind::kBlank, {}, {}, 16, 0xd51b19ed2232e10cull},
      {TermKind::kBlank, {}, {}, 33, 0xa89b4c57e7e0923bull},
      {TermKind::kLiteral, kXsdString, {}, 0, 0x3715bfd48d076f4full},
      {TermKind::kLiteral, kXsdString, {}, 7, 0xf904ee7099f820dbull},
      {TermKind::kLiteral, kXsdString, {}, 8, 0x68029023ac953966ull},
      {TermKind::kLiteral, kXsdString, {}, 9, 0x8ad25709ae8e18d5ull},
      {TermKind::kLiteral, kXsdString, {}, 16, 0x8c6ad0a2358fad9aull},
      {TermKind::kLiteral, kXsdString, {}, 33, 0xc6e537c952851c79ull},
      {TermKind::kLiteral, {}, "en", 0, 0x6ff7fc2d08024058ull},
      {TermKind::kLiteral, {}, "en", 7, 0x1849ad9dce63150full},
      {TermKind::kLiteral, {}, "en", 8, 0xfc815790ec688857ull},
      {TermKind::kLiteral, {}, "en", 9, 0x4c5b25f501ba9208ull},
      {TermKind::kLiteral, {}, "en", 16, 0x0dc32e82f7385ebeull},
      {TermKind::kLiteral, {}, "en", 33, 0x764f6ff2d92fd074ull},
  };
  for (const Vector& v : vectors) {
    const std::string lexical = PinnedLexical(v.length);
    EXPECT_EQ(Dictionary::HashTerm({v.kind, lexical, v.datatype, v.language}),
              v.hash)
        << "kind " << static_cast<int>(v.kind) << " datatype '" << v.datatype
        << "' language '" << v.language << "' length " << v.length;
  }
}

TEST(DictionaryTest, HashTermSeparatesKindsAndPieces) {
  // Each piece is hashed with its length, so moving bytes from one piece
  // to the next, or changing only the kind, changes the hash.
  const uint64_t hashes[] = {
      Dictionary::HashTerm({TermKind::kLiteral, "abcdefghij", {}, {}}),
      Dictionary::HashTerm({TermKind::kLiteral, "abcdefgh", "ij", {}}),
      Dictionary::HashTerm({TermKind::kLiteral, "abcdefgh", {}, "ij"}),
      Dictionary::HashTerm({TermKind::kLiteral, {}, "abcdefghij", {}}),
      Dictionary::HashTerm({TermKind::kIri, "abcdefghij", {}, {}}),
      Dictionary::HashTerm({TermKind::kBlank, "abcdefghij", {}, {}}),
      Dictionary::HashTerm({TermKind::kIri, std::string_view("ab\0", 3), {},
                            {}}),
      Dictionary::HashTerm({TermKind::kIri, "ab", {}, {}}),
  };
  for (size_t i = 0; i < std::size(hashes); ++i) {
    for (size_t j = i + 1; j < std::size(hashes); ++j) {
      EXPECT_NE(hashes[i], hashes[j]) << i << " vs " << j;
    }
  }
}

TEST(VocabularyTest, InternsBuiltins) {
  Dictionary d;
  Vocabulary v(d);
  EXPECT_NE(v.rdf_type, kInvalidTermId);
  EXPECT_TRUE(v.IsType(v.rdf_type));
  EXPECT_TRUE(v.IsSchemaProperty(v.subclass));
  EXPECT_TRUE(v.IsSchemaProperty(v.subproperty));
  EXPECT_TRUE(v.IsSchemaProperty(v.domain));
  EXPECT_TRUE(v.IsSchemaProperty(v.range));
  EXPECT_FALSE(v.IsSchemaProperty(v.rdf_type));
  EXPECT_FALSE(v.IsType(v.subclass));
}

TEST(TripleTest, OrderingAndEquality) {
  Triple a{1, 2, 3}, b{1, 2, 4}, c{1, 2, 3};
  EXPECT_EQ(a, c);
  EXPECT_LT(a, b);
  EXPECT_FALSE(b < a);
}

TEST(TripleTest, HashDistinguishesPermutations) {
  TripleHash h;
  EXPECT_NE(h(Triple{1, 2, 3}), h(Triple{3, 2, 1}));
  EXPECT_EQ(h(Triple{1, 2, 3}), h(Triple{1, 2, 3}));
}

}  // namespace
}  // namespace rdfsum
