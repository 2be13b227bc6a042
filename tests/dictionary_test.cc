#include <gtest/gtest.h>

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
