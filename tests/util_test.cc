#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "util/csv.h"
#include "util/random.h"
#include "util/status.h"
#include "util/statusor.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace rdfsum {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, OkFactory) { EXPECT_TRUE(Status::OK().ok()); }

TEST(StatusTest, InvalidArgument) {
  Status st = Status::InvalidArgument("bad input");
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsInvalidArgument());
  EXPECT_EQ(st.message(), "bad input");
  EXPECT_EQ(st.ToString(), "InvalidArgument: bad input");
}

TEST(StatusTest, AllCodesRoundTrip) {
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_TRUE(Status::IOError("x").IsIOError());
  EXPECT_TRUE(Status::NotSupported("x").IsNotSupported());
  EXPECT_TRUE(Status::Internal("x").IsInternal());
  EXPECT_TRUE(Status::AlreadyExists("x").IsAlreadyExists());
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::IOError("a"));
}

Status FailsThrough() {
  RDFSUM_RETURN_IF_ERROR(Status::IOError("inner"));
  return Status::OK();
}

TEST(StatusTest, ReturnIfErrorMacro) {
  EXPECT_TRUE(FailsThrough().IsIOError());
}

// ---------------------------------------------------------------- StatusOr

StatusOr<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x;
}

TEST(StatusOrTest, HoldsValue) {
  auto r = ParsePositive(5);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 5);
}

TEST(StatusOrTest, HoldsError) {
  auto r = ParsePositive(-1);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

StatusOr<int> Doubles(int x) {
  RDFSUM_ASSIGN_OR_RETURN(int v, ParsePositive(x));
  return v * 2;
}

TEST(StatusOrTest, AssignOrReturnPropagates) {
  auto ok = Doubles(4);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 8);
  EXPECT_FALSE(Doubles(0).ok());
}

TEST(StatusOrTest, MoveOut) {
  StatusOr<std::string> r = std::string("hello");
  std::string v = std::move(r).value();
  EXPECT_EQ(v, "hello");
}

// ---------------------------------------------------------------- strings

TEST(StringUtilTest, SplitBasic) {
  auto parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(StringUtilTest, SplitNoSeparator) {
  auto parts = Split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(StringUtilTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  x y \t\n"), "x y");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_EQ(StripWhitespace(" \t "), "");
}

TEST(StringUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("urn:rdfsum:x", "urn:rdfsum:"));
  EXPECT_FALSE(StartsWith("urn", "urn:rdfsum:"));
  EXPECT_TRUE(EndsWith("file.nt", ".nt"));
  EXPECT_FALSE(EndsWith("nt", ".nt"));
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringUtilTest, FormatWithCommas) {
  EXPECT_EQ(FormatWithCommas(0), "0");
  EXPECT_EQ(FormatWithCommas(999), "999");
  EXPECT_EQ(FormatWithCommas(1000), "1,000");
  EXPECT_EQ(FormatWithCommas(1234567), "1,234,567");
}

TEST(StringUtilTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(2.0, 0), "2");
}

TEST(StringUtilTest, ParseDecimalAcceptsPlainDigits) {
  uint64_t v = 7;
  EXPECT_TRUE(ParseDecimal("0", UINT64_MAX, &v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(ParseDecimal("00042", UINT64_MAX, &v));
  EXPECT_EQ(v, 42u);
  EXPECT_TRUE(ParseDecimal("18446744073709551615", UINT64_MAX, &v));
  EXPECT_EQ(v, UINT64_MAX);
  EXPECT_TRUE(ParseDecimal("4294967295", UINT32_MAX, &v));
  EXPECT_EQ(v, UINT32_MAX);
  EXPECT_TRUE(ParseDecimal("65535", 0xFFFF, &v));
  EXPECT_EQ(v, 0xFFFFu);
}

TEST(StringUtilTest, ParseDecimalRejectsEverythingElse) {
  const char* bad[] = {"",   "-5",  "-0",   "+3",   " 5",  "5 ",  "\t5",
                       "5\n", "0x10", "1e3",  "1.0",  "abc", "5a",  "a5",
                       "--1", "1 2", "\xd9\xa3" /* Arabic-Indic three */};
  for (const char* text : bad) {
    uint64_t v = 7;
    EXPECT_FALSE(ParseDecimal(text, UINT64_MAX, &v)) << "'" << text << "'";
    EXPECT_EQ(v, 7u) << "'" << text << "'";  // untouched on failure
  }
  // A NUL inside the view is a non-digit, not a terminator.
  uint64_t v = 7;
  EXPECT_FALSE(ParseDecimal(std::string_view("5\0", 2), UINT64_MAX, &v));
}

TEST(StringUtilTest, ParseDecimalRejectsOutOfRange) {
  uint64_t v = 7;
  EXPECT_FALSE(ParseDecimal("18446744073709551616", UINT64_MAX, &v));
  EXPECT_FALSE(ParseDecimal("99999999999999999999999", UINT64_MAX, &v));
  EXPECT_FALSE(ParseDecimal("4294967296", UINT32_MAX, &v));
  EXPECT_FALSE(ParseDecimal("65536", 0xFFFF, &v));
  EXPECT_FALSE(ParseDecimal("1", 0, &v));
  EXPECT_EQ(v, 7u);
  EXPECT_TRUE(ParseDecimal("0", 0, &v));
  EXPECT_EQ(v, 0u);
}

TEST(StringUtilTest, AsciiToLower) {
  EXPECT_EQ(AsciiToLower("SeLeCT"), "select");
}

TEST(StringUtilTest, EqualsIgnoreAsciiCase) {
  EXPECT_TRUE(EqualsIgnoreAsciiCase("SeLeCT", "select"));
  EXPECT_TRUE(EqualsIgnoreAsciiCase("", ""));
  EXPECT_FALSE(EqualsIgnoreAsciiCase("SELECT", "SELECTS"));
  EXPECT_FALSE(EqualsIgnoreAsciiCase("ASK", "ASL"));
}

// ---------------------------------------------------------------- random

TEST(RandomTest, DeterministicForSeed) {
  Random a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RandomTest, DifferentSeedsDiffer) {
  Random a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++equal;
  }
  EXPECT_LT(equal, 4);
}

TEST(RandomTest, UniformInBounds) {
  Random rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(10), 10u);
  }
}

TEST(RandomTest, UniformRangeInclusive) {
  Random rng(7);
  std::set<uint64_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(rng.UniformRange(3, 5));
  EXPECT_EQ(seen, (std::set<uint64_t>{3, 4, 5}));
}

TEST(RandomTest, NextDoubleInUnitInterval) {
  Random rng(9);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RandomTest, BernoulliExtremes) {
  Random rng(5);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RandomTest, BernoulliRoughlyFair) {
  Random rng(11);
  int heads = 0;
  for (int i = 0; i < 10000; ++i) heads += rng.Bernoulli(0.5);
  EXPECT_GT(heads, 4500);
  EXPECT_LT(heads, 5500);
}

TEST(RandomTest, ZipfInBoundsAndSkewed) {
  Random rng(13);
  uint64_t low = 0, total = 10000;
  for (uint64_t i = 0; i < total; ++i) {
    uint64_t v = rng.Zipf(100, 1.0);
    ASSERT_LT(v, 100u);
    if (v < 10) ++low;
  }
  // Zipf(1.0) concentrates mass on small values.
  EXPECT_GT(low, total / 3);
}

TEST(RandomTest, ZipfZeroExponentIsUniformish) {
  Random rng(17);
  uint64_t low = 0, total = 10000;
  for (uint64_t i = 0; i < total; ++i) {
    if (rng.Zipf(100, 0.0) < 10) ++low;
  }
  EXPECT_LT(low, total / 5);
}

TEST(RandomTest, SampleDistinct) {
  Random rng(19);
  auto sample = rng.SampleDistinct(100, 20);
  std::set<uint64_t> set(sample.begin(), sample.end());
  EXPECT_EQ(set.size(), 20u);
  for (uint64_t v : set) EXPECT_LT(v, 100u);
}

TEST(RandomTest, SampleDistinctClampsToN) {
  Random rng(23);
  auto sample = rng.SampleDistinct(5, 50);
  std::set<uint64_t> set(sample.begin(), sample.end());
  EXPECT_EQ(set, (std::set<uint64_t>{0, 1, 2, 3, 4}));
}

// ---------------------------------------------------------------- table

TEST(TablePrinterTest, AsciiAligns) {
  TablePrinter t({"col", "n"});
  t.AddRow({"a", "1"});
  t.AddRow({"long-cell", "22"});
  std::string out = t.ToAscii();
  EXPECT_NE(out.find("| col       | n  |"), std::string::npos);
  EXPECT_NE(out.find("| long-cell | 22 |"), std::string::npos);
}

TEST(TablePrinterTest, CsvEscapes) {
  TablePrinter t({"a", "b"});
  t.AddRow({"x,y", "quote\"inside"});
  std::string csv = t.ToCsv();
  EXPECT_NE(csv.find("\"x,y\""), std::string::npos);
  EXPECT_NE(csv.find("\"quote\"\"inside\""), std::string::npos);
}

TEST(TablePrinterTest, ShortRowsPad) {
  TablePrinter t({"a", "b", "c"});
  t.AddRow({"1"});
  EXPECT_NO_THROW(t.ToAscii());
  EXPECT_EQ(t.num_rows(), 1u);
}

TEST(TimerTest, MeasuresSomething) {
  Timer timer;
  volatile uint64_t x = 0;
  for (int i = 0; i < 100000; ++i) x = x + i;
  EXPECT_GE(timer.ElapsedMicros(), 0);
  EXPECT_GE(timer.ElapsedSeconds(), 0.0);
}

}  // namespace
}  // namespace rdfsum
