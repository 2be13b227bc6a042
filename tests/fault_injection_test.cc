// Unit wall for the failpoint registry (util/fault_injection.h) and its
// integration with the named sites in the library. Everything that needs a
// live registry guards on FaultInjection::compiled_in() — in Release the
// macro sites compile to nothing and these tests skip.

#include <gtest/gtest.h>

#include <string>

#include "gen/bsbm.h"
#include "gen/paper_example.h"
#include "oracle/drain.h"
#include "query/evaluator.h"
#include "query/pruned_evaluator.h"
#include "query/sparql_parser.h"
#include "summary/summarizer.h"
#include "util/fault_injection.h"
#include "util/status.h"

namespace rdfsum::util {
namespace {

class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!FaultInjection::compiled_in()) {
      GTEST_SKIP() << "failpoints not compiled in (Release build)";
    }
    FaultInjection::Clear();
  }
  void TearDown() override { FaultInjection::Clear(); }
};

TEST_F(FaultInjectionTest, UnarmedHitIsOk) {
  EXPECT_FALSE(FaultInjection::enabled());
  EXPECT_TRUE(FaultInjection::Hit("nowhere:armed").ok());
}

TEST_F(FaultInjectionTest, ArmedHitReturnsTheStatus) {
  FaultInjection::Arm("t:a", Status::IOError("injected"));
  EXPECT_TRUE(FaultInjection::enabled());
  Status st = FaultInjection::Hit("t:a");
  EXPECT_TRUE(st.IsIOError()) << st.ToString();
  // Stays armed: every later hit fails too.
  EXPECT_TRUE(FaultInjection::Hit("t:a").IsIOError());
  // Other names are unaffected.
  EXPECT_TRUE(FaultInjection::Hit("t:b").ok());
}

TEST_F(FaultInjectionTest, CountdownDelaysTheFailure) {
  FaultInjection::ArmOptions options;
  options.countdown = 3;
  FaultInjection::Arm("t:cd", Status::Internal("boom"), options);
  EXPECT_TRUE(FaultInjection::Hit("t:cd").ok());
  EXPECT_TRUE(FaultInjection::Hit("t:cd").ok());
  EXPECT_TRUE(FaultInjection::Hit("t:cd").IsInternal());
  EXPECT_TRUE(FaultInjection::Hit("t:cd").IsInternal());
  EXPECT_EQ(FaultInjection::HitCount("t:cd"), 4u);
}

TEST_F(FaultInjectionTest, ClearDisarms) {
  FaultInjection::Arm("t:x", Status::Corruption("x"));
  ASSERT_TRUE(FaultInjection::Hit("t:x").IsCorruption());
  FaultInjection::Clear();
  EXPECT_FALSE(FaultInjection::enabled());
  EXPECT_TRUE(FaultInjection::Hit("t:x").ok());
}

TEST_F(FaultInjectionTest, RandomModeIsDeterministicPerSeed) {
  // With 100% probability every hit fails; the injected code is fixed.
  FaultInjection::ArmRandom(/*seed=*/42, /*percent=*/100);
  Status st = FaultInjection::Hit("t:any");
  EXPECT_FALSE(st.ok());
  FaultInjection::Clear();
  FaultInjection::ArmRandom(/*seed=*/42, /*percent=*/0);
  EXPECT_TRUE(FaultInjection::Hit("t:any").ok());
}

TEST_F(FaultInjectionTest, MalformedSpecsWarnAndArmNothing) {
  // RDFSUM_FAILPOINTS values go through ArmSpec. A seed that is not a u64
  // decimal or a percent outside 1..100 used to wrap or fall back
  // silently ("random:7x:-5" armed p=4294967291%).
  for (const char* spec :
       {"random:7x:-5", "random:-1:abc", "random:7:0", "random:7:101",
        "random:7:", "random:7:50:1", "random: 7", "t:a=sleep:5ms",
        "t:a=sleep:", "t:a=nosuchcode", "t:a"}) {
    SCOPED_TRACE(spec);
    FaultInjection::Clear();
    testing::internal::CaptureStderr();
    FaultInjection::ArmSpec(spec);
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("ignoring bad failpoint spec"), std::string::npos)
        << err;
    EXPECT_EQ(err.find("armed"), std::string::npos) << err;
    EXPECT_FALSE(FaultInjection::enabled());
    EXPECT_TRUE(FaultInjection::Hit("t:a").ok());
  }
}

TEST_F(FaultInjectionTest, WellFormedSpecsArm) {
  testing::internal::CaptureStderr();
  FaultInjection::ArmSpec("random:7:100");
  std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("seed=7, p=100%"), std::string::npos) << err;
  EXPECT_FALSE(FaultInjection::Hit("t:any").ok());

  // A list arms its good entries and skips the bad one.
  FaultInjection::Clear();
  testing::internal::CaptureStderr();
  FaultInjection::ArmSpec("t:a=corruption;t:b=bogus,t:c=sleep:0");
  err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("ignoring bad failpoint spec 't:b=bogus'"),
            std::string::npos)
      << err;
  EXPECT_NE(err.find("armed (2 failpoint(s))"), std::string::npos) << err;
  EXPECT_TRUE(FaultInjection::Hit("t:a").IsCorruption());
  EXPECT_TRUE(FaultInjection::Hit("t:b").ok());
  EXPECT_TRUE(FaultInjection::Hit("t:c").ok());
}

// ---- integration: the named sites actually fire -------------------------

TEST_F(FaultInjectionTest, HashJoinBuildSiteDegradesOrFails) {
  gen::BsbmOptions gen_options;
  gen_options.num_products = 100;
  const Graph g = gen::GenerateBsbm(gen_options);
  query::BgpQuery q =
      query::ParseSparql(
          "SELECT ?p ?f WHERE { ?p <http://bsbm.example.org/producer> ?f . "
          "?p <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> "
          "<http://bsbm.example.org/Product> . }")
          .value();
  query::BgpEvaluator eval(g);
  query::CursorOptions options;
  options.hash_join = query::HashJoinMode::kNever;
  auto rows = query::Drain(eval, q, options);
  ASSERT_TRUE(rows.ok());

  // An injected kResourceExhausted at the build site means "the budget said
  // no": the join degrades to NLJ and still returns every row.
  options.hash_join = query::HashJoinMode::kAlways;
  FaultInjection::Arm("query:hashjoin-build",
                      Status::ResourceExhausted("injected"));
  auto degraded = query::Drain(eval, q, options);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_EQ(degraded->size(), rows->size());
  EXPECT_GE(FaultInjection::HitCount("query:hashjoin-build"), 1u);

  // Any other injected failure has no graceful escape and must surface.
  FaultInjection::Clear();
  FaultInjection::Arm("query:hashjoin-build", Status::IOError("injected"));
  auto failed = query::Drain(eval, q, options);
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(failed.status().IsIOError()) << failed.status().ToString();
}

TEST_F(FaultInjectionTest, QuotientShardSiteSurfacesThroughTrySummarize) {
  gen::Figure2Example ex = gen::BuildFigure2();
  FaultInjection::Arm("quotient:shard", Status::Internal("shard died"));
  auto r = summary::TrySummarize(ex.graph, summary::SummaryKind::kWeak);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInternal()) << r.status().ToString();
  // The site fires once per quotient.
  EXPECT_EQ(FaultInjection::HitCount("quotient:shard"), 1u);
  FaultInjection::Clear();
  EXPECT_TRUE(
      summary::TrySummarize(ex.graph, summary::SummaryKind::kWeak).ok());
}

TEST_F(FaultInjectionTest, PrunedEvaluatorCreateReturnsTheSummarizerFault) {
  // The pruned evaluator summarizes at construction; a summarizer fault is
  // the factory's error, not an abort.
  gen::Figure2Example ex = gen::BuildFigure2();
  FaultInjection::Arm("quotient:shard", Status::IOError("injected"));
  auto pruned = query::SummaryPrunedEvaluator::Create(ex.graph);
  ASSERT_FALSE(pruned.ok());
  EXPECT_TRUE(pruned.status().IsIOError()) << pruned.status().ToString();

  // kSummary summarizes a second time, for its estimator: a fault there
  // surfaces the same way.
  FaultInjection::ArmOptions second;
  second.countdown = 2;
  FaultInjection::Arm("quotient:shard", Status::IOError("injected"), second);
  query::SummaryPrunedEvaluator::Options options;
  options.planner = query::PlannerMode::kSummary;
  auto with_estimator =
      query::SummaryPrunedEvaluator::Create(ex.graph, options);
  ASSERT_FALSE(with_estimator.ok());
  EXPECT_TRUE(with_estimator.status().IsIOError())
      << with_estimator.status().ToString();

  FaultInjection::Clear();
  EXPECT_TRUE(query::SummaryPrunedEvaluator::Create(ex.graph, options).ok());
}

}  // namespace
}  // namespace rdfsum::util
