#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "gen/paper_example.h"
#include "summary/report.h"
#include "summary/summarizer.h"

namespace rdfsum::summary {
namespace {

class ReportTest : public ::testing::Test {
 protected:
  ReportTest() : ex_(gen::BuildFigure2()) {
    weak_ = Summarize(ex_.graph, SummaryKind::kWeak);
  }
  gen::Figure2Example ex_;
  SummaryResult weak_;
};

TEST_F(ReportTest, PaperStyleLabelsMatchFigure4) {
  const Graph& h = weak_.graph;
  // The big subject node: sources {a,t,e,c}, targets {r,p}.
  EXPECT_EQ(PaperStyleLabel(h, weak_.node_map.at(ex_.r1)),
            "N^{published,reviewed}_{author,comment,editor,title}");
  // Nra: target author, source reviewed.
  EXPECT_EQ(PaperStyleLabel(h, weak_.node_map.at(ex_.a1)),
            "N^{author}_{reviewed}");
  // Nt: target title only.
  EXPECT_EQ(PaperStyleLabel(h, weak_.node_map.at(ex_.t1)), "N^{title}");
  // Nc: target comment only.
  EXPECT_EQ(PaperStyleLabel(h, weak_.node_map.at(ex_.c1)), "N^{comment}");
}

TEST_F(ReportTest, NTauLabelForTypedOnlyNode) {
  // r6 has no data properties: its node carries only a type edge.
  EXPECT_EQ(PaperStyleLabel(weak_.graph, weak_.node_map.at(ex_.r6)),
            "C({Journal})");
}

TEST_F(ReportTest, DescribeSummaryCountsMembers) {
  SummaryReport report = DescribeSummary(weak_);
  ASSERT_EQ(report.nodes.size(), 6u);
  // Sorted by member count: the {r1..r5} node first.
  EXPECT_EQ(report.nodes[0].member_count, 5u);
  EXPECT_EQ(report.nodes[0].source_properties.size(), 4u);
  EXPECT_EQ(report.nodes[0].target_properties.size(), 2u);
  EXPECT_EQ(report.nodes[0].types.size(), 3u);  // Book, Journal, Spec
  EXPECT_FALSE(report.nodes[0].sample_members.empty());
}

TEST_F(ReportTest, DescribeSamplesTheSmallestMemberIds) {
  SummaryReport report = DescribeSummary(weak_);
  ASSERT_EQ(report.nodes.size(), 6u);
  for (const NodeReport& n : report.nodes) {
    std::vector<TermId> members;
    for (const auto& [g_node, h_node] : weak_.node_map) {
      if (h_node == n.node) members.push_back(g_node);
    }
    std::sort(members.begin(), members.end());
    members.resize(std::min<size_t>(members.size(), 3));
    std::vector<std::string> want;
    for (TermId m : members) {
      want.push_back(weak_.graph.dict().Decode(m).ToNTriples());
    }
    EXPECT_EQ(n.sample_members, want) << n.label;
  }
}

TEST_F(ReportTest, ToStringListsEveryNode) {
  std::string text = DescribeSummary(weak_).ToString();
  EXPECT_NE(text.find("W summary: 6 data nodes"), std::string::npos);
  EXPECT_NE(text.find("N^{author}_{reviewed}"), std::string::npos);
  EXPECT_NE(text.find("represents 5 resource(s)"), std::string::npos);
}

TEST_F(ReportTest, DotUsesPaperLabels) {
  std::ostringstream os;
  WriteSummaryDot(weak_, os);
  std::string dot = os.str();
  EXPECT_NE(dot.find("digraph \"W_summary\""), std::string::npos);
  EXPECT_NE(dot.find("N^{author}_{reviewed}"), std::string::npos);
  EXPECT_NE(dot.find("shape=box"), std::string::npos);  // class boxes
  EXPECT_NE(dot.find("label=\"author\""), std::string::npos);
}

TEST_F(ReportTest, StrongSummaryLabelsDistinguishRefinedNodes) {
  SummaryResult strong = Summarize(ex_.graph, SummaryKind::kStrong);
  // a1's and a2's nodes have different labels in S.
  std::string a1 = PaperStyleLabel(strong.graph, strong.node_map.at(ex_.a1));
  std::string a2 = PaperStyleLabel(strong.graph, strong.node_map.at(ex_.a2));
  EXPECT_EQ(a1, "N^{author}_{reviewed}");
  EXPECT_EQ(a2, "N^{author}");
  EXPECT_NE(a1, a2);
}

TEST_F(ReportTest, SchemaPreservingDotRendersDottedEdges) {
  gen::BookExample book = gen::BuildBookExample();
  SummaryResult w = Summarize(book.graph, SummaryKind::kWeak);
  std::ostringstream os;
  WriteSummaryDot(w, os);
  EXPECT_NE(os.str().find("style=dotted"), std::string::npos);
}

}  // namespace
}  // namespace rdfsum::summary
