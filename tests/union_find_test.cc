#include <gtest/gtest.h>

#include <cstdint>
#include <queue>
#include <random>
#include <utility>
#include <vector>

#include "summary/union_find.h"

namespace rdfsum::summary {
namespace {

TEST(UnionFindTest, SingletonsInitially) {
  UnionFind uf(5);
  EXPECT_EQ(uf.size(), 5u);
  for (uint32_t i = 0; i < 5; ++i) EXPECT_EQ(uf.Find(i), i);
}

TEST(UnionFindTest, TransitiveUnions) {
  UnionFind uf(6);
  uf.Union(0, 1);
  uf.Union(2, 3);
  uf.Union(1, 2);
  EXPECT_EQ(uf.Find(0), uf.Find(3));
  EXPECT_NE(uf.Find(0), uf.Find(4));
}

TEST(UnionFindTest, AddGrows) {
  UnionFind uf;
  uint32_t a = uf.Add();
  uint32_t b = uf.Add(3);
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(uf.size(), 4u);
  uf.Union(0, 3);
  EXPECT_EQ(uf.Find(3), 0u);
}

TEST(UnionFindTest, RootIsMinimumElementOfSet) {
  // Hooking always points the larger root at the smaller, so every set's
  // root is its minimum element id, whatever order the unions come in.
  UnionFind uf(100);
  for (uint32_t i = 99; i >= 51; --i) uf.Union(i, i - 1);
  for (uint32_t i = 50; i < 100; ++i) EXPECT_EQ(uf.Find(i), 50u);
  for (uint32_t i = 0; i < 50; ++i) EXPECT_EQ(uf.Find(i), i);
}

/// Connected components of the undirected graph on [0, n) with `edges`, by
/// breadth-first search: component[i] is the minimum id reachable from i.
std::vector<uint32_t> BfsComponents(
    uint32_t n, const std::vector<std::pair<uint32_t, uint32_t>>& edges) {
  std::vector<std::vector<uint32_t>> adj(n);
  for (const auto& [a, b] : edges) {
    adj[a].push_back(b);
    adj[b].push_back(a);
  }
  constexpr uint32_t kUnseen = UINT32_MAX;
  std::vector<uint32_t> component(n, kUnseen);
  for (uint32_t start = 0; start < n; ++start) {
    if (component[start] != kUnseen) continue;
    // Ascending start ids: the first unseen id of a component is its
    // minimum.
    component[start] = start;
    std::queue<uint32_t> frontier;
    frontier.push(start);
    while (!frontier.empty()) {
      uint32_t v = frontier.front();
      frontier.pop();
      for (uint32_t w : adj[v]) {
        if (component[w] == kUnseen) {
          component[w] = start;
          frontier.push(w);
        }
      }
    }
  }
  return component;
}

TEST(UnionFindTest, MatchesBreadthFirstConnectivityWithGrowth) {
  // Random unions interleaved with Add growth: after every round, each
  // element's root must be the minimum id of its BFS component — the same
  // sets, and the root a deterministic name for its set.
  std::mt19937_64 rng(20261019);
  for (int trial = 0; trial < 20; ++trial) {
    UnionFind uf;
    std::vector<std::pair<uint32_t, uint32_t>> edges;
    for (int round = 0; round < 8; ++round) {
      uf.Add(static_cast<uint32_t>(1 + rng() % 64));
      const uint32_t n = uf.size();
      const int unions = static_cast<int>(rng() % (n + 1));
      for (int u = 0; u < unions; ++u) {
        const uint32_t a = static_cast<uint32_t>(rng() % n);
        const uint32_t b = static_cast<uint32_t>(rng() % n);
        uf.Union(a, b);
        edges.emplace_back(a, b);
      }
      const std::vector<uint32_t> component = BfsComponents(n, edges);
      for (uint32_t i = 0; i < n; ++i) {
        ASSERT_EQ(uf.Find(i), component[i])
            << "trial " << trial << " round " << round << " element " << i;
      }
    }
  }
}

}  // namespace
}  // namespace rdfsum::summary
