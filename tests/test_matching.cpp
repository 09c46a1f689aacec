// Bipartite matching: Hopcroft–Karp and the incremental matcher against
// the exhaustive oracle on random graphs; rollback semantics; the
// feasibility matcher against both on random group streams, and its
// rejections holding on every superset of the committed set.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <random>
#include <utility>
#include <vector>

#include "matching/brute_force.h"
#include "matching/feasibility_matcher.h"
#include "matching/hopcroft_karp.h"
#include "matching/incremental_matching.h"
#include "util/check.h"

namespace fastpr::matching {
namespace {

BipartiteGraph random_graph(int left, int right, double edge_prob,
                            std::mt19937& rng) {
  BipartiteGraph g;
  g.left_count = left;
  std::bernoulli_distribution edge(edge_prob);
  for (int r = 0; r < right; ++r) {
    std::vector<int> adj;
    for (int l = 0; l < left; ++l) {
      if (edge(rng)) adj.push_back(l);
    }
    g.add_right_vertex(std::move(adj));
  }
  return g;
}

struct GraphParam {
  int left, right;
  double density;
};

class MatchingOracleTest : public ::testing::TestWithParam<GraphParam> {};

TEST_P(MatchingOracleTest, HopcroftKarpMatchesBruteForce) {
  const auto p = GetParam();
  std::mt19937 rng(1000 + p.left * 31 + p.right);
  for (int trial = 0; trial < 60; ++trial) {
    const auto g = random_graph(p.left, p.right, p.density, rng);
    const auto hk = hopcroft_karp(g);
    EXPECT_TRUE(is_valid_matching(g, hk));
    EXPECT_EQ(hk.size, brute_force_max_matching(g));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatchingOracleTest,
    ::testing::Values(GraphParam{4, 4, 0.3}, GraphParam{6, 6, 0.5},
                      GraphParam{10, 8, 0.25}, GraphParam{5, 10, 0.4},
                      GraphParam{12, 6, 0.15}, GraphParam{8, 8, 0.9}));

TEST(HopcroftKarp, EmptyGraph) {
  BipartiteGraph g;
  g.left_count = 5;
  const auto m = hopcroft_karp(g);
  EXPECT_EQ(m.size, 0);
  EXPECT_TRUE(m.is_perfect_on_right());
}

TEST(HopcroftKarp, IsolatedRightVertices) {
  BipartiteGraph g;
  g.left_count = 3;
  g.add_right_vertex({});
  g.add_right_vertex({0});
  const auto m = hopcroft_karp(g);
  EXPECT_EQ(m.size, 1);
  EXPECT_FALSE(m.is_perfect_on_right());
}

TEST(HopcroftKarp, PerfectMatchingOnCompleteGraph) {
  BipartiteGraph g;
  g.left_count = 6;
  for (int r = 0; r < 6; ++r) g.add_right_vertex({0, 1, 2, 3, 4, 5});
  const auto m = hopcroft_karp(g);
  EXPECT_EQ(m.size, 6);
}

TEST(IncrementalMatcher, GroupAllOrNothing) {
  // Left {0,1}; first group of 2 takes both; a second group must fail
  // and leave the matcher untouched.
  IncrementalMatcher m(2);
  const std::vector<int> adj = {0, 1};
  EXPECT_TRUE(m.try_add_group(adj, 2));
  EXPECT_EQ(m.right_count(), 2);
  EXPECT_FALSE(m.try_add_group(adj, 1));
  EXPECT_EQ(m.right_count(), 2);
  // The committed vertices are still validly matched.
  EXPECT_NE(m.matched_left(0), m.matched_left(1));
}

TEST(IncrementalMatcher, RollbackRestoresSaturation) {
  // Group of 3 over left {0,1,2} with the third vertex unmatchable:
  // rollback must keep the earlier committed group saturated.
  IncrementalMatcher m(3);
  const std::vector<int> adj01 = {0, 1};
  const std::vector<int> adj2 = {2};
  EXPECT_TRUE(m.try_add_group(adj01, 2));  // occupies 0 and 1
  EXPECT_TRUE(m.try_add_group(adj2, 1));   // occupies 2
  const std::vector<int> adj_any = {0, 1, 2};
  EXPECT_FALSE(m.try_add_group(adj_any, 1));
  EXPECT_EQ(m.right_count(), 3);
  std::vector<bool> used(3, false);
  for (int r = 0; r < 3; ++r) {
    const int l = m.matched_left(r);
    ASSERT_GE(l, 0);
    ASSERT_LT(l, 3);
    EXPECT_FALSE(used[static_cast<size_t>(l)]);
    used[static_cast<size_t>(l)] = true;
  }
}

TEST(IncrementalMatcher, AugmentingPathReroutesExisting) {
  // Right A adj {0,1}; right B adj {0}. Insert A (may take 0), then B
  // must succeed by rerouting A to 1 — the augmenting-path property.
  IncrementalMatcher m(2);
  const std::vector<int> adj_a = {0, 1};
  const std::vector<int> adj_b = {0};
  ASSERT_TRUE(m.try_add_group(adj_a, 1));
  EXPECT_TRUE(m.try_add_group(adj_b, 1));
  EXPECT_EQ(m.matched_left(1), 0);
  EXPECT_EQ(m.matched_left(0), 1);
}

TEST(IncrementalMatcher, FailedGroupKeepsEarlierReroutes) {
  // A = {0,1}×1 takes 0. B = {0}×2: the first copy reroutes A to 1 and
  // takes 0; the second copy fails. Rollback drops B's copies only, so A
  // stays on 1 — Algorithm 1's later probes see this exact assignment.
  IncrementalMatcher m(2);
  const std::vector<int> adj_a = {0, 1};
  const std::vector<int> adj_b = {0};
  ASSERT_TRUE(m.try_add_group(adj_a, 1));
  ASSERT_EQ(m.matched_left(0), 0);
  EXPECT_FALSE(m.try_add_group(adj_b, 2));
  EXPECT_EQ(m.right_count(), 1);
  EXPECT_EQ(m.matched_left(0), 1);
  // Left 0 is free again after the rollback.
  EXPECT_TRUE(m.try_add_group(adj_b, 1));
  EXPECT_EQ(m.matched_left(1), 0);
}

TEST(IncrementalMatcher, AgreesWithHopcroftKarpOnRandomGroups) {
  std::mt19937 rng(777);
  for (int trial = 0; trial < 100; ++trial) {
    const int left = 12;
    IncrementalMatcher inc(left);
    BipartiteGraph g;
    g.left_count = left;
    // deque: the matcher holds adjacency by pointer, so the
    // container must not relocate elements on growth.
    std::deque<std::vector<int>> kept_adjacency;

    // Insert random groups; mirror the accepted ones into a plain graph
    // and verify the incremental matcher saturates iff HK does.
    for (int step = 0; step < 8; ++step) {
      std::vector<int> adj;
      for (int l = 0; l < left; ++l) {
        if (rng() % 3 == 0) adj.push_back(l);
      }
      const int copies = 1 + static_cast<int>(rng() % 3);
      // Tentative graph with the group added.
      BipartiteGraph tentative = g;
      for (int c = 0; c < copies; ++c) tentative.add_right_vertex(adj);
      const bool hk_saturates =
          hopcroft_karp(tentative).size == tentative.right_count();

      kept_adjacency.push_back(adj);
      const bool accepted = inc.try_add_group(kept_adjacency.back(), copies);
      EXPECT_EQ(accepted, hk_saturates) << "trial=" << trial;
      if (accepted) g = std::move(tentative);
    }
  }
}

TEST(IncrementalMatcher, ResetClears) {
  IncrementalMatcher m(4);
  const std::vector<int> adj = {0, 1, 2, 3};
  EXPECT_TRUE(m.try_add_group(adj, 4));
  m.reset();
  EXPECT_EQ(m.right_count(), 0);
  EXPECT_TRUE(m.try_add_group(adj, 4));
}

TEST(FeasibilityMatcher, ReroutesOccupyingGroup) {
  // A = {0,1}×1 may take 0; B = {0}×1 fits only if A moves to 1.
  FeasibilityMatcher m(2);
  const std::vector<int> adj_a = {0, 1};
  const std::vector<int> adj_b = {0};
  ASSERT_TRUE(m.try_add_group(adj_a, 1));
  EXPECT_TRUE(m.try_add_group(adj_b, 1));
  EXPECT_EQ(m.right_count(), 2);
  EXPECT_FALSE(m.try_add_group(adj_a, 1));
}

TEST(FeasibilityMatcher, FailedGroupRollsBackItsPlacedUnits) {
  // B = {0,1,2}×3 places two units, then fails on the third because A
  // holds 2 with nowhere else to go. Its two units must be released:
  // C = {0,1}×2 then fits.
  FeasibilityMatcher m(3);
  const std::vector<int> adj_a = {2};
  const std::vector<int> adj_b = {0, 1, 2};
  const std::vector<int> adj_c = {0, 1};
  ASSERT_TRUE(m.try_add_group(adj_a, 1));
  EXPECT_FALSE(m.try_add_group(adj_b, 3));
  EXPECT_EQ(m.right_count(), 1);
  EXPECT_TRUE(m.try_add_group(adj_c, 2));
  EXPECT_EQ(m.right_count(), 3);
  m.reset();
  EXPECT_EQ(m.right_count(), 0);
  EXPECT_TRUE(m.try_add_group(adj_b, 3));
}

TEST(FeasibilityMatcher, RejectsBadInput) {
  FeasibilityMatcher m(2);
  const std::vector<int> adj = {0, 2};
  EXPECT_THROW(m.try_add_group(adj, 1), CheckFailure);
  const std::vector<int> ok = {0, 1};
  EXPECT_THROW(m.try_add_group(ok, 0), CheckFailure);
}

TEST(FeasibilityMatcher, AgreesWithIncrementalMatcherAndHopcroftKarp) {
  // Random group streams with demand 1..6 over 20 left vertices, mixed
  // with reset() and with `probe = base` copy-assign reuse (Algorithm
  // 1's swap rows). Every insertion must be accepted exactly when the
  // copy-level IncrementalMatcher accepts it and exactly when
  // Hopcroft–Karp saturates the group's copies, with equal
  // right_count().
  constexpr int kLeft = 20;
  constexpr int kMaxDemand = 6;
  struct Side {
    FeasibilityMatcher feasibility{kLeft};
    IncrementalMatcher incremental{kLeft};
    BipartiteGraph graph{kLeft, {}};
  };
  std::mt19937 rng(4242);
  int accepted = 0, rejected = 0, rejected_after_partial = 0;
  int resets = 0, copies = 0;
  for (int trial = 0; trial < 150; ++trial) {
    // deque: both matchers hold adjacency by pointer.
    std::deque<std::vector<int>> adjacency;
    Side base;
    Side probe;
    const double density =
        0.15 + 0.35 * static_cast<double>(rng() % 100) / 100.0;
    for (int step = 0; step < 40; ++step) {
      SCOPED_TRACE(::testing::Message()
                   << "trial=" << trial << " step=" << step);
      switch (rng() % 12) {
        case 0:
          probe.feasibility.reset();
          probe.incremental.reset();
          probe.graph.right_adj.clear();
          ++resets;
          continue;
        case 1:
          probe = base;
          ++copies;
          continue;
        case 2:
          base = probe;
          continue;
        default:
          break;
      }
      std::vector<int> adj;
      for (int l = 0; l < kLeft; ++l) {
        if (static_cast<double>(rng() % 1000) < density * 1000) {
          adj.push_back(l);
        }
      }
      std::shuffle(adj.begin(), adj.end(), rng);
      const int demand = 1 + static_cast<int>(rng() % kMaxDemand);
      adjacency.push_back(std::move(adj));

      BipartiteGraph tentative = probe.graph;
      for (int c = 0; c < demand; ++c) {
        tentative.add_right_vertex(adjacency.back());
      }
      const int hk_size = hopcroft_karp(tentative).size;
      const bool hk_saturates = hk_size == tentative.right_count();

      const bool by_feasibility =
          probe.feasibility.try_add_group(adjacency.back(), demand);
      const bool by_incremental =
          probe.incremental.try_add_group(adjacency.back(), demand);
      EXPECT_EQ(by_feasibility, hk_saturates);
      EXPECT_EQ(by_incremental, hk_saturates);
      if (hk_saturates) {
        probe.graph = std::move(tentative);
        ++accepted;
      } else {
        ++rejected;
        if (hk_size > probe.graph.right_count()) ++rejected_after_partial;
      }
      EXPECT_EQ(probe.feasibility.right_count(),
                probe.incremental.right_count());
      EXPECT_EQ(probe.feasibility.right_count(), probe.graph.right_count());
    }
  }
  // The stream really covered every path the differential is about.
  EXPECT_GT(accepted, 500);
  EXPECT_GT(rejected, 500);
  EXPECT_GT(rejected_after_partial, 100);
  EXPECT_GT(resets, 50);
  EXPECT_GT(copies, 50);
}

TEST(FeasibilityMatcher, RefutedGroupStaysRefutedOnSupersets) {
  // Hall's condition is monotone: a group rejected on a committed set S
  // is rejected on every superset of S. Algorithm 1's swap rows answer
  // probes by this lemma without a search (src/core/recon_sets.cpp), so
  // check it on the matcher itself: random group streams grow S, and
  // after each accepted group every group rejected earlier in the trial
  // is offered again, on a copy of S as a swap row's probe matcher is,
  // and must still be rejected.
  constexpr int kLeft = 20;
  constexpr int kMaxDemand = 6;
  std::mt19937 rng(2718);
  int rejected = 0, reoffers = 0;
  for (int trial = 0; trial < 150; ++trial) {
    // deque: the matcher holds adjacency by pointer.
    std::deque<std::vector<int>> adjacency;
    std::vector<std::pair<const std::vector<int>*, int>> refuted;
    FeasibilityMatcher committed(kLeft);
    const double density =
        0.15 + 0.35 * static_cast<double>(rng() % 100) / 100.0;
    for (int step = 0; step < 40; ++step) {
      std::vector<int> adj;
      for (int l = 0; l < kLeft; ++l) {
        if (static_cast<double>(rng() % 1000) < density * 1000) {
          adj.push_back(l);
        }
      }
      std::shuffle(adj.begin(), adj.end(), rng);
      const int demand = 1 + static_cast<int>(rng() % kMaxDemand);
      adjacency.push_back(std::move(adj));
      if (!committed.try_add_group(adjacency.back(), demand)) {
        refuted.emplace_back(&adjacency.back(), demand);
        ++rejected;
        continue;
      }
      // S grew: every group refuted on a subset of it stays refuted.
      FeasibilityMatcher probe(kLeft);
      for (size_t g = 0; g < refuted.size(); ++g) {
        SCOPED_TRACE(::testing::Message() << "trial=" << trial
                                          << " step=" << step << " g=" << g);
        probe = committed;
        EXPECT_FALSE(probe.try_add_group(*refuted[g].first,
                                         refuted[g].second));
        EXPECT_EQ(probe.right_count(), committed.right_count());
        ++reoffers;
      }
    }
  }
  // The streams really grew sets past refuted groups.
  EXPECT_GT(rejected, 500);
  EXPECT_GT(reoffers, 1000);
}

}  // namespace
}  // namespace fastpr::matching
