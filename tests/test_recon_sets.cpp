// Algorithm 1: reconstruction sets — exact cover, matching validity,
// the paper's Figure 5 worked example, and the swap-optimization gain.
#include "core/recon_sets.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <thread>

#include "ec/lrc_code.h"
#include "net/topology.h"
#include "util/check.h"
#include "util/rng.h"

namespace fastpr::core {
namespace {

using cluster::ChunkRef;
using cluster::NodeId;
using cluster::StripeLayout;

std::vector<NodeId> healthy_except(int num_nodes, NodeId stf) {
  std::vector<NodeId> nodes;
  for (NodeId n = 0; n < num_nodes; ++n) {
    if (n != stf) nodes.push_back(n);
  }
  return nodes;
}

/// Asserts the sets exactly cover the STF node's chunks, each valid.
void check_cover(const StripeLayout& layout, NodeId stf,
                 const std::vector<NodeId>& healthy, int k,
                 const std::vector<std::vector<ChunkRef>>& sets) {
  std::set<std::pair<int, int>> covered;
  for (const auto& set : sets) {
    EXPECT_FALSE(set.empty());
    EXPECT_TRUE(is_valid_reconstruction_set(layout, stf, healthy, k, set));
    for (ChunkRef c : set) {
      EXPECT_TRUE(covered.emplace(c.stripe, c.index).second)
          << "chunk covered twice";
    }
  }
  EXPECT_EQ(covered.size(), layout.chunks_on(stf).size());
}

TEST(ReconSets, Figure5WorkedExample) {
  // The paper's Figure 5: 4 stripes of RS(5,3) over 10 nodes; the STF
  // node stores one chunk of each. The initial greedy set {C1, C2} can
  // be improved by swapping C2 for C3, unlocking C4: the optimized
  // partition is {{C1, C3, C4}, {C2}} — 2 sets instead of 3.
  //
  // Layout engineered so that:
  //   C1 (stripe 0) helpers ⊂ {1,2,3,4};  C2 (stripe 1) ⊂ {3,4,5,6};
  //   C3 (stripe 2) ⊂ {5,6,7,8};          C4 (stripe 3) ⊂ {1,2,8,9*};
  // with k = 3 and 9 healthy nodes, {C1,C3,C4} admits a perfect
  // matching but {C1,C2,+anything} does not.
  StripeLayout layout(10, 5);
  const NodeId stf = 0;
  layout.add_stripe({0, 1, 2, 3, 4});  // C1
  layout.add_stripe({0, 3, 4, 5, 6});  // C2
  layout.add_stripe({0, 5, 6, 7, 8});  // C3
  layout.add_stripe({0, 1, 2, 8, 9});  // C4
  const auto healthy = healthy_except(10, stf);

  ReconSetOptions opt_on;
  opt_on.optimize = true;
  ReconSetStats stats;
  const auto sets =
      find_reconstruction_sets(layout, stf, healthy, 3, opt_on, &stats);
  check_cover(layout, stf, healthy, 3, sets);

  ReconSetOptions opt_off;
  opt_off.optimize = false;
  const auto sets_ini =
      find_reconstruction_sets(layout, stf, healthy, 3, opt_off);
  check_cover(layout, stf, healthy, 3, sets_ini);

  // Both partitions have 2 sets here, but the swap pass grows the first
  // set to the capacity of 3 chunks (C1, C3, C4 in the paper's telling)
  // where plain greedy stalls at {C1, C2} — more chunks repaired in the
  // first, fully parallel round.
  ASSERT_EQ(sets.size(), 2u);
  ASSERT_EQ(sets_ini.size(), 2u);
  EXPECT_GT(stats.swaps, 0);
  EXPECT_EQ(std::max(sets[0].size(), sets[1].size()), 3u);
  EXPECT_EQ(std::max(sets_ini[0].size(), sets_ini[1].size()), 2u);
}

class RandomReconSetTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomReconSetTest, CoverAndValidityOnRandomLayouts) {
  const int k = GetParam();
  Rng rng(100 + k);
  const int num_nodes = 40;
  const auto layout =
      StripeLayout::random(num_nodes, k + 3, 300, rng);
  // Most-loaded node as STF.
  NodeId stf = 0;
  for (NodeId n = 1; n < num_nodes; ++n) {
    if (layout.load(n) > layout.load(stf)) stf = n;
  }
  const auto healthy = healthy_except(num_nodes, stf);
  const auto sets =
      find_reconstruction_sets(layout, stf, healthy, k, ReconSetOptions{});
  check_cover(layout, stf, healthy, k, sets);
  // No set exceeds the matching capacity floor((M-1)/k).
  for (const auto& set : sets) {
    EXPECT_LE(static_cast<int>(set.size()),
              static_cast<int>(healthy.size()) / k);
  }
}

INSTANTIATE_TEST_SUITE_P(KValues, RandomReconSetTest,
                         ::testing::Values(2, 3, 4, 6));

TEST(ReconSets, OptimizationNeverIncreasesSetCount) {
  // d_opt <= d_ini on random layouts (Experiment B.5's premise).
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    const auto layout = StripeLayout::random(30, 9, 250, rng);
    NodeId stf = 0;
    for (NodeId n = 1; n < 30; ++n) {
      if (layout.load(n) > layout.load(stf)) stf = n;
    }
    const auto healthy = healthy_except(30, stf);
    ReconSetOptions on, off;
    on.optimize = true;
    off.optimize = false;
    const auto d_opt =
        find_reconstruction_sets(layout, stf, healthy, 6, on).size();
    const auto d_ini =
        find_reconstruction_sets(layout, stf, healthy, 6, off).size();
    EXPECT_LE(d_opt, d_ini) << "seed " << seed;
  }
}

TEST(ReconSets, ChunkGroupingStillCovers) {
  Rng rng(5);
  const auto layout = StripeLayout::random(25, 6, 200, rng);
  NodeId stf = 0;
  for (NodeId n = 1; n < 25; ++n) {
    if (layout.load(n) > layout.load(stf)) stf = n;
  }
  const auto healthy = healthy_except(25, stf);
  ReconSetOptions grouped;
  grouped.chunk_group_size = 10;
  const auto sets =
      find_reconstruction_sets(layout, stf, healthy, 4, grouped);
  check_cover(layout, stf, healthy, 4, sets);
  // Grouping can only fragment: at least ceil(U / group) sets.
  const size_t u = layout.chunks_on(stf).size();
  EXPECT_GE(sets.size(), (u + 9) / 10);
}

TEST(ReconSets, MaxSetSizeCapRespected) {
  Rng rng(6);
  const auto layout = StripeLayout::random(40, 5, 300, rng);
  NodeId stf = 0;
  for (NodeId n = 1; n < 40; ++n) {
    if (layout.load(n) > layout.load(stf)) stf = n;
  }
  const auto healthy = healthy_except(40, stf);
  ReconSetOptions capped;
  capped.max_set_size = 3;
  const auto sets =
      find_reconstruction_sets(layout, stf, healthy, 4, capped);
  check_cover(layout, stf, healthy, 4, sets);
  for (const auto& set : sets) EXPECT_LE(set.size(), 3u);
}

TEST(ReconSets, SingleChunk) {
  StripeLayout layout(6, 4);
  layout.add_stripe({0, 1, 2, 3});
  const auto healthy = healthy_except(6, 0);
  const auto sets =
      find_reconstruction_sets(layout, 0, healthy, 3, ReconSetOptions{});
  ASSERT_EQ(sets.size(), 1u);
  EXPECT_EQ(sets[0].size(), 1u);
}

TEST(ReconSets, EmptyStfNode) {
  StripeLayout layout(6, 3);
  layout.add_stripe({1, 2, 3});  // node 0 holds nothing
  const auto healthy = healthy_except(6, 0);
  const auto sets =
      find_reconstruction_sets(layout, 0, healthy, 2, ReconSetOptions{});
  EXPECT_TRUE(sets.empty());
}

TEST(ReconSets, InsufficientHealthySourcesRejected) {
  // Stripe with only k-1 surviving chunk holders.
  StripeLayout layout(5, 4);
  layout.add_stripe({0, 1, 2, 3});
  // Healthy list excludes node 3 as well as the STF node 0.
  std::vector<NodeId> healthy = {1, 2, 4};
  EXPECT_THROW(
      find_reconstruction_sets(layout, 0, healthy, 3, ReconSetOptions{}),
      CheckFailure);
}

/// The Fig. 15 family (bench_fig15_microbench): the STF node 0 stores
/// exactly `num_chunks` chunks, every stripe pinning node 0 plus n-1
/// random others.
StripeLayout pinned_layout(int num_nodes, int n, int num_chunks,
                           uint64_t seed) {
  Rng rng(seed);
  StripeLayout layout(num_nodes, n);
  for (int s = 0; s < num_chunks; ++s) {
    std::vector<NodeId> nodes = {0};
    for (int p : rng.sample_distinct(num_nodes - 1, n - 1)) {
      nodes.push_back(p + 1);
    }
    layout.add_stripe(nodes);
  }
  return layout;
}

uint64_t sets_digest(const std::vector<std::vector<ChunkRef>>& sets) {
  uint64_t hash = 14695981039346656037ULL;
  const auto add = [&](int64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= static_cast<uint8_t>(static_cast<uint64_t>(value) >>
                                   (8 * byte));
      hash *= 1099511628211ULL;
    }
  };
  add(static_cast<int64_t>(sets.size()));
  for (const auto& set : sets) {
    add(static_cast<int64_t>(set.size()));
    for (ChunkRef c : set) {
      add(c.stripe);
      add(c.index);
    }
  }
  return hash;
}

struct RecordedRun {
  std::string name;
  uint64_t digest;
  long match_calls;
  long swaps;
  long sweep_adds;
};

TEST(ReconSets, SwapPassReproducesRecordedSetsAndStats) {
  // Algorithm 1's output and work counters, recorded with the serial
  // swap pass: the ordered sets (FNV-1a), match_calls, swaps and
  // sweep_adds. M = 100 sources give swap passes of up to 16 rows, which
  // the 28-node plan digests never reach. Re-record only for an
  // intended change in Algorithm 1's output.
  constexpr int kM = 100;
  const ec::LrcCode lrc(12, 2, 2);
  const net::Topology racks(10, 10, net::Oversub(4.0));
  const auto healthy = healthy_except(kM, 0);

  struct Case {
    std::string name;
    int n;
    int chunks;
    uint64_t seed;
    ReconSetOptions options;
    const ec::ErasureCode* code;
  };
  std::vector<Case> cases;
  for (int chunks : {60, 120, 228}) {
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      cases.push_back({"rs96 C" + std::to_string(chunks) + " seed" +
                           std::to_string(seed),
                       9, chunks, seed, {}, nullptr});
    }
  }
  for (uint64_t seed = 1; seed <= 2; ++seed) {
    const std::string tail = " C120 seed" + std::to_string(seed);
    ReconSetOptions capped;
    capped.max_set_size = 5;
    cases.push_back({"rs96 max5" + tail, 9, 120, seed, capped, nullptr});
    ReconSetOptions grouped;
    grouped.chunk_group_size = 50;
    cases.push_back({"rs96 group50" + tail, 9, 120, seed, grouped, nullptr});
    cases.push_back({"lrc1222" + tail, 16, 120, seed, {}, &lrc});
    ReconSetOptions racked;
    racked.topology = &racks;
    racked.deprioritized = {17, 42};
    cases.push_back({"rs96 racked depri" + tail, 9, 120, seed, racked,
                     nullptr});
  }

  // clang-format off
  const std::vector<RecordedRun> recorded = {
      {"rs96 C60 seed1", 0x854069f2c244762bULL, 22601, 7, 0},
      {"rs96 C60 seed2", 0x5f07c82243e6a480ULL, 25061, 8, 0},
      {"rs96 C60 seed3", 0x99c30fd021b633edULL, 23899, 9, 0},
      {"rs96 C60 seed4", 0x54be1b560209d0a9ULL, 16827, 5, 0},
      {"rs96 C120 seed1", 0x5f7232329f241f04ULL, 121421, 13, 0},
      {"rs96 C120 seed2", 0x7eeb884323306907ULL, 130011, 13, 0},
      {"rs96 C120 seed3", 0x573dcbd7ee6de05ULL, 128432, 14, 0},
      {"rs96 C120 seed4", 0x7d479e44103b3d23ULL, 106526, 11, 0},
      {"rs96 C228 seed1", 0x576c13935ff792f1ULL, 754948, 28, 0},
      {"rs96 C228 seed2", 0xb1ae43a021755f5bULL, 755053, 28, 0},
      {"rs96 C228 seed3", 0x63be086be946f9d1ULL, 667588, 26, 0},
      {"rs96 C228 seed4", 0xa9f2372340f4eeb4ULL, 643584, 28, 0},
      {"rs96 max5 C120 seed1", 0xdcfc33fcf23c0e5dULL, 120, 0, 0},
      {"rs96 group50 C120 seed1", 0x2e20514cadef4a80ULL, 28124, 9, 0},
      {"lrc1222 C120 seed1", 0x9bea1baace01a55ULL, 18112, 8, 0},
      {"rs96 racked depri C120 seed1", 0x5f7232329f241f04ULL, 121421, 13, 0},
      {"rs96 max5 C120 seed2", 0xc5d6a1ee916fcebdULL, 121, 0, 0},
      {"rs96 group50 C120 seed2", 0xe228180e9c599604ULL, 21536, 10, 0},
      {"lrc1222 C120 seed2", 0x878dfb98e6e37bbeULL, 21788, 10, 0},
      {"rs96 racked depri C120 seed2", 0x7eeb884323306907ULL, 130011, 13, 0},
  };
  // clang-format on

  std::vector<RecordedRun> actual;
  for (const Case& c : cases) {
    const auto layout = pinned_layout(kM, c.n, c.chunks, c.seed);
    ReconSetStats stats;
    const auto sets = find_reconstruction_sets(layout, 0, healthy, 6,
                                               c.options, &stats, c.code);
    actual.push_back({c.name, sets_digest(sets), stats.match_calls,
                      stats.swaps, stats.sweep_adds});
  }
  ASSERT_EQ(actual.size(), recorded.size());
  for (size_t i = 0; i < actual.size(); ++i) {
    const RecordedRun& got = actual[i];
    const RecordedRun& want = recorded[i];
    SCOPED_TRACE(got.name);
    EXPECT_EQ(got.name, want.name);
    EXPECT_EQ(got.digest, want.digest)
        << "now: {\"" << got.name << "\", 0x" << std::hex << got.digest
        << std::dec << "ULL, " << got.match_calls << ", " << got.swaps
        << ", " << got.sweep_adds << "},";
    EXPECT_EQ(got.match_calls, want.match_calls);
    EXPECT_EQ(got.swaps, want.swaps);
    EXPECT_EQ(got.sweep_adds, want.sweep_adds);
  }
}

TEST(ReconSets, ConcurrentCallersGetIdenticalSets) {
  // Each call owns its swap-pass helpers: four callers at once must each
  // get the single-threaded result, with no shared state between calls.
  constexpr int kM = 100;
  const auto layout = pinned_layout(kM, 9, 120, 1);
  const auto healthy = healthy_except(kM, 0);

  ReconSetStats want_stats;
  const auto want =
      find_reconstruction_sets(layout, 0, healthy, 6, {}, &want_stats);
  ASSERT_GT(want_stats.swaps, 0);

  constexpr int kCallers = 4;
  std::vector<std::vector<std::vector<ChunkRef>>> got(kCallers);
  std::vector<ReconSetStats> got_stats(kCallers);
  std::vector<std::thread> callers;
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&, t] {
      got[static_cast<size_t>(t)] = find_reconstruction_sets(
          layout, 0, healthy, 6, {}, &got_stats[static_cast<size_t>(t)]);
    });
  }
  for (auto& caller : callers) caller.join();
  for (int t = 0; t < kCallers; ++t) {
    SCOPED_TRACE("caller " + std::to_string(t));
    const ReconSetStats& stats = got_stats[static_cast<size_t>(t)];
    EXPECT_EQ(got[static_cast<size_t>(t)], want);
    EXPECT_EQ(stats.match_calls, want_stats.match_calls);
    EXPECT_EQ(stats.swaps, want_stats.swaps);
    EXPECT_EQ(stats.sweep_adds, want_stats.sweep_adds);
    // swap_rows_discarded depends on thread timing; every other counter
    // is the serial loop's.
    EXPECT_EQ(stats.swap_rows, want_stats.swap_rows);
  }
}

}  // namespace
}  // namespace fastpr::core
