// Round placement: source matching distinctness, scattered destination
// fault tolerance, hot-standby round-robin.
#include "core/placement.h"

#include <gtest/gtest.h>

#include "core/recon_sets.h"

#include <set>

#include "util/rng.h"

namespace fastpr::core {
namespace {

using cluster::ChunkRef;
using cluster::NodeId;
using cluster::StripeLayout;

struct Fixture {
  StripeLayout layout;
  NodeId stf;
  std::vector<NodeId> sources;
  std::vector<NodeId> dests;

  static Fixture random(int num_nodes, int n, int stripes, uint64_t seed) {
    Rng rng(seed);
    Fixture f{StripeLayout::random(num_nodes, n, stripes, rng), 0, {}, {}};
    for (NodeId node = 1; node < num_nodes; ++node) {
      if (f.layout.load(node) > f.layout.load(f.stf)) f.stf = node;
    }
    for (NodeId node = 0; node < num_nodes; ++node) {
      if (node != f.stf) {
        f.sources.push_back(node);
        f.dests.push_back(node);
      }
    }
    return f;
  }
};

TEST(Placement, SourcesDistinctWithinRound) {
  auto f = Fixture::random(30, 6, 200, 1);
  const int k = 4;
  // Use a genuine reconstruction set so the round is matchable by
  // construction (Algorithm 1's guarantee the placement relies on).
  const auto sets = find_reconstruction_sets(f.layout, f.stf, f.sources, k,
                                             ReconSetOptions{});
  ASSERT_FALSE(sets.empty());
  ScheduledRound round;
  round.reconstruct = sets.front();
  int cursor = 0;
  const auto assigned =
      assign_round(f.layout, {f.stf}, f.sources, f.dests,
                   Scenario::kScattered, k, round, &cursor);
  std::set<NodeId> read_nodes;
  for (const auto& task : assigned.reconstructions) {
    ASSERT_EQ(task.sources.size(), 4u);
    for (const auto& src : task.sources) {
      EXPECT_TRUE(read_nodes.insert(src.node).second)
          << "node reads twice in one round";
      // The helper really lives there and belongs to the right stripe.
      EXPECT_EQ(f.layout.node_of(src.chunk), src.node);
      EXPECT_EQ(src.chunk.stripe, task.chunk.stripe);
      EXPECT_NE(src.node, f.stf);
    }
  }
}

TEST(Placement, ScatteredDestinationsPreserveFaultTolerance) {
  auto f = Fixture::random(30, 6, 200, 2);
  const auto sets = find_reconstruction_sets(f.layout, f.stf, f.sources, 4,
                                             ReconSetOptions{});
  ASSERT_FALSE(sets.empty());
  ScheduledRound round;
  round.reconstruct = sets.front();
  if (round.reconstruct.size() > 3) round.reconstruct.resize(3);
  const auto chunks = f.layout.chunks_on(f.stf);
  for (ChunkRef c : chunks) {
    if (round.migrate.size() >= 3) break;
    if (std::find(round.reconstruct.begin(), round.reconstruct.end(), c) ==
        round.reconstruct.end()) {
      round.migrate.push_back(c);
    }
  }
  int cursor = 0;
  const auto assigned =
      assign_round(f.layout, {f.stf}, f.sources, f.dests,
                   Scenario::kScattered, 4, round, &cursor);
  std::set<NodeId> dests;
  auto check_dst = [&](ChunkRef chunk, NodeId dst) {
    EXPECT_NE(dst, f.stf);
    EXPECT_FALSE(f.layout.stripe_uses_node(chunk.stripe, dst))
        << "destination already holds a chunk of the stripe";
    EXPECT_TRUE(dests.insert(dst).second) << "destination reused in round";
  };
  for (const auto& t : assigned.reconstructions) check_dst(t.chunk, t.dst);
  for (const auto& t : assigned.migrations) check_dst(t.chunk, t.dst);
  EXPECT_EQ(assigned.migrations.size(), round.migrate.size());
}

TEST(Placement, HotStandbyRoundRobinAcrossRounds) {
  auto f = Fixture::random(20, 5, 100, 3);
  const std::vector<NodeId> spares = {20, 21, 22};
  int cursor = 0;
  std::vector<int> uses(3, 0);
  for (int round_idx = 0; round_idx < 3; ++round_idx) {
    ScheduledRound round;
    const auto chunks = f.layout.chunks_on(f.stf);
    round.reconstruct.push_back(chunks[static_cast<size_t>(round_idx)]);
    round.migrate.push_back(chunks[static_cast<size_t>(round_idx + 3)]);
    const auto assigned =
        assign_round(f.layout, {f.stf}, f.sources, spares,
                     Scenario::kHotStandby, 3, round, &cursor);
    for (const auto& t : assigned.reconstructions) {
      ++uses[static_cast<size_t>(t.dst - 20)];
    }
    for (const auto& t : assigned.migrations) {
      ++uses[static_cast<size_t>(t.dst - 20)];
    }
  }
  // 6 repairs over 3 spares: perfectly even.
  EXPECT_EQ(uses, (std::vector<int>{2, 2, 2}));
}

TEST(Placement, EmptyRound) {
  auto f = Fixture::random(15, 4, 50, 4);
  int cursor = 0;
  const auto assigned =
      assign_round(f.layout, {f.stf}, f.sources, f.dests,
                   Scenario::kScattered, 3, ScheduledRound{}, &cursor);
  EXPECT_TRUE(assigned.reconstructions.empty());
  EXPECT_TRUE(assigned.migrations.empty());
}

}  // namespace
}  // namespace fastpr::core
