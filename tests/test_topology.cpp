// Topology-aware repair (DESIGN.md §11): the rack model itself
// (Oversub validation, the "<racks>x<nodes>" parser, the block
// mapping), the flat-reduction differentials — a single-rack topology
// must be BIT-IDENTICAL to no topology, oversubscription 1.0 must
// leave every cost prediction EXPECT_DOUBLE_EQ-equal to the flat
// closed forms — and the structural plan-around of
// plan_fastpr_remaining (deprioritized helpers serve zero reads when
// the stripes allow it, and repairability survives when they don't).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "cluster/cluster_state.h"
#include "cluster/stripe_layout.h"
#include "core/cost_model.h"
#include "core/fastpr.h"
#include "core/repair_plan.h"
#include "ec/rs_code.h"
#include "net/topology.h"
#include "sim/simulator.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/units.h"

namespace fastpr {
namespace {

using cluster::ChunkRef;
using cluster::NodeId;

TEST(Oversub, ValidatesAndPassesThrough) {
  EXPECT_EQ(net::Oversub(1.0), 1.0);
  EXPECT_EQ(net::Oversub(4.0), 4.0);
  // f < 1 would mean the spine outruns the racks it aggregates.
  EXPECT_THROW(net::Oversub(0.99), CheckFailure);
  EXPECT_THROW(net::Oversub(0.0), CheckFailure);
  EXPECT_THROW(net::Oversub(-2.0), CheckFailure);
}

TEST(Topology, BlockMappingAndOverflowRacks) {
  const net::Topology topo(4, 6, net::Oversub(2.0));
  EXPECT_EQ(topo.racks(), 4);
  EXPECT_EQ(topo.nodes_per_rack(), 6);
  EXPECT_EQ(topo.num_nodes(), 24);
  EXPECT_FALSE(topo.is_flat());
  EXPECT_EQ(topo.rack_of(0), 0);
  EXPECT_EQ(topo.rack_of(5), 0);
  EXPECT_EQ(topo.rack_of(6), 1);
  EXPECT_EQ(topo.rack_of(23), 3);
  // Ids past racks() * nodes_per_rack() (spares, coordinator) land in
  // overflow racks through the same formula.
  EXPECT_EQ(topo.rack_of(24), 4);
  EXPECT_EQ(topo.rack_of(29), 4);
  EXPECT_EQ(topo.rack_of(30), 5);
  EXPECT_TRUE(topo.same_rack(0, 5));
  EXPECT_FALSE(topo.same_rack(5, 6));
  EXPECT_DOUBLE_EQ(topo.cross_rack_penalty(), 2.0);
  // Shared uplink: nodes_per_rack * bn / f.
  EXPECT_DOUBLE_EQ(topo.rack_link_capacity(Gbps(1)),
                   6.0 * Gbps(1) / 2.0);
}

TEST(Topology, FlatAndSingleRack) {
  const auto flat = net::Topology::flat(10);
  EXPECT_TRUE(flat.is_flat());
  EXPECT_EQ(flat.racks(), 1);
  EXPECT_EQ(flat.nodes_per_rack(), 10);
  EXPECT_DOUBLE_EQ(flat.oversubscription(), 1.0);
  // One rack is flat regardless of f: no transfer ever crosses racks.
  EXPECT_TRUE(net::Topology(1, 24, net::Oversub(8.0)).is_flat());
  EXPECT_FALSE(net::Topology(2, 1, net::Oversub(1.0)).is_flat());
}

TEST(Topology, ParseAcceptsSpecAndRejectsMalformed) {
  const auto topo = net::Topology::parse("4x6", net::Oversub(2.0));
  EXPECT_EQ(topo.racks(), 4);
  EXPECT_EQ(topo.nodes_per_rack(), 6);
  EXPECT_DOUBLE_EQ(topo.oversubscription(), 2.0);
  for (const char* bad : {"", "4", "4x", "x6", "0x6", "4x0", "ax6"}) {
    SCOPED_TRACE(std::string("spec \"") + bad + "\"");
    EXPECT_THROW(net::Topology::parse(bad, net::Oversub(1.0)),
                 CheckFailure);
  }
}

core::ModelParams base_params() {
  core::ModelParams p;
  p.num_nodes = 48;
  p.stf_chunks = 200;
  p.chunk_bytes = static_cast<double>(MB(64));
  p.disk_bw = MBps(100);
  p.net_bw = Gbps(1);
  p.k_repair = 6;
  return p;
}

TEST(TopologyCostModel, OversubOneReducesExactlyToFlatForms) {
  // With f = 1 the cross-rack multiplier is exactly 1: even fully
  // cross-rack traffic prices identically to Equations 1-6.
  const core::CostModel flat{base_params()};
  auto p = base_params();
  p.oversubscription = net::Oversub(1.0);
  p.cross_rack_helper_fraction = 1.0;
  p.cross_rack_migration_fraction = 1.0;
  const core::CostModel racked{p};
  EXPECT_DOUBLE_EQ(racked.tm(), flat.tm());
  for (const double g : {1.0, 3.0, 7.0}) {
    EXPECT_DOUBLE_EQ(racked.tr(g), flat.tr(g));
  }
}

TEST(TopologyCostModel, ZeroCrossRackFractionsReduceExactly) {
  // Conversely, f > 1 with no traffic crossing racks is also flat.
  const core::CostModel flat{base_params()};
  auto p = base_params();
  p.oversubscription = net::Oversub(8.0);
  const core::CostModel racked{p};
  EXPECT_DOUBLE_EQ(racked.tm(), flat.tm());
  EXPECT_DOUBLE_EQ(racked.tr(3.0), flat.tr(3.0));
}

TEST(TopologyCostModel, CrossRackTrafficIsChargedThePenalty) {
  const core::CostModel flat{base_params()};
  auto helper = base_params();
  helper.oversubscription = net::Oversub(4.0);
  helper.cross_rack_helper_fraction = 1.0;
  const core::CostModel helper_racked{helper};
  // Helper traffic feeds reconstruction, not migration.
  EXPECT_DOUBLE_EQ(helper_racked.tm(), flat.tm());
  EXPECT_GT(helper_racked.tr(3.0), flat.tr(3.0));

  auto migration = base_params();
  migration.oversubscription = net::Oversub(4.0);
  migration.cross_rack_migration_fraction = 1.0;
  const core::CostModel migration_racked{migration};
  EXPECT_GT(migration_racked.tm(), flat.tm());
  EXPECT_DOUBLE_EQ(migration_racked.tr(3.0), flat.tr(3.0));
}

/// Field-by-field plan equality.
void expect_plans_identical(const core::RepairPlan& a,
                            const core::RepairPlan& b) {
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  EXPECT_EQ(a.stf_node, b.stf_node);
  for (size_t r = 0; r < a.rounds.size(); ++r) {
    SCOPED_TRACE("round " + std::to_string(r));
    const auto& ra = a.rounds[r];
    const auto& rb = b.rounds[r];
    ASSERT_EQ(ra.migrations.size(), rb.migrations.size());
    for (size_t i = 0; i < ra.migrations.size(); ++i) {
      EXPECT_EQ(ra.migrations[i].chunk, rb.migrations[i].chunk);
      EXPECT_EQ(ra.migrations[i].src, rb.migrations[i].src);
      EXPECT_EQ(ra.migrations[i].dst, rb.migrations[i].dst);
    }
    ASSERT_EQ(ra.reconstructions.size(), rb.reconstructions.size());
    for (size_t i = 0; i < ra.reconstructions.size(); ++i) {
      const auto& task_a = ra.reconstructions[i];
      const auto& task_b = rb.reconstructions[i];
      EXPECT_EQ(task_a.chunk, task_b.chunk);
      EXPECT_EQ(task_a.dst, task_b.dst);
      ASSERT_EQ(task_a.sources.size(), task_b.sources.size());
      for (size_t s = 0; s < task_a.sources.size(); ++s) {
        EXPECT_EQ(task_a.sources[s].node, task_b.sources[s].node);
        EXPECT_EQ(task_a.sources[s].chunk, task_b.sources[s].chunk);
      }
    }
  }
}

TEST(TopologyDifferential, SingleRackPlansBitIdenticalToFlat) {
  // A single-rack topology (any f) must leave the whole planning
  // pipeline on the legacy code path: bit-identical plans and
  // EXPECT_DOUBLE_EQ-equal cost predictions, for both scenarios.
  for (auto scenario :
       {core::Scenario::kScattered, core::Scenario::kHotStandby}) {
    SCOPED_TRACE(core::to_string(scenario));
    Rng rng(7);
    const auto layout = cluster::StripeLayout::random(
        /*num_nodes=*/20, /*chunks_per_stripe=*/9, /*num_stripes=*/100,
        rng);
    cluster::ClusterState state(
        20, /*num_hot_standby=*/3,
        cluster::BandwidthProfile{MBps(100), Gbps(1)});
    NodeId stf = 0;
    for (NodeId node = 1; node < 20; ++node) {
      if (layout.load(node) > layout.load(stf)) stf = node;
    }
    state.set_health(stf, cluster::NodeHealth::kSoonToFail);

    core::PlannerOptions options;
    options.scenario = scenario;
    options.k_repair = 6;
    options.chunk_bytes = static_cast<double>(MB(64));
    core::FastPrPlanner flat(layout, state, options);

    const net::Topology single_rack(1, 20, net::Oversub(8.0));
    auto racked_options = options;
    racked_options.topology = &single_rack;
    core::FastPrPlanner racked(layout, state, racked_options);

    expect_plans_identical(flat.plan_fastpr(), racked.plan_fastpr());
    const auto cm_flat = flat.cost_model();
    const auto cm_racked = racked.cost_model();
    EXPECT_DOUBLE_EQ(cm_flat.tm(), cm_racked.tm());
    EXPECT_DOUBLE_EQ(cm_flat.tr(3.0), cm_racked.tr(3.0));
  }
}

TEST(TopologyDifferential, MultiRackOversubOneCostsMatchFlat) {
  // Multi-rack at f = 1: the plan may differ (the failure-domain
  // invariant binds), but every cost prediction and the racked
  // simulator's replay must price both plans identically — the rack
  // terms vanish by construction.
  ec::RsCode code(9, 6);
  Rng rng(3);
  const int num_storage = 48;
  const auto layout = cluster::StripeLayout::random_racked(
      num_storage, code.n(), /*num_stripes=*/120, /*nodes_per_rack=*/4,
      rng);
  cluster::ClusterState state(
      num_storage, 3, cluster::BandwidthProfile{MBps(100), Gbps(1)});
  NodeId stf = 0;
  for (NodeId node = 1; node < num_storage; ++node) {
    if (layout.load(node) > layout.load(stf)) stf = node;
  }
  state.set_health(stf, cluster::NodeHealth::kSoonToFail);
  const net::Topology topo(12, 4, net::Oversub(1.0));

  core::PlannerOptions options;
  options.scenario = core::Scenario::kScattered;
  options.k_repair = code.repair_fetch_count(0);
  options.chunk_bytes = static_cast<double>(MB(64));
  options.code = &code;
  core::FastPrPlanner flat(layout, state, options);
  auto racked_options = options;
  racked_options.topology = &topo;
  core::FastPrPlanner racked(layout, state, racked_options);

  const auto cm_flat = flat.cost_model();
  const auto cm_racked = racked.cost_model();
  EXPECT_DOUBLE_EQ(cm_flat.tm(), cm_racked.tm());
  EXPECT_DOUBLE_EQ(cm_flat.tr(5.0), cm_racked.tr(5.0));

  sim::SimParams sp;
  sp.chunk_bytes = static_cast<double>(MB(64));
  sp.disk_bw = MBps(100);
  sp.net_bw = Gbps(1);
  sp.k_repair = code.repair_fetch_count(0);
  sp.hot_standby = 3;
  sp.scenario = core::Scenario::kScattered;
  sp.topo_racks = 12;
  sp.topo_nodes_per_rack = 4;
  sp.oversubscription = net::Oversub(1.0);
  const double flat_total = sim::simulate(flat.plan_fastpr(), sp).total_time;
  const double rack_total =
      sim::simulate(racked.plan_fastpr(), sp).total_time;
  EXPECT_EQ(rack_total, flat_total);  // bit-identical, not just close
}

TEST(TopologyDifferential, MultiRackPlanSatisfiesRackInvariant) {
  ec::RsCode code(9, 6);
  Rng rng(5);
  const int num_storage = 24;
  const auto layout = cluster::StripeLayout::random_racked(
      num_storage, code.n(), /*num_stripes=*/80, /*nodes_per_rack=*/2,
      rng);
  cluster::ClusterState state(
      num_storage, 3, cluster::BandwidthProfile{MBps(100), Gbps(1)});
  NodeId stf = 0;
  for (NodeId node = 1; node < num_storage; ++node) {
    if (layout.load(node) > layout.load(stf)) stf = node;
  }
  state.set_health(stf, cluster::NodeHealth::kSoonToFail);
  const net::Topology topo(12, 2, net::Oversub(4.0));

  core::PlannerOptions options;
  options.scenario = core::Scenario::kScattered;
  options.k_repair = code.repair_fetch_count(0);
  options.chunk_bytes = static_cast<double>(MB(64));
  options.code = &code;
  options.topology = &topo;
  core::FastPrPlanner planner(layout, state, options);
  const auto plan = planner.plan_fastpr();
  EXPECT_EQ(plan.total_repaired(), layout.load(stf));
  // Throws CheckFailure if any rack ends up with two chunks of a stripe.
  core::validate_plan(plan, layout, state, options.k_repair, &code, &topo);
}

int reads_on(const core::RepairPlan& plan,
             const std::vector<NodeId>& nodes) {
  const std::set<NodeId> targets(nodes.begin(), nodes.end());
  int reads = 0;
  for (const auto& round : plan.rounds) {
    for (const auto& task : round.reconstructions) {
      for (const auto& read : task.sources) {
        reads += targets.count(read.node) != 0 ? 1 : 0;
      }
    }
  }
  return reads;
}

TEST(BandwidthReplanPlanning, DeprioritizedHelpersServeZeroReads) {
  // RS(9,6) on 24 nodes: dropping 2 of a stripe's 8 surviving helpers
  // still leaves >= 6, so EVERY chunk clears the structural
  // plan-around's fast-helper test and the replanned rounds must carry
  // exactly zero reads from the deprioritized nodes — not merely few
  // (the preference-only ordering cannot promise that once rounds
  // saturate; the reduced-source set formation does).
  ec::RsCode code(9, 6);
  Rng rng(11);
  const int num_storage = 24;
  const auto layout = cluster::StripeLayout::random_racked(
      num_storage, code.n(), /*num_stripes=*/80, /*nodes_per_rack=*/2,
      rng);
  cluster::ClusterState state(
      num_storage, 3, cluster::BandwidthProfile{MBps(100), Gbps(1)});
  std::vector<NodeId> by_load(num_storage);
  for (NodeId node = 0; node < num_storage; ++node) by_load[node] = node;
  std::stable_sort(by_load.begin(), by_load.end(),
                   [&](NodeId a, NodeId b) {
                     return layout.load(a) > layout.load(b);
                   });
  const NodeId stf = by_load[0];
  state.set_health(stf, cluster::NodeHealth::kSoonToFail);
  const std::vector<NodeId> stragglers{by_load[1], by_load[2]};
  const net::Topology topo(12, 2, net::Oversub(2.0));

  core::PlannerOptions options;
  options.scenario = core::Scenario::kScattered;
  options.k_repair = code.repair_fetch_count(0);
  options.chunk_bytes = static_cast<double>(MB(64));
  options.code = &code;
  options.topology = &topo;
  core::FastPrPlanner planner(layout, state, options);
  const auto plan = planner.plan_fastpr_remaining({}, stragglers);

  EXPECT_EQ(plan.total_repaired(), layout.load(stf));
  core::validate_plan(plan, layout, state, options.k_repair, &code, &topo);
  EXPECT_EQ(reads_on(plan, stragglers), 0);
  // Sanity: the normal plan DOES read from those heavily-loaded nodes,
  // so zero above reflects the plan-around, not a vacuous layout.
  EXPECT_GT(reads_on(planner.plan_fastpr(), stragglers), 0);
}

TEST(BandwidthReplanPlanning, IndispensableStragglerStillServes) {
  // RS(7,6): every stripe has exactly 6 surviving helpers — the bare
  // k' — so deprioritizing a helper of an STF stripe makes it
  // indispensable. The fallback path must keep reading from it rather
  // than sacrifice repairability.
  ec::RsCode code(7, 6);
  Rng rng(2);
  const int num_storage = 10;
  const auto layout = cluster::StripeLayout::random(
      num_storage, code.n(), /*num_stripes=*/20, rng);
  cluster::ClusterState state(
      num_storage, 2, cluster::BandwidthProfile{MBps(100), Gbps(1)});
  NodeId stf = 0;
  for (NodeId node = 1; node < num_storage; ++node) {
    if (layout.load(node) > layout.load(stf)) stf = node;
  }
  state.set_health(stf, cluster::NodeHealth::kSoonToFail);
  // A helper sharing a stripe with the STF node: indispensable there.
  NodeId straggler = -1;
  for (ChunkRef chunk : layout.chunks_on(stf)) {
    for (NodeId node = 0; node < num_storage; ++node) {
      if (node != stf && layout.stripe_uses_node(chunk.stripe, node)) {
        straggler = node;
        break;
      }
    }
    if (straggler >= 0) break;
  }
  ASSERT_GE(straggler, 0);

  core::PlannerOptions options;
  options.scenario = core::Scenario::kScattered;
  options.k_repair = code.repair_fetch_count(0);
  options.chunk_bytes = static_cast<double>(MB(64));
  options.code = &code;
  core::FastPrPlanner planner(layout, state, options);
  const auto plan = planner.plan_fastpr_remaining({}, {straggler});

  EXPECT_EQ(plan.total_repaired(), layout.load(stf));
  core::validate_plan(plan, layout, state, options.k_repair, &code);
  EXPECT_GT(reads_on(plan, {straggler}), 0);
}

}  // namespace
}  // namespace fastpr
