// Simulator: paper-model round times match §III arithmetic; strategy
// ordering invariants (optimum <= FastPR <= baselines) hold end to end.
#include "sim/simulator.h"
#include "sim/strategies.h"

#include <gtest/gtest.h>

#include "util/check.h"
#include "util/units.h"

namespace fastpr::sim {
namespace {

using cluster::ChunkRef;

SimParams paper_params(core::Scenario scenario) {
  SimParams p;
  p.chunk_bytes = static_cast<double>(MB(64));
  p.disk_bw = MBps(100);
  p.net_bw = Gbps(1);
  p.k_repair = 6;
  p.hot_standby = 3;
  p.scenario = scenario;
  return p;
}

core::RepairRound round_with(int reconstructions, int migrations) {
  core::RepairRound round;
  for (int i = 0; i < reconstructions; ++i) {
    core::ReconstructionTask t;
    t.chunk = ChunkRef{i, 0};
    for (int s = 0; s < 6; ++s) {
      t.sources.push_back(core::SourceRead{10 + i * 6 + s, {i, s + 1}});
    }
    t.dst = 100 + i;
    round.reconstructions.push_back(std::move(t));
  }
  for (int i = 0; i < migrations; ++i) {
    round.migrations.push_back(
        core::MigrationTask{ChunkRef{50 + i, 0}, 0, 200 + i});
  }
  return round;
}

TEST(Simulator, MigrationOnlyRoundTimeIsCountTimesTm) {
  const auto p = paper_params(core::Scenario::kScattered);
  core::RepairPlan plan;
  plan.stf_node = 0;
  plan.rounds.push_back(round_with(0, 7));
  const auto result = simulate(plan, p);
  const double tm = 0.64 + 64.0 * (1 << 20) / (1e9 / 8) + 0.64;
  EXPECT_NEAR(result.total_time, 7 * tm, 1e-9);
  EXPECT_EQ(result.migrated, 7);
  EXPECT_EQ(result.repair_traffic_chunks, 7);
}

TEST(Simulator, ScatteredReconstructionRoundTimeIsTr) {
  const auto p = paper_params(core::Scenario::kScattered);
  core::RepairPlan plan;
  plan.stf_node = 0;
  plan.rounds.push_back(round_with(5, 0));
  const auto result = simulate(plan, p);
  const double c_bn = 64.0 * (1 << 20) / (1e9 / 8);
  EXPECT_NEAR(result.total_time, 0.64 + 6 * c_bn + 0.64, 1e-9);
  EXPECT_EQ(result.repair_traffic_chunks, 30);  // 5 chunks × k=6
}

TEST(Simulator, CoupledRoundTakesMaxOfStreams) {
  const auto p = paper_params(core::Scenario::kScattered);
  core::RepairPlan plan;
  plan.stf_node = 0;
  plan.rounds.push_back(round_with(3, 10));  // migration dominates
  const auto result = simulate(plan, p);
  const double tm = 0.64 + 64.0 * (1 << 20) / (1e9 / 8) + 0.64;
  EXPECT_NEAR(result.total_time, 10 * tm, 1e-9);
}

TEST(Simulator, HotStandbyRoundScalesWithGroupSize) {
  const auto p = paper_params(core::Scenario::kHotStandby);
  core::RepairPlan plan;
  plan.stf_node = 0;
  plan.rounds.push_back(round_with(9, 0));
  const auto result = simulate(plan, p);
  const double c_bn = 64.0 * (1 << 20) / (1e9 / 8);
  const double expected = 0.64 + 9.0 * 6 * c_bn / 3 + 9.0 * 0.64 / 3;
  EXPECT_NEAR(result.total_time, expected, 1e-9);
}

TEST(Simulator, RoundTimesAccumulate) {
  const auto p = paper_params(core::Scenario::kScattered);
  core::RepairPlan plan;
  plan.stf_node = 0;
  plan.rounds.push_back(round_with(2, 0));
  plan.rounds.push_back(round_with(0, 3));
  const auto result = simulate(plan, p);
  ASSERT_EQ(result.round_times.size(), 2u);
  EXPECT_NEAR(result.total_time,
              result.round_times[0] + result.round_times[1], 1e-12);
}

TEST(Simulator, ChainRoundTimesMatchCostModelExactly) {
  // Simulated chain rounds and CostModel::round_time(.., kChain) use the
  // same closed form — the agreement must be bit-exact, not approximate,
  // so predicted-vs-simulated diffs stay clean.
  for (auto scenario :
       {core::Scenario::kScattered, core::Scenario::kHotStandby}) {
    auto p = paper_params(scenario);
    p.packet_bytes = static_cast<double>(256 * kKiB);
    p.chain_hop_overhead_seconds = 500e-6;

    core::ModelParams mp;
    mp.num_nodes = 100;
    mp.stf_chunks = 100;
    mp.chunk_bytes = p.chunk_bytes;
    mp.disk_bw = p.disk_bw;
    mp.net_bw = p.net_bw;
    mp.k_repair = p.k_repair;
    mp.hot_standby = p.hot_standby;
    mp.scenario = scenario;
    mp.packet_bytes = p.packet_bytes;
    mp.chain_hop_overhead_seconds = p.chain_hop_overhead_seconds;
    const core::CostModel model(mp);

    core::RepairPlan plan;
    plan.stf_node = 0;
    const std::vector<std::pair<int, int>> rounds = {
        {5, 0}, {3, 4}, {1, 9}};
    for (const auto& [cr, cm] : rounds) {
      auto round = round_with(cr, cm);
      round.strategy = core::RepairStrategy::kChain;
      plan.rounds.push_back(std::move(round));
    }
    const auto result = simulate(plan, p);
    ASSERT_EQ(result.round_times.size(), rounds.size());
    for (size_t i = 0; i < rounds.size(); ++i) {
      EXPECT_DOUBLE_EQ(
          result.round_times[i],
          model.round_time(rounds[i].first, rounds[i].second,
                           core::RepairStrategy::kChain))
          << "scenario=" << core::to_string(scenario) << " round=" << i;
    }
  }
}

TEST(Simulator, ChainRoundRequiresPacketBytes) {
  auto p = paper_params(core::Scenario::kScattered);  // packet_bytes = 0
  core::RepairPlan plan;
  plan.stf_node = 0;
  auto round = round_with(2, 0);
  round.strategy = core::RepairStrategy::kChain;
  plan.rounds.push_back(std::move(round));
  EXPECT_THROW(simulate(plan, p), CheckFailure);
}

TEST(Simulator, ResourceModelNotSlowerThanPaperForMigrations) {
  // The resource model overlaps migration stages across chunks, so it
  // can only be faster than the serial per-chunk paper model.
  auto p = paper_params(core::Scenario::kScattered);
  core::RepairPlan plan;
  plan.stf_node = 0;
  plan.rounds.push_back(round_with(0, 8));
  const auto paper = simulate(plan, p);
  p.model = TimingModel::kResourceModel;
  const auto resource = simulate(plan, p);
  EXPECT_LE(resource.total_time, paper.total_time * (1 + 1e-9));
  EXPECT_GT(resource.total_time, 0);
}

class StrategyOrderingTest
    : public ::testing::TestWithParam<core::Scenario> {};

TEST_P(StrategyOrderingTest, OptimumBelowFastPrBelowBaselines) {
  ExperimentConfig cfg;
  cfg.num_nodes = 60;
  cfg.num_stripes = 400;
  cfg.n = 9;
  cfg.k = 6;
  cfg.chunk_bytes = static_cast<double>(MB(64));
  cfg.disk_bw = MBps(100);
  cfg.net_bw = Gbps(1);
  cfg.hot_standby = 3;
  cfg.scenario = GetParam();
  cfg.seed = 5;
  const auto t = run_experiment(cfg);
  EXPECT_GT(t.stf_chunks, 0);
  EXPECT_LE(t.optimum, t.fastpr * 1.001);
  EXPECT_LE(t.fastpr, t.reconstruction_only * 1.001);
  EXPECT_LE(t.fastpr, t.migration_only * 1.001);
}

INSTANTIATE_TEST_SUITE_P(Scenarios, StrategyOrderingTest,
                         ::testing::Values(core::Scenario::kScattered,
                                           core::Scenario::kHotStandby),
                         [](const auto& info) {
                           return info.param == core::Scenario::kScattered
                                      ? "scattered"
                                      : "hotstandby";
                         });

TEST(Strategies, AveragingIsDeterministicPerSeed) {
  ExperimentConfig cfg;
  cfg.num_nodes = 30;
  cfg.num_stripes = 150;
  cfg.n = 6;
  cfg.k = 4;
  cfg.chunk_bytes = static_cast<double>(MB(16));
  cfg.disk_bw = MBps(100);
  cfg.net_bw = Gbps(1);
  cfg.seed = 77;
  const auto a = run_averaged(cfg, 3);
  const auto b = run_averaged(cfg, 3);
  EXPECT_DOUBLE_EQ(a.fastpr, b.fastpr);
  EXPECT_DOUBLE_EQ(a.optimum, b.optimum);
}

}  // namespace
}  // namespace fastpr::sim
