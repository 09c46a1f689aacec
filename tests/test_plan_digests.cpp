// Golden plan digests: every planning entry point, swept over batch
// size, code, topology, scenario, reconstruction strategy and
// destination balancing, must reproduce a recorded FNV-1a digest of its
// plan. A digest covers every round's strategy, every task's chunk, src
// and dst, every reconstruction's helper reads, and the planner's
// Algorithm-1 match_calls. The table pins the batch of one to the
// single-STF pipeline byte for byte (DESIGN.md §8) and pins B = 2, 3 to
// the joint and sequential batch plans as they were recorded.
//
// Configurations that cannot plan (for example a rack-disjoint round
// with no free rack left) are absent from the table and not run. On a
// mismatch the failure message prints the digest the code now produces;
// re-record only for an intended change in planner output.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/cluster_state.h"
#include "cluster/stripe_layout.h"
#include "core/fastpr.h"
#include "core/repair_plan.h"
#include "ec/lrc_code.h"
#include "ec/rs_code.h"
#include "net/topology.h"
#include "util/rng.h"
#include "util/units.h"

namespace fastpr {
namespace {

using cluster::ChunkRef;
using cluster::NodeId;

// 14 racks of 2: more racks than the widest stripe (LRC(6,2,2), n = 10),
// so a rack-disjoint destination stays available for batches of three.
constexpr int kRacks = 14;
constexpr int kNodesPerRack = 2;
constexpr int kStorage = kRacks * kNodesPerRack;
constexpr int kSpares = 3;
constexpr int kStripes = 60;
constexpr uint64_t kLayoutSeed = 11;

enum class Method {
  kFastPr,
  kSequential,
  kReconstructionOnly,
  kMigrationOnly,
  kFastPrRemaining,
  kReactive,
};

const char* method_name(Method m) {
  switch (m) {
    case Method::kFastPr: return "fastpr";
    case Method::kSequential: return "sequential";
    case Method::kReconstructionOnly: return "recon_only";
    case Method::kMigrationOnly: return "migration_only";
    case Method::kFastPrRemaining: return "fastpr_remaining";
    case Method::kReactive: return "reactive";
  }
  return "?";
}

struct Config {
  int batch = 1;
  bool lrc = false;
  bool racked = false;
  core::Scenario scenario = core::Scenario::kScattered;
  core::StrategyChoice strategy = core::StrategyChoice::kFanIn;
  bool balance = false;
};

std::string key_of(const Config& c, Method m) {
  return "B" + std::to_string(c.batch) + (c.lrc ? " lrc622" : " rs96") +
         (c.racked ? " racked " : " flat ") + core::to_string(c.scenario) +
         " " + core::to_string(c.strategy) +
         (c.balance ? " bal1 " : " bal0 ") + method_name(m);
}

/// Every swept configuration with the methods planned for it: the
/// joint and sequential batch plans at B = 1, 2, 3, and the single-STF
/// entry points at B = 1 only.
void for_each_case(const std::function<void(const Config&, Method)>& fn) {
  for (int batch = 1; batch <= 3; ++batch) {
    for (bool lrc : {false, true}) {
      for (bool racked : {false, true}) {
        for (auto scenario :
             {core::Scenario::kScattered, core::Scenario::kHotStandby}) {
          for (auto strategy :
               {core::StrategyChoice::kFanIn, core::StrategyChoice::kChain,
                core::StrategyChoice::kAuto}) {
            for (bool balance : {false, true}) {
              const Config c{batch, lrc, racked, scenario, strategy,
                             balance};
              fn(c, Method::kFastPr);
              fn(c, Method::kSequential);
              if (batch == 1) {
                fn(c, Method::kReconstructionOnly);
                fn(c, Method::kMigrationOnly);
                fn(c, Method::kFastPrRemaining);
                fn(c, Method::kReactive);
              }
            }
          }
        }
      }
    }
  }
}

/// The cluster a configuration plans on; the `batch` most-loaded nodes
/// are flagged soon-to-fail.
struct World {
  std::unique_ptr<ec::ErasureCode> code;
  net::Topology topology{kRacks, kNodesPerRack, net::Oversub(4.0)};
  cluster::StripeLayout layout;
  cluster::ClusterState state{kStorage, kSpares,
                              cluster::BandwidthProfile{MBps(100), Gbps(1)}};
  std::vector<NodeId> batch;
  core::PlannerOptions options;

  explicit World(const Config& c)
      : code(c.lrc ? std::unique_ptr<ec::ErasureCode>(
                         std::make_unique<ec::LrcCode>(6, 2, 2))
                   : std::make_unique<ec::RsCode>(9, 6)),
        layout(make_layout(c, code->n())) {
    std::vector<NodeId> nodes;
    for (NodeId node = 0; node < kStorage; ++node) nodes.push_back(node);
    std::stable_sort(nodes.begin(), nodes.end(), [this](NodeId a, NodeId b) {
      return layout.load(a) > layout.load(b);
    });
    batch.assign(nodes.begin(), nodes.begin() + c.batch);
    for (NodeId member : batch) {
      state.set_health(member, cluster::NodeHealth::kSoonToFail);
    }
    options.scenario = c.scenario;
    options.k_repair = code->repair_fetch_count(0);
    options.chunk_bytes = static_cast<double>(MB(64));
    options.packet_bytes = static_cast<double>(256 * kKiB);
    options.chain_hop_overhead_seconds = 0.002;
    options.code = code.get();
    options.balance_destinations = c.balance;
    options.topology = c.racked ? &topology : nullptr;
    options.sched.strategy = c.strategy;
  }

  static cluster::StripeLayout make_layout(const Config& c, int n) {
    Rng rng(kLayoutSeed);
    return c.racked ? cluster::StripeLayout::random_racked(
                          kStorage, n, kStripes, kNodesPerRack, rng)
                    : cluster::StripeLayout::random(kStorage, n, kStripes,
                                                    rng);
  }

  /// Healthy storage node with the most chunks (ties: lowest id).
  NodeId busiest_healthy() const {
    NodeId best = cluster::kNoNode;
    for (NodeId node : state.healthy_storage_nodes()) {
      if (best == cluster::kNoNode || layout.load(node) > layout.load(best)) {
        best = node;
      }
    }
    return best;
  }

  /// The first two chunks of the STF node, as if already repaired.
  std::vector<ChunkRef> handled() const {
    const auto chunks = layout.chunks_on(batch.front());
    return {chunks.begin(),
            chunks.begin() + std::min<ptrdiff_t>(
                                 2, static_cast<ptrdiff_t>(chunks.size()))};
  }
};

class Fnv1a {
 public:
  void add(int64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= static_cast<uint8_t>(static_cast<uint64_t>(value) >>
                                    (8 * byte));
      hash_ *= 1099511628211ULL;
    }
  }
  void add(ChunkRef chunk) {
    add(chunk.stripe);
    add(chunk.index);
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 14695981039346656037ULL;
};

uint64_t digest(const core::RepairPlan& plan, long match_calls) {
  Fnv1a h;
  h.add(static_cast<int64_t>(plan.rounds.size()));
  for (const auto& round : plan.rounds) {
    h.add(static_cast<int64_t>(round.strategy));
    h.add(static_cast<int64_t>(round.reconstructions.size()));
    for (const auto& task : round.reconstructions) {
      h.add(task.chunk);
      h.add(task.dst);
      h.add(static_cast<int64_t>(task.strategy));
      h.add(static_cast<int64_t>(task.sources.size()));
      for (const auto& read : task.sources) {
        h.add(read.node);
        h.add(read.chunk);
      }
    }
    h.add(static_cast<int64_t>(round.migrations.size()));
    for (const auto& task : round.migrations) {
      h.add(task.chunk);
      h.add(task.src);
      h.add(task.dst);
    }
  }
  h.add(match_calls);
  return h.value();
}

/// Plans one case on a fresh planner and digests the result.
uint64_t plan_digest(const Config& c, Method m) {
  const World w(c);
  core::FastPrPlanner planner(w.layout, w.state, w.options);
  core::RepairPlan plan;
  switch (m) {
    case Method::kFastPr: plan = planner.plan_fastpr(); break;
    case Method::kSequential: plan = planner.plan_sequential(); break;
    case Method::kReconstructionOnly:
      plan = planner.plan_reconstruction_only();
      break;
    case Method::kMigrationOnly: plan = planner.plan_migration_only(); break;
    case Method::kFastPrRemaining:
      plan = planner.plan_fastpr_remaining(w.handled(),
                                           {w.busiest_healthy()});
      break;
    case Method::kReactive: {
      const auto replan =
          planner.plan_reactive(w.handled(), {w.busiest_healthy()});
      Fnv1a h;
      h.add(static_cast<int64_t>(
          digest(replan.plan, planner.recon_stats().match_calls)));
      h.add(static_cast<int64_t>(replan.unrepairable.size()));
      h.add(replan.degraded_repairs);
      return h.value();
    }
  }
  return digest(plan, planner.recon_stats().match_calls);
}

// clang-format off
const std::unordered_map<std::string, uint64_t>& golden() {
  static const std::unordered_map<std::string, uint64_t> table = {
      {"B1 rs96 flat scattered fanin bal0 fastpr", 0x19a01b709da86e2aULL},
      {"B1 rs96 flat scattered fanin bal0 sequential", 0x19a01b709da86e2aULL},
      {"B1 rs96 flat scattered fanin bal0 recon_only", 0x4091d53742666bc8ULL},
      {"B1 rs96 flat scattered fanin bal0 migration_only", 0x45485387a25f2ce0ULL},
      {"B1 rs96 flat scattered fanin bal0 fastpr_remaining", 0x32b435a68d2626bbULL},
      {"B1 rs96 flat scattered fanin bal0 reactive", 0x23558b42f5fb6a15ULL},
      {"B1 rs96 flat scattered fanin bal1 fastpr", 0x1dce2130a6db0e7fULL},
      {"B1 rs96 flat scattered fanin bal1 sequential", 0x1dce2130a6db0e7fULL},
      {"B1 rs96 flat scattered fanin bal1 recon_only", 0xd65856ad5a10db6fULL},
      {"B1 rs96 flat scattered fanin bal1 migration_only", 0x6cff7a4d04359589ULL},
      {"B1 rs96 flat scattered fanin bal1 fastpr_remaining", 0x9ed28dbf8f60e172ULL},
      {"B1 rs96 flat scattered fanin bal1 reactive", 0x23558b42f5fb6a15ULL},
      {"B1 rs96 flat scattered chain bal0 fastpr", 0x14d82c1583d6fb67ULL},
      {"B1 rs96 flat scattered chain bal0 sequential", 0x14d82c1583d6fb67ULL},
      {"B1 rs96 flat scattered chain bal0 recon_only", 0x6feac0661d1af128ULL},
      {"B1 rs96 flat scattered chain bal0 migration_only", 0x45485387a25f2ce0ULL},
      {"B1 rs96 flat scattered chain bal0 fastpr_remaining", 0x08a0da0dd07c1b8bULL},
      {"B1 rs96 flat scattered chain bal0 reactive", 0x23558b42f5fb6a15ULL},
      {"B1 rs96 flat scattered chain bal1 fastpr", 0xee8d61b6559b521cULL},
      {"B1 rs96 flat scattered chain bal1 sequential", 0xee8d61b6559b521cULL},
      {"B1 rs96 flat scattered chain bal1 recon_only", 0xc531ce527f06b8cfULL},
      {"B1 rs96 flat scattered chain bal1 migration_only", 0x6cff7a4d04359589ULL},
      {"B1 rs96 flat scattered chain bal1 fastpr_remaining", 0x91cf406ae75c7fb6ULL},
      {"B1 rs96 flat scattered chain bal1 reactive", 0x23558b42f5fb6a15ULL},
      {"B1 rs96 flat scattered auto bal0 fastpr", 0x14d82c1583d6fb67ULL},
      {"B1 rs96 flat scattered auto bal0 sequential", 0x14d82c1583d6fb67ULL},
      {"B1 rs96 flat scattered auto bal0 recon_only", 0x6feac0661d1af128ULL},
      {"B1 rs96 flat scattered auto bal0 migration_only", 0x45485387a25f2ce0ULL},
      {"B1 rs96 flat scattered auto bal0 fastpr_remaining", 0x08a0da0dd07c1b8bULL},
      {"B1 rs96 flat scattered auto bal0 reactive", 0x23558b42f5fb6a15ULL},
      {"B1 rs96 flat scattered auto bal1 fastpr", 0xee8d61b6559b521cULL},
      {"B1 rs96 flat scattered auto bal1 sequential", 0xee8d61b6559b521cULL},
      {"B1 rs96 flat scattered auto bal1 recon_only", 0xc531ce527f06b8cfULL},
      {"B1 rs96 flat scattered auto bal1 migration_only", 0x6cff7a4d04359589ULL},
      {"B1 rs96 flat scattered auto bal1 fastpr_remaining", 0x91cf406ae75c7fb6ULL},
      {"B1 rs96 flat scattered auto bal1 reactive", 0x23558b42f5fb6a15ULL},
      {"B1 rs96 flat hot-standby fanin bal0 fastpr", 0x371e283505949300ULL},
      {"B1 rs96 flat hot-standby fanin bal0 sequential", 0x371e283505949300ULL},
      {"B1 rs96 flat hot-standby fanin bal0 recon_only", 0xef0a50c069a8557cULL},
      {"B1 rs96 flat hot-standby fanin bal0 migration_only", 0x317a81f8f370104cULL},
      {"B1 rs96 flat hot-standby fanin bal0 fastpr_remaining", 0xc948dd61e8a62c87ULL},
      {"B1 rs96 flat hot-standby fanin bal0 reactive", 0x6a0bbf6c45fbb91bULL},
      {"B1 rs96 flat hot-standby fanin bal1 fastpr", 0x371e283505949300ULL},
      {"B1 rs96 flat hot-standby fanin bal1 sequential", 0x371e283505949300ULL},
      {"B1 rs96 flat hot-standby fanin bal1 recon_only", 0xef0a50c069a8557cULL},
      {"B1 rs96 flat hot-standby fanin bal1 migration_only", 0x317a81f8f370104cULL},
      {"B1 rs96 flat hot-standby fanin bal1 fastpr_remaining", 0xc948dd61e8a62c87ULL},
      {"B1 rs96 flat hot-standby fanin bal1 reactive", 0x6a0bbf6c45fbb91bULL},
      {"B1 rs96 flat hot-standby chain bal0 fastpr", 0xe9a385abdbb7c307ULL},
      {"B1 rs96 flat hot-standby chain bal0 sequential", 0xe9a385abdbb7c307ULL},
      {"B1 rs96 flat hot-standby chain bal0 recon_only", 0x1864bd24b2e0725cULL},
      {"B1 rs96 flat hot-standby chain bal0 migration_only", 0x317a81f8f370104cULL},
      {"B1 rs96 flat hot-standby chain bal0 fastpr_remaining", 0xb9280c999b27a2eeULL},
      {"B1 rs96 flat hot-standby chain bal0 reactive", 0x6a0bbf6c45fbb91bULL},
      {"B1 rs96 flat hot-standby chain bal1 fastpr", 0xe9a385abdbb7c307ULL},
      {"B1 rs96 flat hot-standby chain bal1 sequential", 0xe9a385abdbb7c307ULL},
      {"B1 rs96 flat hot-standby chain bal1 recon_only", 0x1864bd24b2e0725cULL},
      {"B1 rs96 flat hot-standby chain bal1 migration_only", 0x317a81f8f370104cULL},
      {"B1 rs96 flat hot-standby chain bal1 fastpr_remaining", 0xb9280c999b27a2eeULL},
      {"B1 rs96 flat hot-standby chain bal1 reactive", 0x6a0bbf6c45fbb91bULL},
      {"B1 rs96 flat hot-standby auto bal0 fastpr", 0xe9a385abdbb7c307ULL},
      {"B1 rs96 flat hot-standby auto bal0 sequential", 0xe9a385abdbb7c307ULL},
      {"B1 rs96 flat hot-standby auto bal0 recon_only", 0x1864bd24b2e0725cULL},
      {"B1 rs96 flat hot-standby auto bal0 migration_only", 0x317a81f8f370104cULL},
      {"B1 rs96 flat hot-standby auto bal0 fastpr_remaining", 0xb9280c999b27a2eeULL},
      {"B1 rs96 flat hot-standby auto bal0 reactive", 0x6a0bbf6c45fbb91bULL},
      {"B1 rs96 flat hot-standby auto bal1 fastpr", 0xe9a385abdbb7c307ULL},
      {"B1 rs96 flat hot-standby auto bal1 sequential", 0xe9a385abdbb7c307ULL},
      {"B1 rs96 flat hot-standby auto bal1 recon_only", 0x1864bd24b2e0725cULL},
      {"B1 rs96 flat hot-standby auto bal1 migration_only", 0x317a81f8f370104cULL},
      {"B1 rs96 flat hot-standby auto bal1 fastpr_remaining", 0xb9280c999b27a2eeULL},
      {"B1 rs96 flat hot-standby auto bal1 reactive", 0x6a0bbf6c45fbb91bULL},
      {"B1 rs96 racked scattered fanin bal0 fastpr", 0x259989a46bdf5eb9ULL},
      {"B1 rs96 racked scattered fanin bal0 sequential", 0x259989a46bdf5eb9ULL},
      {"B1 rs96 racked scattered fanin bal0 recon_only", 0xda83630b3f2295f5ULL},
      {"B1 rs96 racked scattered fanin bal0 migration_only", 0xf030a8d06f90317dULL},
      {"B1 rs96 racked scattered fanin bal0 fastpr_remaining", 0x04403ec1154b611dULL},
      {"B1 rs96 racked scattered fanin bal0 reactive", 0x443187cb6cb7ac89ULL},
      {"B1 rs96 racked scattered fanin bal1 fastpr", 0x259989a46bdf5eb9ULL},
      {"B1 rs96 racked scattered fanin bal1 sequential", 0x259989a46bdf5eb9ULL},
      {"B1 rs96 racked scattered fanin bal1 recon_only", 0xda83630b3f2295f5ULL},
      {"B1 rs96 racked scattered fanin bal1 migration_only", 0xf030a8d06f90317dULL},
      {"B1 rs96 racked scattered fanin bal1 fastpr_remaining", 0x04403ec1154b611dULL},
      {"B1 rs96 racked scattered fanin bal1 reactive", 0x443187cb6cb7ac89ULL},
      {"B1 rs96 racked scattered chain bal0 fastpr", 0x14d394b242cd333eULL},
      {"B1 rs96 racked scattered chain bal0 sequential", 0x14d394b242cd333eULL},
      {"B1 rs96 racked scattered chain bal0 recon_only", 0x39364dcb615bd835ULL},
      {"B1 rs96 racked scattered chain bal0 migration_only", 0xf030a8d06f90317dULL},
      {"B1 rs96 racked scattered chain bal0 fastpr_remaining", 0x93e6b4910ff90ef3ULL},
      {"B1 rs96 racked scattered chain bal0 reactive", 0x443187cb6cb7ac89ULL},
      {"B1 rs96 racked scattered chain bal1 fastpr", 0x14d394b242cd333eULL},
      {"B1 rs96 racked scattered chain bal1 sequential", 0x14d394b242cd333eULL},
      {"B1 rs96 racked scattered chain bal1 recon_only", 0x39364dcb615bd835ULL},
      {"B1 rs96 racked scattered chain bal1 migration_only", 0xf030a8d06f90317dULL},
      {"B1 rs96 racked scattered chain bal1 fastpr_remaining", 0x93e6b4910ff90ef3ULL},
      {"B1 rs96 racked scattered chain bal1 reactive", 0x443187cb6cb7ac89ULL},
      {"B1 rs96 racked scattered auto bal0 fastpr", 0x14d394b242cd333eULL},
      {"B1 rs96 racked scattered auto bal0 sequential", 0x14d394b242cd333eULL},
      {"B1 rs96 racked scattered auto bal0 recon_only", 0x39364dcb615bd835ULL},
      {"B1 rs96 racked scattered auto bal0 migration_only", 0xf030a8d06f90317dULL},
      {"B1 rs96 racked scattered auto bal0 fastpr_remaining", 0x93e6b4910ff90ef3ULL},
      {"B1 rs96 racked scattered auto bal0 reactive", 0x443187cb6cb7ac89ULL},
      {"B1 rs96 racked scattered auto bal1 fastpr", 0x14d394b242cd333eULL},
      {"B1 rs96 racked scattered auto bal1 sequential", 0x14d394b242cd333eULL},
      {"B1 rs96 racked scattered auto bal1 recon_only", 0x39364dcb615bd835ULL},
      {"B1 rs96 racked scattered auto bal1 migration_only", 0xf030a8d06f90317dULL},
      {"B1 rs96 racked scattered auto bal1 fastpr_remaining", 0x93e6b4910ff90ef3ULL},
      {"B1 rs96 racked scattered auto bal1 reactive", 0x443187cb6cb7ac89ULL},
      {"B1 rs96 racked hot-standby fanin bal0 fastpr", 0xddcfdfa8fd9e2984ULL},
      {"B1 rs96 racked hot-standby fanin bal0 sequential", 0xddcfdfa8fd9e2984ULL},
      {"B1 rs96 racked hot-standby fanin bal0 recon_only", 0x48ac574a2a373e01ULL},
      {"B1 rs96 racked hot-standby fanin bal0 migration_only", 0xe80cbcc90541f969ULL},
      {"B1 rs96 racked hot-standby fanin bal0 fastpr_remaining", 0x89a1e9580b99272cULL},
      {"B1 rs96 racked hot-standby fanin bal0 reactive", 0x59519dbc59b2d1edULL},
      {"B1 rs96 racked hot-standby fanin bal1 fastpr", 0xddcfdfa8fd9e2984ULL},
      {"B1 rs96 racked hot-standby fanin bal1 sequential", 0xddcfdfa8fd9e2984ULL},
      {"B1 rs96 racked hot-standby fanin bal1 recon_only", 0x48ac574a2a373e01ULL},
      {"B1 rs96 racked hot-standby fanin bal1 migration_only", 0xe80cbcc90541f969ULL},
      {"B1 rs96 racked hot-standby fanin bal1 fastpr_remaining", 0x89a1e9580b99272cULL},
      {"B1 rs96 racked hot-standby fanin bal1 reactive", 0x59519dbc59b2d1edULL},
      {"B1 rs96 racked hot-standby chain bal0 fastpr", 0x4f7cffc10b9a0087ULL},
      {"B1 rs96 racked hot-standby chain bal0 sequential", 0x4f7cffc10b9a0087ULL},
      {"B1 rs96 racked hot-standby chain bal0 recon_only", 0xe8031b0446846341ULL},
      {"B1 rs96 racked hot-standby chain bal0 migration_only", 0xe80cbcc90541f969ULL},
      {"B1 rs96 racked hot-standby chain bal0 fastpr_remaining", 0x757debffcc6a9f33ULL},
      {"B1 rs96 racked hot-standby chain bal0 reactive", 0x59519dbc59b2d1edULL},
      {"B1 rs96 racked hot-standby chain bal1 fastpr", 0x4f7cffc10b9a0087ULL},
      {"B1 rs96 racked hot-standby chain bal1 sequential", 0x4f7cffc10b9a0087ULL},
      {"B1 rs96 racked hot-standby chain bal1 recon_only", 0xe8031b0446846341ULL},
      {"B1 rs96 racked hot-standby chain bal1 migration_only", 0xe80cbcc90541f969ULL},
      {"B1 rs96 racked hot-standby chain bal1 fastpr_remaining", 0x757debffcc6a9f33ULL},
      {"B1 rs96 racked hot-standby chain bal1 reactive", 0x59519dbc59b2d1edULL},
      {"B1 rs96 racked hot-standby auto bal0 fastpr", 0x4f7cffc10b9a0087ULL},
      {"B1 rs96 racked hot-standby auto bal0 sequential", 0x4f7cffc10b9a0087ULL},
      {"B1 rs96 racked hot-standby auto bal0 recon_only", 0xe8031b0446846341ULL},
      {"B1 rs96 racked hot-standby auto bal0 migration_only", 0xe80cbcc90541f969ULL},
      {"B1 rs96 racked hot-standby auto bal0 fastpr_remaining", 0x757debffcc6a9f33ULL},
      {"B1 rs96 racked hot-standby auto bal0 reactive", 0x59519dbc59b2d1edULL},
      {"B1 rs96 racked hot-standby auto bal1 fastpr", 0x4f7cffc10b9a0087ULL},
      {"B1 rs96 racked hot-standby auto bal1 sequential", 0x4f7cffc10b9a0087ULL},
      {"B1 rs96 racked hot-standby auto bal1 recon_only", 0xe8031b0446846341ULL},
      {"B1 rs96 racked hot-standby auto bal1 migration_only", 0xe80cbcc90541f969ULL},
      {"B1 rs96 racked hot-standby auto bal1 fastpr_remaining", 0x757debffcc6a9f33ULL},
      {"B1 rs96 racked hot-standby auto bal1 reactive", 0x59519dbc59b2d1edULL},
      {"B1 lrc622 flat scattered fanin bal0 fastpr", 0xcffd8dd64e860aacULL},
      {"B1 lrc622 flat scattered fanin bal0 sequential", 0xcffd8dd64e860aacULL},
      {"B1 lrc622 flat scattered fanin bal0 recon_only", 0xf467c8114e8819d3ULL},
      {"B1 lrc622 flat scattered fanin bal0 migration_only", 0x6bfc532d16a4a205ULL},
      {"B1 lrc622 flat scattered fanin bal0 fastpr_remaining", 0xca68858cc4e4405dULL},
      {"B1 lrc622 flat scattered fanin bal0 reactive", 0x438c0c3f138310dfULL},
      {"B1 lrc622 flat scattered fanin bal1 fastpr", 0x380e0d015267a9e4ULL},
      {"B1 lrc622 flat scattered fanin bal1 sequential", 0x380e0d015267a9e4ULL},
      {"B1 lrc622 flat scattered fanin bal1 recon_only", 0xa10e374bc6da2271ULL},
      {"B1 lrc622 flat scattered fanin bal1 migration_only", 0x34de44c9f05047acULL},
      {"B1 lrc622 flat scattered fanin bal1 fastpr_remaining", 0xdb7ca0b8b88ee5d4ULL},
      {"B1 lrc622 flat scattered fanin bal1 reactive", 0x438c0c3f138310dfULL},
      {"B1 lrc622 flat scattered chain bal0 fastpr", 0x1f83b102058c4f0cULL},
      {"B1 lrc622 flat scattered chain bal0 sequential", 0x1f83b102058c4f0cULL},
      {"B1 lrc622 flat scattered chain bal0 recon_only", 0x05ba36aef00126beULL},
      {"B1 lrc622 flat scattered chain bal0 migration_only", 0x6bfc532d16a4a205ULL},
      {"B1 lrc622 flat scattered chain bal0 fastpr_remaining", 0x700ed63d5fde77dcULL},
      {"B1 lrc622 flat scattered chain bal0 reactive", 0x438c0c3f138310dfULL},
      {"B1 lrc622 flat scattered chain bal1 fastpr", 0x2cb6844274a4abc4ULL},
      {"B1 lrc622 flat scattered chain bal1 sequential", 0x2cb6844274a4abc4ULL},
      {"B1 lrc622 flat scattered chain bal1 recon_only", 0xcfe43e460228cdf4ULL},
      {"B1 lrc622 flat scattered chain bal1 migration_only", 0x34de44c9f05047acULL},
      {"B1 lrc622 flat scattered chain bal1 fastpr_remaining", 0xfcc30b7629eaa995ULL},
      {"B1 lrc622 flat scattered chain bal1 reactive", 0x438c0c3f138310dfULL},
      {"B1 lrc622 flat scattered auto bal0 fastpr", 0x1f83b102058c4f0cULL},
      {"B1 lrc622 flat scattered auto bal0 sequential", 0x1f83b102058c4f0cULL},
      {"B1 lrc622 flat scattered auto bal0 recon_only", 0x05ba36aef00126beULL},
      {"B1 lrc622 flat scattered auto bal0 migration_only", 0x6bfc532d16a4a205ULL},
      {"B1 lrc622 flat scattered auto bal0 fastpr_remaining", 0x700ed63d5fde77dcULL},
      {"B1 lrc622 flat scattered auto bal0 reactive", 0x438c0c3f138310dfULL},
      {"B1 lrc622 flat scattered auto bal1 fastpr", 0x2cb6844274a4abc4ULL},
      {"B1 lrc622 flat scattered auto bal1 sequential", 0x2cb6844274a4abc4ULL},
      {"B1 lrc622 flat scattered auto bal1 recon_only", 0xcfe43e460228cdf4ULL},
      {"B1 lrc622 flat scattered auto bal1 migration_only", 0x34de44c9f05047acULL},
      {"B1 lrc622 flat scattered auto bal1 fastpr_remaining", 0xfcc30b7629eaa995ULL},
      {"B1 lrc622 flat scattered auto bal1 reactive", 0x438c0c3f138310dfULL},
      {"B1 lrc622 flat hot-standby fanin bal0 fastpr", 0x4c853dcb5e64481fULL},
      {"B1 lrc622 flat hot-standby fanin bal0 sequential", 0x4c853dcb5e64481fULL},
      {"B1 lrc622 flat hot-standby fanin bal0 recon_only", 0x87ad68b0cae9dfc5ULL},
      {"B1 lrc622 flat hot-standby fanin bal0 migration_only", 0x7529c3d45fcfaa4eULL},
      {"B1 lrc622 flat hot-standby fanin bal0 fastpr_remaining", 0xa4c32af6cd3f67a6ULL},
      {"B1 lrc622 flat hot-standby fanin bal0 reactive", 0xcecf0a4cd58d5c2dULL},
      {"B1 lrc622 flat hot-standby fanin bal1 fastpr", 0x4c853dcb5e64481fULL},
      {"B1 lrc622 flat hot-standby fanin bal1 sequential", 0x4c853dcb5e64481fULL},
      {"B1 lrc622 flat hot-standby fanin bal1 recon_only", 0x87ad68b0cae9dfc5ULL},
      {"B1 lrc622 flat hot-standby fanin bal1 migration_only", 0x7529c3d45fcfaa4eULL},
      {"B1 lrc622 flat hot-standby fanin bal1 fastpr_remaining", 0xa4c32af6cd3f67a6ULL},
      {"B1 lrc622 flat hot-standby fanin bal1 reactive", 0xcecf0a4cd58d5c2dULL},
      {"B1 lrc622 flat hot-standby chain bal0 fastpr", 0x7e1909d2bc3d4903ULL},
      {"B1 lrc622 flat hot-standby chain bal0 sequential", 0x7e1909d2bc3d4903ULL},
      {"B1 lrc622 flat hot-standby chain bal0 recon_only", 0x0dd33d4e9a4895d8ULL},
      {"B1 lrc622 flat hot-standby chain bal0 migration_only", 0x7529c3d45fcfaa4eULL},
      {"B1 lrc622 flat hot-standby chain bal0 fastpr_remaining", 0x14685bd870a2da22ULL},
      {"B1 lrc622 flat hot-standby chain bal0 reactive", 0xcecf0a4cd58d5c2dULL},
      {"B1 lrc622 flat hot-standby chain bal1 fastpr", 0x7e1909d2bc3d4903ULL},
      {"B1 lrc622 flat hot-standby chain bal1 sequential", 0x7e1909d2bc3d4903ULL},
      {"B1 lrc622 flat hot-standby chain bal1 recon_only", 0x0dd33d4e9a4895d8ULL},
      {"B1 lrc622 flat hot-standby chain bal1 migration_only", 0x7529c3d45fcfaa4eULL},
      {"B1 lrc622 flat hot-standby chain bal1 fastpr_remaining", 0x14685bd870a2da22ULL},
      {"B1 lrc622 flat hot-standby chain bal1 reactive", 0xcecf0a4cd58d5c2dULL},
      {"B1 lrc622 flat hot-standby auto bal0 fastpr", 0xbf4452a7663563e3ULL},
      {"B1 lrc622 flat hot-standby auto bal0 sequential", 0xbf4452a7663563e3ULL},
      {"B1 lrc622 flat hot-standby auto bal0 recon_only", 0xd36f211836d71ab8ULL},
      {"B1 lrc622 flat hot-standby auto bal0 migration_only", 0x7529c3d45fcfaa4eULL},
      {"B1 lrc622 flat hot-standby auto bal0 fastpr_remaining", 0x14685bd870a2da22ULL},
      {"B1 lrc622 flat hot-standby auto bal0 reactive", 0xcecf0a4cd58d5c2dULL},
      {"B1 lrc622 flat hot-standby auto bal1 fastpr", 0xbf4452a7663563e3ULL},
      {"B1 lrc622 flat hot-standby auto bal1 sequential", 0xbf4452a7663563e3ULL},
      {"B1 lrc622 flat hot-standby auto bal1 recon_only", 0xd36f211836d71ab8ULL},
      {"B1 lrc622 flat hot-standby auto bal1 migration_only", 0x7529c3d45fcfaa4eULL},
      {"B1 lrc622 flat hot-standby auto bal1 fastpr_remaining", 0x14685bd870a2da22ULL},
      {"B1 lrc622 flat hot-standby auto bal1 reactive", 0xcecf0a4cd58d5c2dULL},
      {"B1 lrc622 racked scattered fanin bal0 fastpr", 0xbe453cc04fc7fc80ULL},
      {"B1 lrc622 racked scattered fanin bal0 sequential", 0xbe453cc04fc7fc80ULL},
      {"B1 lrc622 racked scattered fanin bal0 recon_only", 0x82ca9719d15e06f5ULL},
      {"B1 lrc622 racked scattered fanin bal0 migration_only", 0x9feaec41a1ac6cb4ULL},
      {"B1 lrc622 racked scattered fanin bal0 fastpr_remaining", 0x0975f0d8c16ccf50ULL},
      {"B1 lrc622 racked scattered fanin bal0 reactive", 0x1df8e49d2b5090dbULL},
      {"B1 lrc622 racked scattered fanin bal1 fastpr", 0xbe453cc04fc7fc80ULL},
      {"B1 lrc622 racked scattered fanin bal1 sequential", 0xbe453cc04fc7fc80ULL},
      {"B1 lrc622 racked scattered fanin bal1 recon_only", 0x82ca9719d15e06f5ULL},
      {"B1 lrc622 racked scattered fanin bal1 migration_only", 0x9feaec41a1ac6cb4ULL},
      {"B1 lrc622 racked scattered fanin bal1 fastpr_remaining", 0x0975f0d8c16ccf50ULL},
      {"B1 lrc622 racked scattered fanin bal1 reactive", 0x1df8e49d2b5090dbULL},
      {"B1 lrc622 racked scattered chain bal0 fastpr", 0x8dd4a45d5d74cfa2ULL},
      {"B1 lrc622 racked scattered chain bal0 sequential", 0x8dd4a45d5d74cfa2ULL},
      {"B1 lrc622 racked scattered chain bal0 recon_only", 0x5bcf25d7ccdd4e08ULL},
      {"B1 lrc622 racked scattered chain bal0 migration_only", 0x9feaec41a1ac6cb4ULL},
      {"B1 lrc622 racked scattered chain bal0 fastpr_remaining", 0x737dd5afb124e36eULL},
      {"B1 lrc622 racked scattered chain bal0 reactive", 0x1df8e49d2b5090dbULL},
      {"B1 lrc622 racked scattered chain bal1 fastpr", 0x8dd4a45d5d74cfa2ULL},
      {"B1 lrc622 racked scattered chain bal1 sequential", 0x8dd4a45d5d74cfa2ULL},
      {"B1 lrc622 racked scattered chain bal1 recon_only", 0x5bcf25d7ccdd4e08ULL},
      {"B1 lrc622 racked scattered chain bal1 migration_only", 0x9feaec41a1ac6cb4ULL},
      {"B1 lrc622 racked scattered chain bal1 fastpr_remaining", 0x737dd5afb124e36eULL},
      {"B1 lrc622 racked scattered chain bal1 reactive", 0x1df8e49d2b5090dbULL},
      {"B1 lrc622 racked scattered auto bal0 fastpr", 0x8dd4a45d5d74cfa2ULL},
      {"B1 lrc622 racked scattered auto bal0 sequential", 0x8dd4a45d5d74cfa2ULL},
      {"B1 lrc622 racked scattered auto bal0 recon_only", 0x5bcf25d7ccdd4e08ULL},
      {"B1 lrc622 racked scattered auto bal0 migration_only", 0x9feaec41a1ac6cb4ULL},
      {"B1 lrc622 racked scattered auto bal0 fastpr_remaining", 0x737dd5afb124e36eULL},
      {"B1 lrc622 racked scattered auto bal0 reactive", 0x1df8e49d2b5090dbULL},
      {"B1 lrc622 racked scattered auto bal1 fastpr", 0x8dd4a45d5d74cfa2ULL},
      {"B1 lrc622 racked scattered auto bal1 sequential", 0x8dd4a45d5d74cfa2ULL},
      {"B1 lrc622 racked scattered auto bal1 recon_only", 0x5bcf25d7ccdd4e08ULL},
      {"B1 lrc622 racked scattered auto bal1 migration_only", 0x9feaec41a1ac6cb4ULL},
      {"B1 lrc622 racked scattered auto bal1 fastpr_remaining", 0x737dd5afb124e36eULL},
      {"B1 lrc622 racked scattered auto bal1 reactive", 0x1df8e49d2b5090dbULL},
      {"B1 lrc622 racked hot-standby fanin bal0 fastpr", 0x94eefbc82d26fb24ULL},
      {"B1 lrc622 racked hot-standby fanin bal0 sequential", 0x94eefbc82d26fb24ULL},
      {"B1 lrc622 racked hot-standby fanin bal0 recon_only", 0xe971f8794873a1f8ULL},
      {"B1 lrc622 racked hot-standby fanin bal0 migration_only", 0x68a83bda1ac44af9ULL},
      {"B1 lrc622 racked hot-standby fanin bal0 fastpr_remaining", 0xcd54cb0712ce5801ULL},
      {"B1 lrc622 racked hot-standby fanin bal0 reactive", 0x2ba37558d6b7a361ULL},
      {"B1 lrc622 racked hot-standby fanin bal1 fastpr", 0x94eefbc82d26fb24ULL},
      {"B1 lrc622 racked hot-standby fanin bal1 sequential", 0x94eefbc82d26fb24ULL},
      {"B1 lrc622 racked hot-standby fanin bal1 recon_only", 0xe971f8794873a1f8ULL},
      {"B1 lrc622 racked hot-standby fanin bal1 migration_only", 0x68a83bda1ac44af9ULL},
      {"B1 lrc622 racked hot-standby fanin bal1 fastpr_remaining", 0xcd54cb0712ce5801ULL},
      {"B1 lrc622 racked hot-standby fanin bal1 reactive", 0x2ba37558d6b7a361ULL},
      {"B1 lrc622 racked hot-standby chain bal0 fastpr", 0xf6ac766cf33c9245ULL},
      {"B1 lrc622 racked hot-standby chain bal0 sequential", 0xf6ac766cf33c9245ULL},
      {"B1 lrc622 racked hot-standby chain bal0 recon_only", 0x269821c5f04a7de5ULL},
      {"B1 lrc622 racked hot-standby chain bal0 migration_only", 0x68a83bda1ac44af9ULL},
      {"B1 lrc622 racked hot-standby chain bal0 fastpr_remaining", 0x60abb22b89a54dd6ULL},
      {"B1 lrc622 racked hot-standby chain bal0 reactive", 0x2ba37558d6b7a361ULL},
      {"B1 lrc622 racked hot-standby chain bal1 fastpr", 0xf6ac766cf33c9245ULL},
      {"B1 lrc622 racked hot-standby chain bal1 sequential", 0xf6ac766cf33c9245ULL},
      {"B1 lrc622 racked hot-standby chain bal1 recon_only", 0x269821c5f04a7de5ULL},
      {"B1 lrc622 racked hot-standby chain bal1 migration_only", 0x68a83bda1ac44af9ULL},
      {"B1 lrc622 racked hot-standby chain bal1 fastpr_remaining", 0x60abb22b89a54dd6ULL},
      {"B1 lrc622 racked hot-standby chain bal1 reactive", 0x2ba37558d6b7a361ULL},
      {"B1 lrc622 racked hot-standby auto bal0 fastpr", 0xf6ac766cf33c9245ULL},
      {"B1 lrc622 racked hot-standby auto bal0 sequential", 0xf6ac766cf33c9245ULL},
      {"B1 lrc622 racked hot-standby auto bal0 recon_only", 0x269821c5f04a7de5ULL},
      {"B1 lrc622 racked hot-standby auto bal0 migration_only", 0x68a83bda1ac44af9ULL},
      {"B1 lrc622 racked hot-standby auto bal0 fastpr_remaining", 0x60abb22b89a54dd6ULL},
      {"B1 lrc622 racked hot-standby auto bal0 reactive", 0x2ba37558d6b7a361ULL},
      {"B1 lrc622 racked hot-standby auto bal1 fastpr", 0xf6ac766cf33c9245ULL},
      {"B1 lrc622 racked hot-standby auto bal1 sequential", 0xf6ac766cf33c9245ULL},
      {"B1 lrc622 racked hot-standby auto bal1 recon_only", 0x269821c5f04a7de5ULL},
      {"B1 lrc622 racked hot-standby auto bal1 migration_only", 0x68a83bda1ac44af9ULL},
      {"B1 lrc622 racked hot-standby auto bal1 fastpr_remaining", 0x60abb22b89a54dd6ULL},
      {"B1 lrc622 racked hot-standby auto bal1 reactive", 0x2ba37558d6b7a361ULL},
      {"B2 rs96 flat scattered fanin bal0 fastpr", 0xcf86c3debee3ea97ULL},
      {"B2 rs96 flat scattered fanin bal0 sequential", 0x922d9226c251a2d5ULL},
      {"B2 rs96 flat scattered fanin bal1 fastpr", 0xe4433d6cc58b71efULL},
      {"B2 rs96 flat scattered fanin bal1 sequential", 0x782add218520700eULL},
      {"B2 rs96 flat scattered chain bal0 fastpr", 0x7261d805df7b25edULL},
      {"B2 rs96 flat scattered chain bal0 sequential", 0xf531caa3a9b5d7ceULL},
      {"B2 rs96 flat scattered chain bal1 fastpr", 0x52d37efe45ad99b3ULL},
      {"B2 rs96 flat scattered chain bal1 sequential", 0xab707ebc310d3b01ULL},
      {"B2 rs96 flat scattered auto bal0 fastpr", 0x7261d805df7b25edULL},
      {"B2 rs96 flat scattered auto bal0 sequential", 0xf531caa3a9b5d7ceULL},
      {"B2 rs96 flat scattered auto bal1 fastpr", 0x52d37efe45ad99b3ULL},
      {"B2 rs96 flat scattered auto bal1 sequential", 0xab707ebc310d3b01ULL},
      {"B2 rs96 flat hot-standby fanin bal0 fastpr", 0x406ac9c77b29a10dULL},
      {"B2 rs96 flat hot-standby fanin bal0 sequential", 0x5916d02381b1545bULL},
      {"B2 rs96 flat hot-standby fanin bal1 fastpr", 0x406ac9c77b29a10dULL},
      {"B2 rs96 flat hot-standby fanin bal1 sequential", 0x5916d02381b1545bULL},
      {"B2 rs96 flat hot-standby chain bal0 fastpr", 0xdffab25a60f5151cULL},
      {"B2 rs96 flat hot-standby chain bal0 sequential", 0x62d9569d19ad97e7ULL},
      {"B2 rs96 flat hot-standby chain bal1 fastpr", 0xdffab25a60f5151cULL},
      {"B2 rs96 flat hot-standby chain bal1 sequential", 0x62d9569d19ad97e7ULL},
      {"B2 rs96 flat hot-standby auto bal0 fastpr", 0xdffab25a60f5151cULL},
      {"B2 rs96 flat hot-standby auto bal0 sequential", 0x62d9569d19ad97e7ULL},
      {"B2 rs96 flat hot-standby auto bal1 fastpr", 0xdffab25a60f5151cULL},
      {"B2 rs96 flat hot-standby auto bal1 sequential", 0x62d9569d19ad97e7ULL},
      {"B2 rs96 racked scattered fanin bal0 fastpr", 0x1c36b1d338861ebcULL},
      {"B2 rs96 racked scattered fanin bal0 sequential", 0x496c16fa675f5369ULL},
      {"B2 rs96 racked scattered fanin bal1 fastpr", 0x1c36b1d338861ebcULL},
      {"B2 rs96 racked scattered fanin bal1 sequential", 0x496c16fa675f5369ULL},
      {"B2 rs96 racked scattered chain bal0 fastpr", 0x2c5c27b2ebc42d3bULL},
      {"B2 rs96 racked scattered chain bal0 sequential", 0x5b7993d50d8160d3ULL},
      {"B2 rs96 racked scattered chain bal1 fastpr", 0x2c5c27b2ebc42d3bULL},
      {"B2 rs96 racked scattered chain bal1 sequential", 0x5b7993d50d8160d3ULL},
      {"B2 rs96 racked scattered auto bal0 fastpr", 0x2c5c27b2ebc42d3bULL},
      {"B2 rs96 racked scattered auto bal0 sequential", 0x5b7993d50d8160d3ULL},
      {"B2 rs96 racked scattered auto bal1 fastpr", 0x2c5c27b2ebc42d3bULL},
      {"B2 rs96 racked scattered auto bal1 sequential", 0x5b7993d50d8160d3ULL},
      {"B2 rs96 racked hot-standby fanin bal0 fastpr", 0x02d2f2f62c2bbef3ULL},
      {"B2 rs96 racked hot-standby fanin bal0 sequential", 0x55002df9a989f116ULL},
      {"B2 rs96 racked hot-standby fanin bal1 fastpr", 0x02d2f2f62c2bbef3ULL},
      {"B2 rs96 racked hot-standby fanin bal1 sequential", 0x55002df9a989f116ULL},
      {"B2 rs96 racked hot-standby chain bal0 fastpr", 0xd34136edaeee1568ULL},
      {"B2 rs96 racked hot-standby chain bal0 sequential", 0x2df8bfc0ed21eb08ULL},
      {"B2 rs96 racked hot-standby chain bal1 fastpr", 0xd34136edaeee1568ULL},
      {"B2 rs96 racked hot-standby chain bal1 sequential", 0x2df8bfc0ed21eb08ULL},
      {"B2 rs96 racked hot-standby auto bal0 fastpr", 0xd34136edaeee1568ULL},
      {"B2 rs96 racked hot-standby auto bal0 sequential", 0x2df8bfc0ed21eb08ULL},
      {"B2 rs96 racked hot-standby auto bal1 fastpr", 0xd34136edaeee1568ULL},
      {"B2 rs96 racked hot-standby auto bal1 sequential", 0x2df8bfc0ed21eb08ULL},
      {"B2 lrc622 flat scattered fanin bal0 fastpr", 0xc1c0d845e75eee6fULL},
      {"B2 lrc622 flat scattered fanin bal0 sequential", 0x74db2ce797d0fac3ULL},
      {"B2 lrc622 flat scattered fanin bal1 fastpr", 0xcd88dc05ca1c25c7ULL},
      {"B2 lrc622 flat scattered fanin bal1 sequential", 0xd4ece00bb5e1f7eeULL},
      {"B2 lrc622 flat scattered chain bal0 fastpr", 0x0fe1257367cfa48fULL},
      {"B2 lrc622 flat scattered chain bal0 sequential", 0xa51ea5b3d5266443ULL},
      {"B2 lrc622 flat scattered chain bal1 fastpr", 0x37ff4a7682df47a7ULL},
      {"B2 lrc622 flat scattered chain bal1 sequential", 0x42dabbc692072e6eULL},
      {"B2 lrc622 flat scattered auto bal0 fastpr", 0x0fe1257367cfa48fULL},
      {"B2 lrc622 flat scattered auto bal0 sequential", 0xa51ea5b3d5266443ULL},
      {"B2 lrc622 flat scattered auto bal1 fastpr", 0x37ff4a7682df47a7ULL},
      {"B2 lrc622 flat scattered auto bal1 sequential", 0x42dabbc692072e6eULL},
      {"B2 lrc622 flat hot-standby fanin bal0 fastpr", 0x86a5a7cd71812a3eULL},
      {"B2 lrc622 flat hot-standby fanin bal0 sequential", 0xc4092197ecc6fcc8ULL},
      {"B2 lrc622 flat hot-standby fanin bal1 fastpr", 0x86a5a7cd71812a3eULL},
      {"B2 lrc622 flat hot-standby fanin bal1 sequential", 0xc4092197ecc6fcc8ULL},
      {"B2 lrc622 flat hot-standby chain bal0 fastpr", 0x9e5c8b3b9473a44cULL},
      {"B2 lrc622 flat hot-standby chain bal0 sequential", 0xb1a2d7f6fd2c147eULL},
      {"B2 lrc622 flat hot-standby chain bal1 fastpr", 0x9e5c8b3b9473a44cULL},
      {"B2 lrc622 flat hot-standby chain bal1 sequential", 0xb1a2d7f6fd2c147eULL},
      {"B2 lrc622 flat hot-standby auto bal0 fastpr", 0x9e5c8b3b9473a44cULL},
      {"B2 lrc622 flat hot-standby auto bal0 sequential", 0xcbc34f21c888d41eULL},
      {"B2 lrc622 flat hot-standby auto bal1 fastpr", 0x9e5c8b3b9473a44cULL},
      {"B2 lrc622 flat hot-standby auto bal1 sequential", 0xcbc34f21c888d41eULL},
      {"B2 lrc622 racked scattered fanin bal0 fastpr", 0x713536beaa07497aULL},
      {"B2 lrc622 racked scattered fanin bal0 sequential", 0xe69e8923ff228555ULL},
      {"B2 lrc622 racked scattered fanin bal1 fastpr", 0x713536beaa07497aULL},
      {"B2 lrc622 racked scattered fanin bal1 sequential", 0xe69e8923ff228555ULL},
      {"B2 lrc622 racked scattered chain bal0 fastpr", 0x1034171562ec4181ULL},
      {"B2 lrc622 racked scattered chain bal0 sequential", 0x3f1e769035de9ecbULL},
      {"B2 lrc622 racked scattered chain bal1 fastpr", 0x1034171562ec4181ULL},
      {"B2 lrc622 racked scattered chain bal1 sequential", 0x3f1e769035de9ecbULL},
      {"B2 lrc622 racked scattered auto bal0 fastpr", 0x1034171562ec4181ULL},
      {"B2 lrc622 racked scattered auto bal0 sequential", 0x3f1e769035de9ecbULL},
      {"B2 lrc622 racked scattered auto bal1 fastpr", 0x1034171562ec4181ULL},
      {"B2 lrc622 racked scattered auto bal1 sequential", 0x3f1e769035de9ecbULL},
      {"B2 lrc622 racked hot-standby fanin bal0 fastpr", 0x99c1a11fd2403197ULL},
      {"B2 lrc622 racked hot-standby fanin bal0 sequential", 0x6fed4db4595c35f3ULL},
      {"B2 lrc622 racked hot-standby fanin bal1 fastpr", 0x99c1a11fd2403197ULL},
      {"B2 lrc622 racked hot-standby fanin bal1 sequential", 0x6fed4db4595c35f3ULL},
      {"B2 lrc622 racked hot-standby chain bal0 fastpr", 0xb47698cbede5344dULL},
      {"B2 lrc622 racked hot-standby chain bal0 sequential", 0xd161ffed5f082438ULL},
      {"B2 lrc622 racked hot-standby chain bal1 fastpr", 0xb47698cbede5344dULL},
      {"B2 lrc622 racked hot-standby chain bal1 sequential", 0xd161ffed5f082438ULL},
      {"B2 lrc622 racked hot-standby auto bal0 fastpr", 0xb47698cbede5344dULL},
      {"B2 lrc622 racked hot-standby auto bal0 sequential", 0xd161ffed5f082438ULL},
      {"B2 lrc622 racked hot-standby auto bal1 fastpr", 0xb47698cbede5344dULL},
      {"B2 lrc622 racked hot-standby auto bal1 sequential", 0xd161ffed5f082438ULL},
      {"B3 rs96 flat scattered fanin bal0 fastpr", 0xdc4c68de6cce18a9ULL},
      {"B3 rs96 flat scattered fanin bal0 sequential", 0xd127c5a26582dd06ULL},
      {"B3 rs96 flat scattered fanin bal1 fastpr", 0xd9e8014389cb4258ULL},
      {"B3 rs96 flat scattered fanin bal1 sequential", 0x9f73bdb80b6d8491ULL},
      {"B3 rs96 flat scattered chain bal0 fastpr", 0x5c3279caf9d953eaULL},
      {"B3 rs96 flat scattered chain bal0 sequential", 0x678c5898f4f18460ULL},
      {"B3 rs96 flat scattered chain bal1 fastpr", 0x59b7a1ced786539aULL},
      {"B3 rs96 flat scattered chain bal1 sequential", 0xd14c96975879cb17ULL},
      {"B3 rs96 flat scattered auto bal0 fastpr", 0x5c3279caf9d953eaULL},
      {"B3 rs96 flat scattered auto bal0 sequential", 0x678c5898f4f18460ULL},
      {"B3 rs96 flat scattered auto bal1 fastpr", 0x59b7a1ced786539aULL},
      {"B3 rs96 flat scattered auto bal1 sequential", 0xd14c96975879cb17ULL},
      {"B3 rs96 flat hot-standby fanin bal0 fastpr", 0x9952d98791686a91ULL},
      {"B3 rs96 flat hot-standby fanin bal0 sequential", 0x40e446e33450472cULL},
      {"B3 rs96 flat hot-standby fanin bal1 fastpr", 0x9952d98791686a91ULL},
      {"B3 rs96 flat hot-standby fanin bal1 sequential", 0x40e446e33450472cULL},
      {"B3 rs96 flat hot-standby chain bal0 fastpr", 0x78f2a9b2a863830eULL},
      {"B3 rs96 flat hot-standby chain bal0 sequential", 0xc2afd19e7cad9525ULL},
      {"B3 rs96 flat hot-standby chain bal1 fastpr", 0x78f2a9b2a863830eULL},
      {"B3 rs96 flat hot-standby chain bal1 sequential", 0xc2afd19e7cad9525ULL},
      {"B3 rs96 flat hot-standby auto bal0 fastpr", 0x78f2a9b2a863830eULL},
      {"B3 rs96 flat hot-standby auto bal0 sequential", 0xc2afd19e7cad9525ULL},
      {"B3 rs96 flat hot-standby auto bal1 fastpr", 0x78f2a9b2a863830eULL},
      {"B3 rs96 flat hot-standby auto bal1 sequential", 0xc2afd19e7cad9525ULL},
      {"B3 rs96 racked scattered fanin bal0 fastpr", 0xa99a44a23a3be778ULL},
      {"B3 rs96 racked scattered fanin bal0 sequential", 0xb614f40578b356c2ULL},
      {"B3 rs96 racked scattered fanin bal1 fastpr", 0xa99a44a23a3be778ULL},
      {"B3 rs96 racked scattered fanin bal1 sequential", 0xb614f40578b356c2ULL},
      {"B3 rs96 racked scattered chain bal0 fastpr", 0xaed589e94c3941e4ULL},
      {"B3 rs96 racked scattered chain bal0 sequential", 0x83c4436c897ba5f9ULL},
      {"B3 rs96 racked scattered chain bal1 fastpr", 0xaed589e94c3941e4ULL},
      {"B3 rs96 racked scattered chain bal1 sequential", 0x83c4436c897ba5f9ULL},
      {"B3 rs96 racked scattered auto bal0 fastpr", 0xaed589e94c3941e4ULL},
      {"B3 rs96 racked scattered auto bal0 sequential", 0x83c4436c897ba5f9ULL},
      {"B3 rs96 racked scattered auto bal1 fastpr", 0xaed589e94c3941e4ULL},
      {"B3 rs96 racked scattered auto bal1 sequential", 0x83c4436c897ba5f9ULL},
      {"B3 rs96 racked hot-standby fanin bal0 fastpr", 0x157da275c4bcb80dULL},
      {"B3 rs96 racked hot-standby fanin bal0 sequential", 0x9da1db95543f388aULL},
      {"B3 rs96 racked hot-standby fanin bal1 fastpr", 0x157da275c4bcb80dULL},
      {"B3 rs96 racked hot-standby fanin bal1 sequential", 0x9da1db95543f388aULL},
      {"B3 rs96 racked hot-standby chain bal0 fastpr", 0x06fdde926f0b9d62ULL},
      {"B3 rs96 racked hot-standby chain bal0 sequential", 0xb23a7920066a5436ULL},
      {"B3 rs96 racked hot-standby chain bal1 fastpr", 0x06fdde926f0b9d62ULL},
      {"B3 rs96 racked hot-standby chain bal1 sequential", 0xb23a7920066a5436ULL},
      {"B3 rs96 racked hot-standby auto bal0 fastpr", 0x06fdde926f0b9d62ULL},
      {"B3 rs96 racked hot-standby auto bal0 sequential", 0xb23a7920066a5436ULL},
      {"B3 rs96 racked hot-standby auto bal1 fastpr", 0x06fdde926f0b9d62ULL},
      {"B3 rs96 racked hot-standby auto bal1 sequential", 0xb23a7920066a5436ULL},
      {"B3 lrc622 flat scattered fanin bal0 fastpr", 0xc0bd8e8756d785c5ULL},
      {"B3 lrc622 flat scattered fanin bal0 sequential", 0xc34ad3f867fb37a3ULL},
      {"B3 lrc622 flat scattered fanin bal1 fastpr", 0x3c7b4e3ed8d43d89ULL},
      {"B3 lrc622 flat scattered fanin bal1 sequential", 0x5364f7deb8370c61ULL},
      {"B3 lrc622 flat scattered chain bal0 fastpr", 0x08caea1b430ae6c5ULL},
      {"B3 lrc622 flat scattered chain bal0 sequential", 0x143dc9ed21f5d93aULL},
      {"B3 lrc622 flat scattered chain bal1 fastpr", 0x6e4a867d40192409ULL},
      {"B3 lrc622 flat scattered chain bal1 sequential", 0x1c9ca6cc8e0f7ce0ULL},
      {"B3 lrc622 flat scattered auto bal0 fastpr", 0x08caea1b430ae6c5ULL},
      {"B3 lrc622 flat scattered auto bal0 sequential", 0x143dc9ed21f5d93aULL},
      {"B3 lrc622 flat scattered auto bal1 fastpr", 0x6e4a867d40192409ULL},
      {"B3 lrc622 flat scattered auto bal1 sequential", 0x1c9ca6cc8e0f7ce0ULL},
      {"B3 lrc622 flat hot-standby fanin bal0 fastpr", 0x58f62cbb56fcecdaULL},
      {"B3 lrc622 flat hot-standby fanin bal0 sequential", 0x9fa7cec575c2d824ULL},
      {"B3 lrc622 flat hot-standby fanin bal1 fastpr", 0x58f62cbb56fcecdaULL},
      {"B3 lrc622 flat hot-standby fanin bal1 sequential", 0x9fa7cec575c2d824ULL},
      {"B3 lrc622 flat hot-standby chain bal0 fastpr", 0x92b3de2339f48666ULL},
      {"B3 lrc622 flat hot-standby chain bal0 sequential", 0x7deca10c317769bcULL},
      {"B3 lrc622 flat hot-standby chain bal1 fastpr", 0x92b3de2339f48666ULL},
      {"B3 lrc622 flat hot-standby chain bal1 sequential", 0x7deca10c317769bcULL},
      {"B3 lrc622 flat hot-standby auto bal0 fastpr", 0x532b450cad49bb86ULL},
      {"B3 lrc622 flat hot-standby auto bal0 sequential", 0x7deca10c317769bcULL},
      {"B3 lrc622 flat hot-standby auto bal1 fastpr", 0x532b450cad49bb86ULL},
      {"B3 lrc622 flat hot-standby auto bal1 sequential", 0x7deca10c317769bcULL},
      {"B3 lrc622 racked scattered chain bal0 fastpr", 0xf1ead263a7fa9c11ULL},
      {"B3 lrc622 racked scattered chain bal0 sequential", 0xcacd80dbdb5e5dd1ULL},
      {"B3 lrc622 racked scattered chain bal1 fastpr", 0xf1ead263a7fa9c11ULL},
      {"B3 lrc622 racked scattered chain bal1 sequential", 0xcacd80dbdb5e5dd1ULL},
      {"B3 lrc622 racked scattered auto bal0 fastpr", 0xf1ead263a7fa9c11ULL},
      {"B3 lrc622 racked scattered auto bal0 sequential", 0xcacd80dbdb5e5dd1ULL},
      {"B3 lrc622 racked scattered auto bal1 fastpr", 0xf1ead263a7fa9c11ULL},
      {"B3 lrc622 racked scattered auto bal1 sequential", 0xcacd80dbdb5e5dd1ULL},
      {"B3 lrc622 racked hot-standby fanin bal0 fastpr", 0x831f789094bdd4feULL},
      {"B3 lrc622 racked hot-standby fanin bal0 sequential", 0x15600f2b67fc10a3ULL},
      {"B3 lrc622 racked hot-standby fanin bal1 fastpr", 0x831f789094bdd4feULL},
      {"B3 lrc622 racked hot-standby fanin bal1 sequential", 0x15600f2b67fc10a3ULL},
      {"B3 lrc622 racked hot-standby chain bal0 fastpr", 0x763f02beef078ba5ULL},
      {"B3 lrc622 racked hot-standby chain bal0 sequential", 0x21b5c5f2886ec9d3ULL},
      {"B3 lrc622 racked hot-standby chain bal1 fastpr", 0x763f02beef078ba5ULL},
      {"B3 lrc622 racked hot-standby chain bal1 sequential", 0x21b5c5f2886ec9d3ULL},
      {"B3 lrc622 racked hot-standby auto bal0 fastpr", 0x763f02beef078ba5ULL},
      {"B3 lrc622 racked hot-standby auto bal0 sequential", 0x21b5c5f2886ec9d3ULL},
      {"B3 lrc622 racked hot-standby auto bal1 fastpr", 0x763f02beef078ba5ULL},
      {"B3 lrc622 racked hot-standby auto bal1 sequential", 0x21b5c5f2886ec9d3ULL},
  };
  return table;
}
// clang-format on

TEST(PlanDigests, EveryPlannerReproducesGoldenDigests) {
  size_t checked = 0;
  for_each_case([&](const Config& c, Method m) {
    const std::string key = key_of(c, m);
    const auto it = golden().find(key);
    if (it == golden().end()) return;  // does not plan; not recorded
    SCOPED_TRACE(key);
    uint64_t actual = 0;
    EXPECT_NO_THROW(actual = plan_digest(c, m));
    EXPECT_EQ(actual, it->second)
        << "now: {\"" << key << "\", 0x" << std::hex << actual << "ULL}";
    ++checked;
  });
  EXPECT_EQ(checked, golden().size()) << "golden key matches no swept case";
}

}  // namespace
}  // namespace fastpr
