// FastPR planner facade: cluster metadata + flagged STF nodes in,
// RepairPlan out.
//
// Plans every node flagged soon-to-fail as one batch (DESIGN.md §8):
// Algorithm 1 runs over the union of the members' chunks and Algorithm 2
// gives each member's disk its own migration stream. The paper's single
// STF node is the batch of one.
//
// Also builds the two baseline plans the paper evaluates against:
//  * migration-only — every chunk relocated off the STF node;
//  * reconstruction-only — every chunk decoded (this is the conventional
//    reactive repair, executed proactively).
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/cluster_state.h"
#include "cluster/stripe_layout.h"
#include "core/cost_model.h"
#include "core/recon_sets.h"
#include "core/repair_plan.h"
#include "core/scheduler.h"
#include "net/topology.h"

namespace fastpr::core {

/// Output of the mid-repair reactive replan (the STF node died during
/// plan execution).
struct ReactiveReplan {
  /// Reconstruction-only rounds for the chunks not yet handled.
  RepairPlan plan;
  /// Chunks whose stripes retain fewer than k live chunks — data loss.
  std::vector<cluster::ChunkRef> unrepairable;
  /// Chunks rebuilt through the code's degraded path (LRC global
  /// parities when the local group is damaged).
  int degraded_repairs = 0;
};

struct PlannerOptions {
  Scenario scenario = Scenario::kScattered;
  /// Helper chunks fetched per repaired chunk (k for RS, k/l for LRC).
  /// Feeds the cost model; also the matching fetch count when no `code`
  /// is given.
  int k_repair = 6;
  double chunk_bytes = 0;
  /// Wire packet size, needed by the chain strategy's round-time model
  /// (0 = unknown → StrategyChoice::kAuto resolves to fan-in).
  double packet_bytes = 0;
  /// Per-forward overhead of a chain hop (ModelParams field of the same
  /// name); keep equal to the testbed's charge so kAuto decides on the
  /// same numbers the execution will show.
  double chain_hop_overhead_seconds = 0;
  /// Optional erasure code: when set, the matching honors the code's
  /// per-chunk helper counts and candidate sets (LRC locality). Must
  /// outlive the planner.
  const ec::ErasureCode* code = nullptr;
  /// Load-aware scattered destinations (min-cost matching on current
  /// chunk counts) instead of an arbitrary maximum matching.
  bool balance_destinations = false;
  /// Rack topology (DESIGN.md §11). When multi-rack, the cost model
  /// charges cross-rack transfers the oversubscription penalty and
  /// scattered placement turns rack-aware (rack-interleaved helper
  /// reads, failure-domain invariant, in-rack migrations, destination
  /// spreading); Algorithm 1 ignores racks. Null or single-rack: flat
  /// planning, bit-identical to the legacy path. Must outlive the
  /// planner.
  const net::Topology* topology = nullptr;
  /// Algorithm 1 knobs: callers choose `optimize` and
  /// `chunk_group_size`; the planner derives `max_set_size` itself.
  ReconSetOptions recon;
  SchedulerOptions sched;
};

class FastPrPlanner {
 public:
  /// Plans for every node flagged soon-to-fail in `cluster` (at least
  /// one). Both references must outlive the planner.
  FastPrPlanner(const cluster::StripeLayout& layout,
                const cluster::ClusterState& cluster,
                const PlannerOptions& options);

  /// The flagged STF nodes, ascending.
  const std::vector<cluster::NodeId>& batch() const { return batch_; }

  /// The coupled migration+reconstruction plan (Algorithms 1 and 2):
  /// Algorithm 1 over the union of the batch's chunks, Algorithm 2 with
  /// one migration quota per member sharing each round.
  RepairPlan plan_fastpr();

  /// Baseline for a batch: each member planned alone and the plans
  /// executed back to back (concatenated rounds, shared cross-round
  /// destination memory). Equals plan_fastpr for a batch of one.
  RepairPlan plan_sequential();

  /// Baseline: one reconstruction set per round, no migration. Single
  /// STF node only.
  RepairPlan plan_reconstruction_only();

  /// Baseline: migrate everything, destinations spread for balance.
  /// Single STF node only.
  RepairPlan plan_migration_only();

  /// Mid-repair degradation (DESIGN.md §7): the STF node died after
  /// `already_repaired` chunks were handled (repaired or abandoned);
  /// `failed` lists every other node declared dead during execution.
  /// Plans pure reactive reconstruction of the remaining STF chunks,
  /// drawing helpers and destinations only from nodes still alive.
  /// Covers the first batch member only.
  ReactiveReplan plan_reactive(
      const std::vector<cluster::ChunkRef>& already_repaired,
      const std::vector<cluster::NodeId>& failed);

  /// Mid-repair bandwidth replan (DESIGN.md §11): the STF node is still
  /// alive but measured link bandwidth drifted far from the model, so
  /// the remaining rounds are replanned from scratch. Re-runs Algorithm
  /// 1 + 2 over the chunks not in `already_repaired`, planning around
  /// the `deprioritized` nodes (the straggling-link endpoints)
  /// structurally: chunks that can reach k' helpers without them form
  /// their reconstruction sets over the reduced source list, so those
  /// rounds carry zero straggler reads by construction; chunks whose
  /// stripes need a straggler fall back to the full list, and placement
  /// keeps reads off the stragglers wherever a round allows it. Never
  /// sacrifices repairability — only read placement. Covers the first
  /// batch member only.
  RepairPlan plan_fastpr_remaining(
      const std::vector<cluster::ChunkRef>& already_repaired,
      const std::vector<cluster::NodeId>& deprioritized);

  /// The §III analysis instantiated for this cluster (B = batch size,
  /// U = chunks across the batch, M = storage-node count, bandwidths
  /// from the cluster; Equations 1–6 at B = 1).
  CostModel cost_model() const;

  /// Stats of the last Algorithm 1 run.
  const ReconSetStats& recon_stats() const { return recon_stats_; }

 private:
  std::vector<cluster::NodeId> source_nodes() const;
  std::vector<cluster::NodeId> dest_nodes() const;
  /// Largest per-round repair count for which a scattered destination
  /// matching is guaranteed (Hall): |dest| - (n-1). A stripe with b STF
  /// chunks excludes its n-b surviving holders plus at most b-1
  /// destinations used earlier in the plan — n-1 for any batch.
  int scattered_round_capacity() const;

  ReconSetOptions effective_recon_options() const;
  SchedulerOptions scheduler_options() const;
  ModelParams model_params(int stf_chunks, int batch) const;
  /// The single-STF model of one member (plan_sequential's per-member
  /// schedule, and the single-STF entry points).
  CostModel member_cost_model(cluster::NodeId stf) const;

  /// The batch's chunks in member order, with the chunks whose stripes
  /// the batch itself left with fewer than k' healthy helpers moved to
  /// `forced` — reconstruction is impossible, so they are scheduled as
  /// migrations (order-stable partition; never fires for one member).
  std::vector<cluster::ChunkRef> searchable_chunks(
      const std::vector<cluster::NodeId>& members,
      std::vector<cluster::ChunkRef>* forced) const;

  /// The first member's chunks not in `handled`, in layout order (the
  /// replan entry points' work list).
  std::vector<cluster::ChunkRef> remaining_chunks(
      const std::vector<cluster::ChunkRef>& handled) const;

  /// Algorithm 1 output over the batch's searchable chunks, computed
  /// once and shared by plan_fastpr and plan_reconstruction_only.
  const std::vector<std::vector<cluster::ChunkRef>>& recon_sets();

  /// Assigns sources and destinations to scheduled rounds; `members`
  /// are the STF nodes the rounds repair.
  RepairPlan place(const std::vector<ScheduledRound>& rounds,
                   const std::vector<cluster::NodeId>& members,
                   const std::vector<cluster::NodeId>* deprioritized =
                       nullptr) const;

  const cluster::StripeLayout& layout_;
  const cluster::ClusterState& cluster_;
  PlannerOptions options_;
  std::vector<cluster::NodeId> batch_;
  cluster::NodeId stf_;  // batch_.front()
  ReconSetStats recon_stats_;
  std::vector<std::vector<cluster::ChunkRef>> cached_sets_;
  std::vector<cluster::ChunkRef> forced_;
  bool sets_ready_ = false;
};

}  // namespace fastpr::core
