// Conventional reactive repair after ACTUAL failures (single or multi).
//
// This is the paper's baseline world — what a cluster must do when a
// failure was not predicted (or when several nodes fail within a
// stripe, where §II-B says FastPR "resorts to the conventional reactive
// repair"). Lost chunks are reconstructed from surviving helpers only;
// migration is impossible because the failed nodes are gone. The same
// reconstruction-set machinery parallelizes rounds, and stripes that
// lost more chunks than the code tolerates are reported as data loss.
#pragma once

#include <vector>

#include "cluster/cluster_state.h"
#include "cluster/stripe_layout.h"
#include "core/cost_model.h"
#include "core/recon_sets.h"
#include "core/repair_plan.h"

namespace fastpr::core {

struct ReactiveOptions {
  Scenario scenario = Scenario::kScattered;
  /// Helper chunks per repair (k for RS; per-chunk counts when `code`
  /// is set).
  int k_repair = 6;
  double chunk_bytes = 0;
  const ec::ErasureCode* code = nullptr;
  /// Algorithm 1 knobs: callers choose `optimize` and
  /// `chunk_group_size`; the planner derives `max_set_size`.
  ReconSetOptions recon;
};

struct ReactiveResult {
  RepairPlan plan;
  /// Chunks whose stripes lost more than the code tolerates — data loss.
  std::vector<cluster::ChunkRef> unrecoverable;
  /// Chunks scheduled in dedicated degraded rounds because their
  /// preferred helper candidates are partly gone (LRC local group
  /// damaged and rebuilt through global parities).
  int degraded_repairs = 0;
};

class ReactivePlanner {
 public:
  /// Every node in `failed` is treated as dead: its chunks are lost and
  /// it cannot serve reads. `failed` nodes should also be kFailed in
  /// `cluster` (destinations/ helpers are drawn from healthy nodes).
  ReactivePlanner(const cluster::StripeLayout& layout,
                  const cluster::ClusterState& cluster,
                  const ReactiveOptions& options);

  ReactiveResult plan(const std::vector<cluster::NodeId>& failed);

  /// Plans an explicit chunk list instead of "everything on the failed
  /// nodes" — the mid-repair degradation path (DESIGN.md §7): `lost`
  /// are the chunks still needing repair, `dead` the nodes that cannot
  /// serve reads or receive chunks (the dead STF plus any helper or
  /// destination that stopped responding). plan(failed) is the special
  /// case lost = all chunks on `failed`.
  ReactiveResult plan_chunks(const std::vector<cluster::ChunkRef>& lost,
                             const std::vector<cluster::NodeId>& dead);

 private:
  const cluster::StripeLayout& layout_;
  const cluster::ClusterState& cluster_;
  ReactiveOptions options_;
};

/// Validation for reactive plans: every recoverable lost chunk repaired
/// exactly once from surviving nodes, fault tolerance preserved.
void validate_reactive_plan(const ReactiveResult& result,
                            const cluster::StripeLayout& layout,
                            const cluster::ClusterState& cluster,
                            const std::vector<cluster::NodeId>& failed);

}  // namespace fastpr::core
