// Turns a scheduled round into executable tasks (§IV-A):
//  * source selection — a bipartite matching assigns each reconstructed
//    chunk k helper reads on k distinct healthy nodes (one read per
//    node per round);
//  * destination selection — scattered repair matches each repaired
//    stripe to a healthy node that holds none of its chunks (Hall's
//    theorem guarantees a perfect matching when M - n >= cm + cr);
//    hot-standby repair spreads destinations round-robin over the spares.
#pragma once

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cluster/cluster_state.h"
#include "cluster/stripe_layout.h"
#include "core/cost_model.h"
#include "core/repair_plan.h"
#include "core/scheduler.h"
#include "ec/erasure_code.h"
#include "net/topology.h"

namespace fastpr::core {

/// Cross-round destination memory for multi-STF plans (DESIGN.md §8). A
/// stripe that loses chunks on several STF nodes is repaired across
/// rounds; §IV-A distinctness then requires that no destination receive
/// two of its chunks over the WHOLE plan, not just within one round.
/// Single-STF plans repair each stripe at most once, so the overlay
/// never fires there.
class PlacedOverlay {
 public:
  bool used(cluster::StripeId stripe, cluster::NodeId node) const {
    const auto it = placed_.find(stripe);
    return it != placed_.end() && it->second.count(node) > 0;
  }
  void record(cluster::StripeId stripe, cluster::NodeId node) {
    placed_[stripe].insert(node);
  }

  /// Rack-level analog for topology-aware plans (DESIGN.md §11): racks
  /// that already received a repaired chunk of `stripe` earlier in the
  /// plan. Recorded only by the rack-aware scattered path; hot-standby
  /// spares are exempt from the rack invariant.
  bool used_rack(cluster::StripeId stripe, int rack) const {
    const auto it = racks_.find(stripe);
    return it != racks_.end() && it->second.count(rack) > 0;
  }
  void record_rack(cluster::StripeId stripe, int rack) {
    racks_[stripe].insert(rack);
  }

 private:
  std::unordered_map<cluster::StripeId,
                     std::unordered_set<cluster::NodeId>>
      placed_;
  std::unordered_map<cluster::StripeId, std::unordered_set<int>> racks_;
};

/// Assigns sources and destinations for one scheduled round.
/// `stf_batch`: the STF nodes being repaired (DESIGN.md §8); every
/// member is excluded from sources and destinations, and each
/// migration's src is the member storing the chunk (a one-node batch
/// reads from that node unconditionally; reactive rounds pass kNoNode
/// and never migrate).
/// `source_nodes`: healthy nodes eligible for helper reads.
/// `dest_nodes`: scattered → healthy storage nodes; hot-standby → spares.
/// `standby_cursor`: round-robin state across rounds (hot-standby only).
/// When `code` is given, per-chunk helper counts and candidate indices
/// come from it (LRC locality); otherwise RS semantics with k_repair.
/// `balance_destinations`: pick the scattered destination matching that
/// minimizes total destination load (min-cost matching over current
/// chunk counts) instead of an arbitrary maximum matching.
/// `placed` (optional) vetoes destinations already used for the same
/// stripe earlier in the plan and records this round's assignments.
///
/// `topology` (optional, DESIGN.md §11) activates rack-aware placement
/// when it names more than one rack: scattered destinations additionally
/// honor the failure-domain invariant (no rack ends up with two chunks
/// of one stripe after the plan applies) and are chosen greedily to
/// prefer in-rack migrations and to spread each round's repaired chunks
/// across racks (balancing the shared rack downlinks); helper reads are
/// biased toward racks with fewer scheduled reads this round. Flat or
/// single-rack topologies take the exact legacy code path, bit-identical
/// plans included. Hot-standby spares stay exempt from the rack
/// invariant (they live in an overflow rack of their own).
///
/// `deprioritized` (optional, DESIGN.md §11): nodes whose helper reads
/// the matching should avoid when any alternative exists — degraded
/// links reported by the bandwidth replan trigger. A preference, never
/// a feasibility constraint: a chunk whose only eligible helpers are
/// deprioritized still gets them. Null/empty leaves the assignment
/// bit-identical.
RepairRound assign_round(
    const cluster::StripeLayout& layout,
    const std::vector<cluster::NodeId>& stf_batch,
    const std::vector<cluster::NodeId>& source_nodes,
    const std::vector<cluster::NodeId>& dest_nodes, Scenario scenario,
    int k_repair, const ScheduledRound& round, int* standby_cursor,
    const ec::ErasureCode* code = nullptr,
    bool balance_destinations = false, PlacedOverlay* placed = nullptr,
    const net::Topology* topology = nullptr,
    const std::vector<cluster::NodeId>* deprioritized = nullptr);

}  // namespace fastpr::core
