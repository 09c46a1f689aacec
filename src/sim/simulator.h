// Repair-time simulator.
//
// Mirrors the paper's single-machine simulator (§VI-A): the planning
// algorithms run for real, while disk I/O and network transfers are
// replaced by computed execution times from the input bandwidths.
//
// Two timing models:
//  * kPaperModel — the §III decomposition exactly: a round costs
//    max(migrations·tm, tr), with tr from Eq. (5)/(6). This is what the
//    paper's simulator computes and what Figures 8–10 plot.
//  * kResourceModel — per-node accounting: every node's disk moves
//    (reads+writes)/bd and its NIC max(tx,rx)/bn; a round lasts as long
//    as its busiest resource (plus the single-chunk pipeline floor).
//    Used as an ablation to show the conclusions survive a contention-
//    aware model.
#pragma once

#include <vector>

#include "core/cost_model.h"
#include "core/repair_plan.h"
#include "net/topology.h"

namespace fastpr::sim {

enum class TimingModel { kPaperModel, kResourceModel };

struct SimParams {
  double chunk_bytes = 0;
  double disk_bw = 0;
  double net_bw = 0;
  int k_repair = 0;
  /// Per-helper traffic fraction (1.0 RS/LRC; 1/(d-k+1) for MSR).
  double helper_bytes_fraction = 1.0;
  int hot_standby = 1;          // h (hot-standby only)
  core::Scenario scenario = core::Scenario::kScattered;
  TimingModel model = TimingModel::kPaperModel;
  /// Packet size of chain (repair-pipelining) rounds. Required (> 0)
  /// when a round carries RepairStrategy::kChain; ignored for fan-in.
  double packet_bytes = 0;
  /// Per-forward store-and-forward cost of a chain hop (see
  /// core::ModelParams::chain_hop_overhead_seconds).
  double chain_hop_overhead_seconds = 0;
  /// Rack topology (DESIGN.md §11). With topo_racks > 1 and
  /// oversubscription > 1, each round additionally pays for the busiest
  /// rack uplink/downlink: all cross-rack bytes of a rack share
  /// topo_nodes_per_rack · net_bw / oversubscription, and the round
  /// lasts at least as long as the busiest shared link. Racks are the
  /// block mapping node / topo_nodes_per_rack (net::Topology). The
  /// defaults (single rack, factor 1) leave every round time
  /// bit-identical to the flat simulator.
  int topo_racks = 1;
  int topo_nodes_per_rack = 0;
  double oversubscription = net::Oversub(1.0);
};

struct SimResult {
  double total_time = 0;
  std::vector<double> round_times;
  int migrated = 0;
  int reconstructed = 0;
  long repair_traffic_chunks = 0;  // chunks moved over the network

  int repaired() const { return migrated + reconstructed; }
  double per_chunk() const {
    return repaired() == 0 ? 0.0 : total_time / repaired();
  }
};

/// Replays `plan` against the timing model and accumulates round times.
SimResult simulate(const core::RepairPlan& plan, const SimParams& params);

}  // namespace fastpr::sim
