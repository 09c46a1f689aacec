#include "core/reactive.h"

#include <algorithm>
#include <unordered_set>

#include "core/placement.h"
#include "util/check.h"

namespace fastpr::core {

using cluster::ChunkRef;
using cluster::NodeId;

ReactivePlanner::ReactivePlanner(const cluster::StripeLayout& layout,
                                 const cluster::ClusterState& cluster,
                                 const ReactiveOptions& options)
    : layout_(layout), cluster_(cluster), options_(options) {
  FASTPR_CHECK(options.k_repair >= 1);
  FASTPR_CHECK(options.chunk_bytes > 0);
}

ReactiveResult ReactivePlanner::plan(const std::vector<NodeId>& failed) {
  FASTPR_CHECK(!failed.empty());
  std::vector<ChunkRef> lost;
  for (NodeId node : failed) {
    for (ChunkRef chunk : layout_.chunks_on(node)) lost.push_back(chunk);
  }
  return plan_chunks(lost, failed);
}

ReactiveResult ReactivePlanner::plan_chunks(
    const std::vector<ChunkRef>& lost, const std::vector<NodeId>& dead) {
  FASTPR_CHECK(!dead.empty());
  std::unordered_set<NodeId> dead_set(dead.begin(), dead.end());

  // Sources: healthy storage nodes that did not die. Destinations get
  // the same filter — a dead hot-standby spare cannot absorb chunks.
  std::vector<NodeId> healthy;
  for (NodeId n : cluster_.healthy_storage_nodes()) {
    if (dead_set.count(n) == 0) healthy.push_back(n);
  }
  std::unordered_set<NodeId> healthy_set(healthy.begin(), healthy.end());
  std::vector<NodeId> dests;
  if (options_.scenario == Scenario::kScattered) {
    dests = healthy;
  } else {
    for (NodeId n : cluster_.hot_standby_nodes()) {
      if (dead_set.count(n) == 0) dests.push_back(n);
    }
  }

  ReactiveResult result;
  result.plan.stf_node = dead.front();  // representative id for reports

  // Classify every lost chunk.
  std::vector<ChunkRef> matchable;
  struct Degraded {
    ChunkRef chunk;
    std::vector<int> helpers;  // stripe indices
  };
  std::vector<Degraded> degraded;

  for (ChunkRef chunk : lost) {
    const auto& nodes = layout_.stripe_nodes(chunk.stripe);

    // Availability by stripe index.
    std::vector<bool> available(nodes.size());
    for (size_t i = 0; i < nodes.size(); ++i) {
      available[i] = healthy_set.count(nodes[i]) != 0;
    }

    // Preferred candidates that survived.
    int surviving_candidates = 0;
    if (options_.code != nullptr) {
      for (int idx : options_.code->helper_candidates(chunk.index)) {
        if (available[static_cast<size_t>(idx)]) ++surviving_candidates;
      }
    } else {
      for (size_t i = 0; i < nodes.size(); ++i) {
        if (static_cast<int>(i) != chunk.index && available[i]) {
          ++surviving_candidates;
        }
      }
    }
    const int needed = options_.code != nullptr
                           ? options_.code->repair_fetch_count(chunk.index)
                           : options_.k_repair;

    if (surviving_candidates >= needed) {
      matchable.push_back(chunk);
      continue;
    }
    // Degraded path: let the code pick any decodable helper set
    // (LRC rebuilds through global parities when a local group is
    // damaged). Unrecoverable when even that fails.
    if (options_.code != nullptr) {
      try {
        degraded.push_back(Degraded{
            chunk, options_.code->repair_helpers(chunk.index, available)});
        continue;
      } catch (const CheckFailure&) {
        // fall through to unrecoverable
      }
    }
    result.unrecoverable.push_back(chunk);
  }

  // Matched chunks: partition into reconstruction sets, one round each.
  ReconSetOptions recon = options_.recon;
  if (options_.scenario == Scenario::kScattered) {
    const int cap = static_cast<int>(dests.size()) -
                    (layout_.chunks_per_stripe() - 1);
    FASTPR_CHECK_MSG(cap >= 1, "cluster too small for scattered repair");
    recon.max_set_size =
        recon.max_set_size > 0 ? std::min(recon.max_set_size, cap) : cap;
  }
  const auto sets = find_reconstruction_sets_for(
      matchable, layout_, healthy, options_.k_repair, recon, nullptr,
      options_.code);

  int standby_cursor = 0;
  for (const auto& set : sets) {
    ScheduledRound round;
    round.reconstruct = set;
    result.plan.rounds.push_back(
        assign_round(layout_, {cluster::kNoNode}, healthy, dests,
                     options_.scenario, options_.k_repair, round,
                     &standby_cursor, options_.code));
  }

  // Degraded chunks: one dedicated round each (their helper sets are
  // hand-picked by the code and may not fit the matching's candidate
  // structure).
  for (const auto& d : degraded) {
    ++result.degraded_repairs;
    ReconstructionTask task;
    task.chunk = d.chunk;
    const auto& nodes = layout_.stripe_nodes(d.chunk.stripe);
    for (int idx : d.helpers) {
      task.sources.push_back(SourceRead{
          nodes[static_cast<size_t>(idx)], ChunkRef{d.chunk.stripe, idx}});
    }
    // Destination: least-loaded eligible node (scattered) or round-robin
    // spare.
    if (options_.scenario == Scenario::kHotStandby) {
      FASTPR_CHECK(!dests.empty());
      task.dst = dests[static_cast<size_t>(standby_cursor++) %
                       dests.size()];
    } else {
      NodeId best = cluster::kNoNode;
      for (NodeId n : dests) {
        if (layout_.stripe_uses_node(d.chunk.stripe, n)) continue;
        if (best == cluster::kNoNode ||
            layout_.load(n) < layout_.load(best)) {
          best = n;
        }
      }
      FASTPR_CHECK_MSG(best != cluster::kNoNode,
                       "no destination for degraded repair");
      task.dst = best;
    }
    RepairRound round;
    round.reconstructions.push_back(std::move(task));
    result.plan.rounds.push_back(std::move(round));
  }
  return result;
}

void validate_reactive_plan(const ReactiveResult& result,
                            const cluster::StripeLayout& layout,
                            const cluster::ClusterState& cluster,
                            const std::vector<NodeId>& failed) {
  std::unordered_set<NodeId> failed_set(failed.begin(), failed.end());

  std::unordered_set<ChunkRef, cluster::ChunkRefHash> expected;
  for (NodeId node : failed) {
    for (ChunkRef c : layout.chunks_on(node)) expected.insert(c);
  }
  for (ChunkRef c : result.unrecoverable) {
    FASTPR_CHECK_MSG(expected.erase(c) == 1,
                     "unrecoverable chunk was not actually lost");
  }

  std::unordered_set<ChunkRef, cluster::ChunkRefHash> seen;
  for (const auto& round : result.plan.rounds) {
    FASTPR_CHECK_MSG(round.migrations.empty(),
                     "reactive repair cannot migrate from dead nodes");
    std::unordered_set<NodeId> round_sources;
    std::unordered_set<NodeId> round_dests;
    for (const auto& task : round.reconstructions) {
      FASTPR_CHECK_MSG(failed_set.count(layout.node_of(task.chunk)) == 1,
                       "repaired chunk was not lost");
      FASTPR_CHECK_MSG(seen.insert(task.chunk).second,
                       "chunk repaired twice");
      FASTPR_CHECK(!task.sources.empty());
      for (const auto& src : task.sources) {
        FASTPR_CHECK_MSG(failed_set.count(src.node) == 0,
                         "helper read from a failed node");
        FASTPR_CHECK(cluster.health(src.node) ==
                     cluster::NodeHealth::kHealthy);
        FASTPR_CHECK(src.chunk.stripe == task.chunk.stripe);
        FASTPR_CHECK(src.chunk.index != task.chunk.index);
        FASTPR_CHECK(layout.node_of(src.chunk) == src.node);
        FASTPR_CHECK_MSG(round_sources.insert(src.node).second,
                         "node reads twice in one round");
      }
      FASTPR_CHECK(task.dst != cluster::kNoNode);
      FASTPR_CHECK(failed_set.count(task.dst) == 0);
      if (!cluster.is_hot_standby(task.dst)) {
        FASTPR_CHECK_MSG(
            !layout.stripe_uses_node(task.chunk.stripe, task.dst),
            "destination breaks stripe distinctness");
        FASTPR_CHECK_MSG(round_dests.insert(task.dst).second,
                         "scattered destination reused in round");
      }
    }
  }
  FASTPR_CHECK_MSG(seen.size() == expected.size(),
                   "plan repairs " << seen.size() << " of "
                                   << expected.size()
                                   << " recoverable chunks");
}

}  // namespace fastpr::core
