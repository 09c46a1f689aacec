#include "core/placement.h"

#include <algorithm>
#include <deque>
#include <tuple>
#include <unordered_map>
#include <unordered_set>

#include "matching/bipartite_graph.h"
#include "matching/hopcroft_karp.h"
#include "matching/min_cost_matching.h"
#include "matching/incremental_matching.h"
#include "util/check.h"

namespace fastpr::core {

namespace {

using cluster::ChunkRef;
using cluster::NodeId;
using cluster::StripeLayout;

/// Helper chunk stored by `node` for `stripe` (node must hold exactly
/// one — stripes never co-locate).
ChunkRef chunk_of_stripe_on(const StripeLayout& layout,
                            cluster::StripeId stripe, NodeId node) {
  const auto& nodes = layout.stripe_nodes(stripe);
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i] == node) {
      return ChunkRef{stripe, static_cast<int32_t>(i)};
    }
  }
  FASTPR_CHECK_MSG(false, "node " << node << " holds no chunk of stripe "
                                  << stripe);
  return {};
}

}  // namespace

RepairRound assign_round(const StripeLayout& layout,
                         const std::vector<NodeId>& stf_batch,
                         const std::vector<NodeId>& source_nodes,
                         const std::vector<NodeId>& dest_nodes,
                         Scenario scenario, int k_repair,
                         const ScheduledRound& round, int* standby_cursor,
                         const ec::ErasureCode* code,
                         bool balance_destinations, PlacedOverlay* placed,
                         int helper_reads_per_node,
                         const net::Topology* topology,
                         const std::vector<NodeId>* deprioritized) {
  FASTPR_CHECK(!stf_batch.empty());
  FASTPR_CHECK(helper_reads_per_node >= 1);
  const bool rack_aware = topology != nullptr && !topology->is_flat();
  std::unordered_set<NodeId> avoid;
  if (deprioritized != nullptr) {
    avoid.insert(deprioritized->begin(), deprioritized->end());
  }
  const std::unordered_set<NodeId> stf_set(stf_batch.begin(),
                                           stf_batch.end());
  RepairRound out;
  out.strategy = round.strategy;

  // ---- Source selection (Figure 4(b) matching). ----
  std::unordered_map<NodeId, int> left_of_node;
  for (size_t i = 0; i < source_nodes.size(); ++i) {
    left_of_node[source_nodes[i]] = static_cast<int>(i);
  }
  const auto fetch_count = [&](ChunkRef chunk) {
    return code != nullptr ? code->repair_fetch_count(chunk.index)
                           : k_repair;
  };
  matching::IncrementalMatcher matcher(
      static_cast<int>(source_nodes.size()), helper_reads_per_node);
  std::deque<std::vector<int>> adjacency_store;  // stable for the matcher
  // Rack-aware helper bias (DESIGN.md §11): the matcher prefers earlier
  // adjacency entries, so listing candidates from lightly-read racks
  // first spreads the round's helper reads over rack uplinks. The
  // counts are approximate (later augmenting paths may reroute earlier
  // reads) — this is a preference, never a feasibility constraint.
  //
  // Deprioritized helpers (bandwidth-replan stragglers): one pass tries
  // the whole round with the avoided nodes REMOVED from every adjacency
  // — ordering alone is too weak once the round's matching saturates,
  // because augmenting paths reroute onto whatever is left regardless
  // of preference. Only if that round-wide attempt is infeasible does
  // the round fall back to the full adjacency (avoided candidates
  // last), keeping the preference-not-constraint contract.
  const auto try_build = [&](bool filtered) -> bool {
    std::unordered_map<int, int> rack_reads;
    int rack_right = 0;
    for (ChunkRef chunk : round.reconstruct) {
      const auto& nodes = layout.stripe_nodes(chunk.stripe);
      std::vector<int> adj;
      auto consider = [&](NodeId node) {
        if (stf_set.count(node) > 0) return;
        if (filtered && avoid.count(node) > 0) return;
        const auto it = left_of_node.find(node);
        if (it != left_of_node.end()) adj.push_back(it->second);
      };
      if (code != nullptr) {
        for (int idx : code->helper_candidates(chunk.index)) {
          consider(nodes[static_cast<size_t>(idx)]);
        }
      } else {
        for (NodeId node : nodes) consider(node);
      }
      const int k_this = fetch_count(chunk);
      if (filtered && static_cast<int>(adj.size()) < k_this) return false;
      if (rack_aware || !avoid.empty()) {
        const auto avoided = [&](int left) {
          return avoid.count(source_nodes[static_cast<size_t>(left)]) > 0;
        };
        std::stable_sort(adj.begin(), adj.end(), [&](int a, int b) {
          const bool av_a = avoided(a);
          const bool av_b = avoided(b);
          if (av_a != av_b) return !av_a;
          if (!rack_aware) return false;
          const int ra =
              topology->rack_of(source_nodes[static_cast<size_t>(a)]);
          const int rb =
              topology->rack_of(source_nodes[static_cast<size_t>(b)]);
          return rack_reads[ra] < rack_reads[rb];
        });
      }
      adjacency_store.push_back(std::move(adj));
      if (!matcher.try_add_group(adjacency_store.back(), k_this)) {
        if (filtered) return false;
        FASTPR_CHECK_MSG(
            false,
            "scheduled reconstruction set is not matchable — Algorithm 1 "
            "invariant violated");
      }
      if (rack_aware) {
        for (int t = 0; t < k_this; ++t, ++rack_right) {
          const int left = matcher.matched_left(rack_right);
          ++rack_reads[topology->rack_of(
              source_nodes[static_cast<size_t>(left)])];
        }
      }
    }
    return true;
  };
  if (avoid.empty() || !try_build(/*filtered=*/true)) {
    matcher.reset();
    adjacency_store.clear();
    try_build(/*filtered=*/false);
  }
  // Extract the k helper reads per reconstructed chunk.
  {
    int right = 0;
    for (ChunkRef chunk : round.reconstruct) {
      ReconstructionTask task;
      task.chunk = chunk;
      task.strategy = round.strategy;
      const int k_this = fetch_count(chunk);
      for (int t = 0; t < k_this; ++t, ++right) {
        const int left = matcher.matched_left(right);
        const NodeId node = source_nodes[static_cast<size_t>(left)];
        task.sources.push_back(
            SourceRead{node, chunk_of_stripe_on(layout, chunk.stripe, node)});
      }
      out.reconstructions.push_back(std::move(task));
    }
  }

  // ---- Migration tasks (destinations filled below). ----
  // A one-node batch keeps the historical contract of reading from the
  // caller's STF node unconditionally (reactive rounds pass kNoNode and
  // never migrate); a real batch reads each chunk off the member disk
  // that stores it.
  for (ChunkRef chunk : round.migrate) {
    NodeId src = stf_batch[0];
    if (stf_batch.size() > 1) {
      src = layout.node_of(chunk);
      FASTPR_CHECK_MSG(stf_set.count(src) > 0,
                       "migrated chunk is not stored on an STF batch node");
    }
    out.migrations.push_back(MigrationTask{chunk, src, cluster::kNoNode});
  }

  const auto commit = [&](cluster::StripeId stripe, NodeId dst) {
    if (placed != nullptr) placed->record(stripe, dst);
  };

  // ---- Destination selection. ----
  if (scenario == Scenario::kHotStandby) {
    FASTPR_CHECK(!dest_nodes.empty());
    FASTPR_CHECK(standby_cursor != nullptr);
    auto next_spare = [&](cluster::StripeId stripe) {
      const size_t base = static_cast<size_t>(*standby_cursor);
      ++*standby_cursor;
      for (size_t o = 0; o < dest_nodes.size(); ++o) {
        const NodeId node = dest_nodes[(base + o) % dest_nodes.size()];
        if (placed != nullptr && placed->used(stripe, node)) continue;
        commit(stripe, node);
        return node;
      }
      FASTPR_CHECK_MSG(false, "every hot-standby spare already holds a "
                              "repaired chunk of stripe "
                                  << stripe);
      return cluster::kNoNode;
    };
    for (auto& task : out.reconstructions) {
      task.dst = next_spare(task.chunk.stripe);
    }
    for (auto& task : out.migrations) {
      task.dst = next_spare(task.chunk.stripe);
    }
    return out;
  }

  const auto dest_eligible = [&](cluster::StripeId stripe, NodeId node) {
    if (stf_set.count(node) > 0) return false;
    if (layout.stripe_uses_node(stripe, node)) return false;
    if (placed != nullptr && placed->used(stripe, node)) return false;
    return true;
  };

  if (rack_aware) {
    // Rack-aware scattered destinations (DESIGN.md §11). The hard
    // invariant — no rack ends up holding two chunks of one stripe —
    // is per-(stripe, rack), which a node-level bipartite matching
    // cannot express when one stripe is repaired twice in a round, so
    // destinations are picked greedily: in-rack migrations first (the
    // chunk vacates its rack's node, so staying keeps rack-disjointness
    // and the transfer off the spine), then the rack with the fewest
    // repaired chunks this round (spreading load over the shared rack
    // downlinks), then the least-loaded node.
    std::unordered_map<cluster::StripeId, std::unordered_set<int>>
        round_racks;
    std::unordered_set<NodeId> used_nodes;
    std::unordered_map<int, int> rack_assigned;
    const auto holder_racks = [&](cluster::StripeId stripe) {
      // Racks holding a chunk of the stripe after the plan applies:
      // batch members' chunks are lost (reconstruction) or vacating
      // (migration), so their racks don't count.
      std::unordered_set<int> racks;
      for (NodeId node : layout.stripe_nodes(stripe)) {
        if (stf_set.count(node) > 0) continue;
        racks.insert(topology->rack_of(node));
      }
      return racks;
    };
    const auto pick_dest = [&](cluster::StripeId stripe,
                               NodeId migration_src) {
      const auto racks = holder_racks(stripe);
      const auto& stripe_round_racks = round_racks[stripe];
      NodeId best = cluster::kNoNode;
      std::tuple<int, int, int, NodeId> best_key;
      for (NodeId node : dest_nodes) {
        if (!dest_eligible(stripe, node)) continue;
        if (used_nodes.count(node) > 0) continue;
        const int rack = topology->rack_of(node);
        if (racks.count(rack) > 0) continue;
        if (stripe_round_racks.count(rack) > 0) continue;
        if (placed != nullptr && placed->used_rack(stripe, rack)) continue;
        const int cross = migration_src != cluster::kNoNode &&
                                  topology->same_rack(node, migration_src)
                              ? 0
                              : 1;
        const auto key = std::make_tuple(cross, rack_assigned[rack],
                                         layout.load(node), node);
        if (best == cluster::kNoNode || key < best_key) {
          best = node;
          best_key = key;
        }
      }
      FASTPR_CHECK_MSG(best != cluster::kNoNode,
                       "no rack-disjoint destination exists for stripe "
                           << stripe << " (need a rack holding none of "
                                        "its chunks with a free node)");
      const int rack = topology->rack_of(best);
      used_nodes.insert(best);
      ++rack_assigned[rack];
      round_racks[stripe].insert(rack);
      if (placed != nullptr) placed->record_rack(stripe, rack);
      commit(stripe, best);
      return best;
    };
    for (auto& task : out.reconstructions) {
      task.dst = pick_dest(task.chunk.stripe, cluster::kNoNode);
    }
    for (auto& task : out.migrations) {
      task.dst = pick_dest(task.chunk.stripe, task.src);
    }
    return out;
  }

  if (balance_destinations) {
    // Load-aware variant: min-cost matching with cost = current chunk
    // count of the candidate destination.
    matching::WeightedBipartiteGraph graph;
    graph.left_count = static_cast<int>(dest_nodes.size());
    auto weighted_adjacency = [&](cluster::StripeId stripe) {
      std::vector<std::pair<int, double>> adj;
      for (size_t i = 0; i < dest_nodes.size(); ++i) {
        const NodeId node = dest_nodes[i];
        if (dest_eligible(stripe, node)) {
          adj.emplace_back(static_cast<int>(i),
                           static_cast<double>(layout.load(node)));
        }
      }
      return adj;
    };
    for (const auto& task : out.reconstructions) {
      graph.add_right_vertex(weighted_adjacency(task.chunk.stripe));
    }
    for (const auto& task : out.migrations) {
      graph.add_right_vertex(weighted_adjacency(task.chunk.stripe));
    }
    const auto assignment = matching::min_cost_matching(graph);
    FASTPR_CHECK_MSG(assignment.has_value(),
                     "no destination assignment exists (balanced)");
    int right = 0;
    for (auto& task : out.reconstructions) {
      task.dst =
          dest_nodes[static_cast<size_t>((*assignment)[static_cast<size_t>(
              right++)])];
      commit(task.chunk.stripe, task.dst);
    }
    for (auto& task : out.migrations) {
      task.dst =
          dest_nodes[static_cast<size_t>((*assignment)[static_cast<size_t>(
              right++)])];
      commit(task.chunk.stripe, task.dst);
    }
    return out;
  }

  // Scattered (Figure 4(c) matching): one stripe vertex per repaired
  // chunk, adjacent to every destination candidate that holds none of
  // the stripe's chunks.
  matching::BipartiteGraph graph;
  graph.left_count = static_cast<int>(dest_nodes.size());
  auto stripe_adjacency = [&](cluster::StripeId stripe) {
    std::vector<int> adj;
    for (size_t i = 0; i < dest_nodes.size(); ++i) {
      const NodeId node = dest_nodes[i];
      if (dest_eligible(stripe, node)) {
        adj.push_back(static_cast<int>(i));
      }
    }
    return adj;
  };
  for (const auto& task : out.reconstructions) {
    graph.add_right_vertex(stripe_adjacency(task.chunk.stripe));
  }
  for (const auto& task : out.migrations) {
    graph.add_right_vertex(stripe_adjacency(task.chunk.stripe));
  }
  const auto matching = matching::hopcroft_karp(graph);
  FASTPR_CHECK_MSG(
      matching.is_perfect_on_right(),
      "no destination assignment exists: need M - n >= cm + cr (round of "
          << graph.right_count() << " repairs over " << dest_nodes.size()
          << " candidates)");
  int right = 0;
  for (auto& task : out.reconstructions) {
    task.dst = dest_nodes[static_cast<size_t>(
        matching.right_to_left[static_cast<size_t>(right++)])];
    commit(task.chunk.stripe, task.dst);
  }
  for (auto& task : out.migrations) {
    task.dst = dest_nodes[static_cast<size_t>(
        matching.right_to_left[static_cast<size_t>(right++)])];
    commit(task.chunk.stripe, task.dst);
  }
  return out;
}

}  // namespace fastpr::core
