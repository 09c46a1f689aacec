#include "core/fastpr.h"

#include <algorithm>
#include <limits>
#include <unordered_set>

#include "core/placement.h"
#include "core/reactive.h"
#include "telemetry/trace.h"
#include "util/check.h"

namespace fastpr::core {

using cluster::ChunkRef;
using cluster::NodeId;

namespace {

/// True when `chunk` can still be rebuilt from the nodes in `alive`: at
/// least its repair fetch count (k_repair, or the code's per-chunk
/// count) of its helper candidates are in the set.
bool reconstructable(const cluster::StripeLayout& layout,
                     const ec::ErasureCode* code, int k_repair,
                     ChunkRef chunk, const std::unordered_set<NodeId>& alive) {
  const auto& nodes = layout.stripe_nodes(chunk.stripe);
  int helpers = 0;
  if (code != nullptr) {
    for (int idx : code->helper_candidates(chunk.index)) {
      helpers += alive.count(nodes[static_cast<size_t>(idx)]) != 0;
    }
  } else {
    for (NodeId node : nodes) helpers += alive.count(node) != 0;
  }
  return helpers >=
         (code != nullptr ? code->repair_fetch_count(chunk.index) : k_repair);
}

/// Spreads forced migrations over the scheduled rounds, respecting the
/// per-round repair cap (scattered destination feasibility); rounds are
/// appended when every existing one is full. Deterministic round-robin
/// so plans stay reproducible.
void distribute_forced_migrations(std::vector<ScheduledRound>& rounds,
                                  const std::vector<ChunkRef>& forced,
                                  int round_cap) {
  if (forced.empty()) return;
  if (rounds.empty()) rounds.emplace_back();
  size_t next = 0;
  for (ChunkRef chunk : forced) {
    size_t tried = 0;
    while (round_cap > 0 && tried < rounds.size()) {
      const auto& r = rounds[next % rounds.size()];
      if (static_cast<int>(r.reconstruct.size() + r.migrate.size()) <
          round_cap) {
        break;
      }
      ++next;
      ++tried;
    }
    if (round_cap > 0 && tried == rounds.size()) {
      rounds.emplace_back();
      next = rounds.size() - 1;
    }
    rounds[next % rounds.size()].migrate.push_back(chunk);
    ++next;
  }
}

}  // namespace

FastPrPlanner::FastPrPlanner(const cluster::StripeLayout& layout,
                             const cluster::ClusterState& cluster,
                             const PlannerOptions& options)
    : layout_(layout),
      cluster_(cluster),
      options_(options),
      batch_(cluster.stf_nodes()),
      stf_(batch_.empty() ? cluster::kNoNode : batch_.front()) {
  FASTPR_CHECK_MSG(!batch_.empty(), "no STF node flagged in the cluster");
  FASTPR_CHECK(options.k_repair >= 1);
  FASTPR_CHECK(options.chunk_bytes > 0);
  if (options.scenario == Scenario::kHotStandby) {
    // A stripe may lose up to B chunks to the batch, and §IV-A demands
    // they land on B distinct spares — so a hot-standby batch can never
    // exceed the spare count (each spare replaces one member).
    FASTPR_CHECK_MSG(
        static_cast<size_t>(cluster.num_hot_standby()) >= batch_.size(),
        "hot-standby repair of " << batch_.size() << " STF node(s) needs "
                                 << "at least " << batch_.size()
                                 << " spare nodes, have "
                                 << cluster.num_hot_standby());
  }
}

std::vector<NodeId> FastPrPlanner::source_nodes() const {
  // Healthy storage nodes only — every batch member is flagged, so STF
  // nodes never serve as helpers for each other.
  return cluster_.healthy_storage_nodes();
}

std::vector<NodeId> FastPrPlanner::dest_nodes() const {
  return options_.scenario == Scenario::kScattered
             ? cluster_.healthy_storage_nodes()
             : cluster_.hot_standby_nodes();
}

int FastPrPlanner::scattered_round_capacity() const {
  const int cap = static_cast<int>(cluster_.healthy_storage_nodes().size()) -
                  (layout_.chunks_per_stripe() - 1);
  FASTPR_CHECK_MSG(cap >= 1,
                   "cluster too small for scattered repair: need M - n >= 1");
  return cap;
}

ReconSetOptions FastPrPlanner::effective_recon_options() const {
  ReconSetOptions opts = options_.recon;
  if (options_.scenario == Scenario::kScattered) {
    const int cap = scattered_round_capacity();
    opts.max_set_size =
        opts.max_set_size > 0 ? std::min(opts.max_set_size, cap) : cap;
  }
  if (opts.topology == nullptr) opts.topology = options_.topology;
  return opts;
}

SchedulerOptions FastPrPlanner::scheduler_options() const {
  SchedulerOptions sched = options_.sched;
  if (options_.scenario == Scenario::kScattered) {
    sched.max_round_repairs = scattered_round_capacity();
  }
  return sched;
}

ModelParams FastPrPlanner::model_params(int stf_chunks, int batch) const {
  ModelParams params;
  params.num_nodes = cluster_.num_storage_nodes();
  params.stf_chunks = std::max(1, stf_chunks);
  params.chunk_bytes = options_.chunk_bytes;
  params.disk_bw = cluster_.bandwidth().disk_bytes_per_sec;
  params.net_bw = cluster_.bandwidth().net_bytes_per_sec;
  params.k_repair = options_.k_repair;
  params.batch = batch;
  params.hot_standby = std::max(1, cluster_.num_hot_standby());
  params.scenario = options_.scenario;
  params.packet_bytes = options_.packet_bytes;
  params.chain_hop_overhead_seconds = options_.chain_hop_overhead_seconds;
  params.repair_bw_fraction = options_.repair_bw_fraction;
  if (options_.topology != nullptr && !options_.topology->is_flat()) {
    // Rack-disjoint stripes put every helper in a foreign rack; rack-
    // aware migrations stay in-rack while hot-standby spares live in an
    // overflow rack every migration must cross into (DESIGN.md §11).
    params.oversubscription = options_.topology->oversubscription();
    params.cross_rack_helper_fraction = 1.0;
    params.cross_rack_migration_fraction =
        options_.scenario == Scenario::kHotStandby ? 1.0 : 0.0;
  }
  return params;
}

CostModel FastPrPlanner::cost_model() const {
  int total = 0;
  for (NodeId s : batch_) total += layout_.load(s);
  return CostModel(model_params(total, static_cast<int>(batch_.size())));
}

CostModel FastPrPlanner::member_cost_model(NodeId stf) const {
  return CostModel(model_params(layout_.load(stf), 1));
}

std::vector<ChunkRef> FastPrPlanner::searchable_chunks(
    const std::vector<NodeId>& members, std::vector<ChunkRef>* forced) const {
  // A stripe can lose several chunks to the batch at once; when fewer
  // than k' healthy helpers survive, reconstruction is impossible and
  // the chunk MUST be migrated while its member disk is still alive (a
  // single STF node leaves every stripe n-1 >= k' helpers).
  const auto sources = source_nodes();
  const std::unordered_set<NodeId> healthy(sources.begin(), sources.end());
  std::vector<ChunkRef> searchable;
  for (NodeId member : members) {
    for (ChunkRef chunk : layout_.chunks_on(member)) {
      (reconstructable(layout_, options_.code, options_.k_repair, chunk,
                       healthy)
           ? searchable
           : *forced)
          .push_back(chunk);
    }
  }
  return searchable;
}

void FastPrPlanner::use_reconstruction_sets(
    std::vector<std::vector<ChunkRef>> sets) {
  // Exact-cover check against the batch's reconstructable chunks.
  forced_.clear();
  std::unordered_set<ChunkRef, cluster::ChunkRefHash> expected;
  for (ChunkRef c : searchable_chunks(batch_, &forced_)) expected.insert(c);
  size_t covered = 0;
  const size_t cap =
      options_.scenario == Scenario::kScattered
          ? static_cast<size_t>(scattered_round_capacity())
          : std::numeric_limits<size_t>::max();
  const size_t total = expected.size();
  for (const auto& set : sets) {
    FASTPR_CHECK_MSG(set.size() <= cap,
                     "precomputed set exceeds destination capacity");
    for (ChunkRef c : set) {
      FASTPR_CHECK_MSG(expected.erase(c) == 1,
                       "precomputed sets repeat a chunk or cover a "
                       "foreign one");
      ++covered;
    }
  }
  FASTPR_CHECK_MSG(covered == total, "precomputed sets cover "
                                         << covered << " of " << total
                                         << " chunks");
  cached_sets_ = std::move(sets);
  recon_stats_ = {};
  sets_ready_ = true;
}

const std::vector<std::vector<ChunkRef>>& FastPrPlanner::recon_sets() {
  if (!sets_ready_) {
    FASTPR_TRACE_SPAN("planner.recon_sets", "planner");
    recon_stats_ = {};
    forced_.clear();
    cached_sets_ = find_reconstruction_sets_for(
        searchable_chunks(batch_, &forced_), layout_, source_nodes(),
        options_.k_repair, effective_recon_options(), &recon_stats_,
        options_.code);
    sets_ready_ = true;
  }
  return cached_sets_;
}

RepairPlan FastPrPlanner::place(const std::vector<ScheduledRound>& rounds,
                                const std::vector<NodeId>& members,
                                const std::vector<NodeId>* deprioritized)
    const {
  const auto sources = source_nodes();
  const auto dests = dest_nodes();
  RepairPlan plan;
  plan.stf_node = members.front();
  plan.stf_nodes = members;
  PlacedOverlay placed;
  int standby_cursor = 0;
  for (const auto& round : rounds) {
    plan.rounds.push_back(assign_round(
        layout_, members, sources, dests, options_.scenario,
        options_.k_repair, round, &standby_cursor, options_.code,
        options_.balance_destinations, &placed,
        options_.recon.helper_reads_per_node, options_.topology,
        deprioritized));
  }
  return plan;
}

RepairPlan FastPrPlanner::plan_fastpr() {
  FASTPR_TRACE_SPAN("planner.plan_fastpr", "planner");
  auto sets = recon_sets();  // copy: the scheduler splits sets
  const SchedulerOptions sched = scheduler_options();
  const auto rounds = [&] {
    FASTPR_TRACE_SPAN("planner.schedule", "planner");
    const auto owner_of = [this](ChunkRef chunk) {
      return layout_.node_of(chunk);
    };
    auto scheduled = schedule_repair(std::move(sets), cost_model(),
                                     owner_of, batch_, sched);
    distribute_forced_migrations(scheduled, forced_,
                                 sched.max_round_repairs);
    return scheduled;
  }();
  return place(rounds, batch_);
}

RepairPlan FastPrPlanner::plan_sequential() {
  FASTPR_TRACE_SPAN("planner.plan_sequential", "planner");
  const SchedulerOptions sched = scheduler_options();
  std::vector<ScheduledRound> rounds;
  recon_stats_ = {};
  for (NodeId stf : batch_) {
    std::vector<ChunkRef> forced;
    auto sets = find_reconstruction_sets_for(
        searchable_chunks({stf}, &forced), layout_, source_nodes(),
        options_.k_repair, effective_recon_options(), &recon_stats_,
        options_.code);
    auto member_rounds =
        schedule_repair(std::move(sets), member_cost_model(stf), sched);
    distribute_forced_migrations(member_rounds, forced,
                                 sched.max_round_repairs);
    for (auto& round : member_rounds) rounds.push_back(std::move(round));
  }
  return place(rounds, batch_);
}

RepairPlan FastPrPlanner::plan_reconstruction_only() {
  FASTPR_CHECK_MSG(batch_.size() == 1,
                   "reconstruction-only baseline plans one STF node");
  const CostModel model = cost_model();
  std::vector<ScheduledRound> rounds;
  for (const auto& set : recon_sets()) {
    ScheduledRound round;
    round.reconstruct = set;
    round.strategy = resolve_strategy(options_.sched.strategy, model,
                                      static_cast<int>(set.size()));
    rounds.push_back(std::move(round));
  }
  return place(rounds, batch_);
}

RepairPlan FastPrPlanner::plan_migration_only() {
  FASTPR_CHECK_MSG(batch_.size() == 1,
                   "migration-only baseline plans one STF node");
  const auto chunks = layout_.chunks_on(stf_);
  std::vector<ScheduledRound> rounds;
  if (options_.scenario == Scenario::kHotStandby) {
    rounds.emplace_back();
    rounds.back().migrate = chunks;
    return place(rounds, batch_);
  }

  // Scattered: batch into rounds small enough that every batch admits a
  // perfect destination matching. (Rounds do not change migration time —
  // the STF node serializes them anyway.)
  const size_t batch = static_cast<size_t>(scattered_round_capacity());
  for (size_t start = 0; start < chunks.size(); start += batch) {
    const size_t end = std::min(chunks.size(), start + batch);
    rounds.emplace_back();
    rounds.back().migrate.assign(
        chunks.begin() + static_cast<ptrdiff_t>(start),
        chunks.begin() + static_cast<ptrdiff_t>(end));
  }
  return place(rounds, batch_);
}

ReactiveReplan FastPrPlanner::plan_reactive(
    const std::vector<ChunkRef>& already_repaired,
    const std::vector<NodeId>& failed) {
  std::unordered_set<ChunkRef, cluster::ChunkRefHash> handled(
      already_repaired.begin(), already_repaired.end());
  std::vector<ChunkRef> remaining;
  for (ChunkRef chunk : layout_.chunks_on(stf_)) {
    if (handled.count(chunk) == 0) remaining.push_back(chunk);
  }

  ReactiveReplan out;
  out.plan.stf_node = stf_;
  if (remaining.empty()) return out;

  // The dead set: the STF node itself plus everything declared failed
  // during execution (deduplicated, order-stable for determinism).
  std::vector<NodeId> dead{stf_};
  std::unordered_set<NodeId> dead_set{stf_};
  for (NodeId n : failed) {
    if (dead_set.insert(n).second) dead.push_back(n);
  }

  ReactiveOptions reactive;
  reactive.scenario = options_.scenario;
  reactive.k_repair = options_.k_repair;
  reactive.chunk_bytes = options_.chunk_bytes;
  reactive.code = options_.code;
  reactive.recon = options_.recon;
  // Reactive rounds keep the helper rack-spreading preference; the rack
  // destination invariant is best-effort in degraded mode (survival
  // beats placement quality once data is at risk).
  if (reactive.recon.topology == nullptr) {
    reactive.recon.topology = options_.topology;
  }
  ReactivePlanner planner(layout_, cluster_, reactive);
  ReactiveResult result = planner.plan_chunks(remaining, dead);
  out.plan = std::move(result.plan);
  out.plan.stf_node = stf_;
  out.unrepairable = std::move(result.unrecoverable);
  out.degraded_repairs = result.degraded_repairs;
  return out;
}

RepairPlan FastPrPlanner::plan_fastpr_remaining(
    const std::vector<ChunkRef>& already_repaired,
    const std::vector<NodeId>& deprioritized) {
  FASTPR_TRACE_SPAN("planner.plan_fastpr_remaining", "planner");
  std::unordered_set<ChunkRef, cluster::ChunkRefHash> handled(
      already_repaired.begin(), already_repaired.end());
  std::vector<ChunkRef> remaining;
  for (ChunkRef chunk : layout_.chunks_on(stf_)) {
    if (handled.count(chunk) == 0) remaining.push_back(chunk);
  }

  RepairPlan plan;
  plan.stf_node = stf_;
  if (remaining.empty()) return plan;

  const auto sources = source_nodes();
  const ReconSetOptions recon = effective_recon_options();
  ReconSetStats stats;
  std::vector<std::vector<ChunkRef>> sets;

  // Stragglers are planned around structurally: chunks that can still
  // reach k' helpers without the deprioritized nodes form their sets
  // over the REDUCED source list, so those rounds are matchable with
  // zero straggler reads by construction. Preference ordering alone
  // cannot deliver that — Algorithm 1 packs rounds to the full node
  // count's capacity, leaving the per-round matching too saturated to
  // route around even one avoided node. Chunks whose stripes lost too
  // many holders to the straggler set fall back to the full source
  // list with the stragglers merely deprioritized.
  std::vector<ChunkRef> tainted;
  bool reduced = false;
  if (!deprioritized.empty()) {
    const std::unordered_set<NodeId> slow_set(deprioritized.begin(),
                                              deprioritized.end());
    std::vector<NodeId> fast_sources;
    for (NodeId node : sources) {
      if (slow_set.count(node) == 0) fast_sources.push_back(node);
    }
    if (static_cast<int>(fast_sources.size()) >= options_.k_repair) {
      const std::unordered_set<NodeId> fast_set(fast_sources.begin(),
                                                fast_sources.end());
      std::vector<ChunkRef> clean;
      for (ChunkRef chunk : remaining) {
        (reconstructable(layout_, options_.code, options_.k_repair, chunk,
                         fast_set)
             ? clean
             : tainted)
            .push_back(chunk);
      }
      if (!clean.empty()) {
        sets = find_reconstruction_sets_for(clean, layout_, fast_sources,
                                            options_.k_repair, recon,
                                            &stats, options_.code);
      }
      reduced = true;
    }
  }
  if (!reduced) tainted = std::move(remaining);
  if (!tainted.empty()) {
    ReconSetOptions tainted_recon = recon;
    tainted_recon.deprioritized = deprioritized;
    auto tainted_sets =
        find_reconstruction_sets_for(tainted, layout_, sources,
                                     options_.k_repair, tainted_recon,
                                     &stats, options_.code);
    for (auto& set : tainted_sets) sets.push_back(std::move(set));
  }

  const auto rounds = schedule_repair(std::move(sets), member_cost_model(stf_),
                                      scheduler_options());
  return place(rounds, {stf_}, &deprioritized);
}

}  // namespace fastpr::core
