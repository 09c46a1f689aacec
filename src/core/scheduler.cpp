#include "core/scheduler.h"

#include <algorithm>
#include <limits>
#include <unordered_map>
#include <utility>

#include "util/check.h"

namespace fastpr::core {

RepairStrategy resolve_strategy(StrategyChoice choice,
                                const CostModel& model, int cr) {
  switch (choice) {
    case StrategyChoice::kFanIn: return RepairStrategy::kFanIn;
    case StrategyChoice::kChain: return RepairStrategy::kChain;
    case StrategyChoice::kAuto:
      return model.choose_strategy(
          static_cast<double>(std::max(1, cr)));
  }
  return RepairStrategy::kFanIn;
}

std::vector<ScheduledRound> schedule_repair(
    std::vector<std::vector<cluster::ChunkRef>> recon_sets,
    const CostModel& model,
    const std::function<cluster::NodeId(cluster::ChunkRef)>& owner_of,
    const std::vector<cluster::NodeId>& stf_batch,
    const SchedulerOptions& options) {
  FASTPR_CHECK(!stf_batch.empty());
  std::vector<ScheduledRound> rounds;
  if (recon_sets.empty()) return rounds;
  for (const auto& set : recon_sets) FASTPR_CHECK(!set.empty());

  while (!recon_sets.empty()) {
    // Line 1: sort by size, descending (stable for determinism). With
    // one STF node the sets only ever shrink from the tail, so after the
    // first round the sort leaves them as they are — the paper's
    // sort-once; a batch may shrink a middle set and re-sorts.
    std::stable_sort(recon_sets.begin(), recon_sets.end(),
                     [](const auto& a, const auto& b) {
                       return a.size() > b.size();
                     });

    ScheduledRound round;
    round.reconstruct = recon_sets[0];
    const int cr = static_cast<int>(round.reconstruct.size());
    round.strategy = resolve_strategy(options.strategy, model, cr);

    // Per-STF migration quota cm = tr(cr)/tm (each disk drains
    // independently) plus the shared destination-capacity cap on the
    // whole round.
    const int quota = options.fixed_migration_quota >= 0
                          ? options.fixed_migration_quota
                          : model.migration_quota(cr, round.strategy);
    std::unordered_map<cluster::NodeId, int> budget;
    for (cluster::NodeId s : stf_batch) budget[s] = quota;
    int total_left = options.max_round_repairs > 0
                         ? std::max(0, options.max_round_repairs - cr)
                         : std::numeric_limits<int>::max();

    // Lines 5–12: mark migrations smallest-set-first, back to front —
    // all of R_{x+1..u} plus a top-up slice off the back of R_x —
    // skipping chunks whose owner's disk quota is already spent.
    std::vector<std::vector<char>> marked(recon_sets.size());
    std::vector<size_t> marked_count(recon_sets.size(), 0);
    for (size_t i = recon_sets.size(); i-- > 1 && total_left > 0;) {
      marked[i].assign(recon_sets[i].size(), 0);
      for (size_t p = recon_sets[i].size(); p-- > 0 && total_left > 0;) {
        auto it = budget.find(owner_of(recon_sets[i][p]));
        FASTPR_CHECK_MSG(it != budget.end(),
                         "chunk owner is not in the STF batch");
        if (it->second <= 0) continue;
        --it->second;
        --total_left;
        marked[i][p] = 1;
        ++marked_count[i];
      }
    }

    // Emit fully migrated sets ascending, forward; then partially
    // migrated sets ascending, back to front (the order R_x is sliced).
    for (size_t i = 1; i < recon_sets.size(); ++i) {
      if (marked_count[i] != recon_sets[i].size()) continue;
      for (auto c : recon_sets[i]) round.migrate.push_back(c);
    }
    for (size_t i = 1; i < recon_sets.size(); ++i) {
      if (marked_count[i] == 0 || marked_count[i] == recon_sets[i].size()) {
        continue;
      }
      for (size_t p = recon_sets[i].size(); p-- > 0;) {
        if (marked[i][p]) round.migrate.push_back(recon_sets[i][p]);
      }
    }
    rounds.push_back(std::move(round));

    // Lines 13–14: drop the reconstructed set and every migrated chunk.
    std::vector<std::vector<cluster::ChunkRef>> next;
    next.reserve(recon_sets.size());
    for (size_t i = 1; i < recon_sets.size(); ++i) {
      if (marked_count[i] == recon_sets[i].size()) continue;
      if (marked_count[i] == 0) {
        next.push_back(std::move(recon_sets[i]));
        continue;
      }
      std::vector<cluster::ChunkRef> kept;
      kept.reserve(recon_sets[i].size() - marked_count[i]);
      for (size_t p = 0; p < recon_sets[i].size(); ++p) {
        if (!marked[i][p]) kept.push_back(recon_sets[i][p]);
      }
      next.push_back(std::move(kept));
    }
    recon_sets.swap(next);
  }
  return rounds;
}

std::vector<ScheduledRound> schedule_repair(
    std::vector<std::vector<cluster::ChunkRef>> recon_sets,
    const CostModel& model, const SchedulerOptions& options) {
  return schedule_repair(
      std::move(recon_sets), model,
      [](cluster::ChunkRef) { return cluster::kNoNode; }, {cluster::kNoNode},
      options);
}

}  // namespace fastpr::core
