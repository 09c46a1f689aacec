#include "core/recon_sets.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <future>
#include <memory>
#include <thread>
#include <unordered_map>

#include "matching/feasibility_matcher.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace fastpr::core {

namespace {

using cluster::ChunkRef;
using cluster::NodeId;
using cluster::StripeLayout;
using matching::FeasibilityMatcher;

/// MATCH questions asked and matcher searches run to answer them.
struct MatchCounts {
  long calls = 0;
  long searches = 0;
};

/// Shared context: node→left-index mapping and per-stripe adjacency.
class MatchContext {
 public:
  MatchContext(const StripeLayout& layout, const std::vector<NodeId>& healthy,
               int k_repair, int max_set_size, ReconSetStats* stats,
               const ec::ErasureCode* code)
      : layout_(layout),
        k_(k_repair),
        max_set_size_(max_set_size),
        stats_(stats),
        code_(code) {
    left_of_node_.reserve(healthy.size());
    for (size_t i = 0; i < healthy.size(); ++i) {
      left_of_node_[healthy[i]] = static_cast<int>(i);
    }
    left_count_ = static_cast<int>(healthy.size());
  }

  /// Fresh matcher over the source nodes.
  FeasibilityMatcher make_matcher() const {
    return FeasibilityMatcher(left_count_);
  }

  /// Helper chunks this particular chunk's repair fetches.
  int fetch_count(ChunkRef chunk) const {
    return code_ != nullptr ? code_->repair_fetch_count(chunk.index) : k_;
  }

  /// Max chunks any reconstruction set can hold: the paper's
  /// floor((M-1)/k), further capped by the planner's
  /// destination-feasibility bound.
  int capacity() const {
    const int matching_cap = left_count_ / k_;
    return max_set_size_ > 0 ? std::min(matching_cap, max_set_size_)
                             : matching_cap;
  }

  /// Adjacency of one helper slot for `chunk`: left indices of eligible
  /// nodes storing a VALID helper chunk (code-aware for LRC locality;
  /// excludes nodes outside the healthy source list).
  const std::vector<int>& slot_adjacency(ChunkRef chunk) {
    auto it = chunk_adj_.find(chunk);
    if (it != chunk_adj_.end()) return it->second;
    const auto& nodes = layout_.stripe_nodes(chunk.stripe);
    std::vector<int> adj;
    auto consider = [&](NodeId node) {
      const auto li = left_of_node_.find(node);
      if (li != left_of_node_.end()) adj.push_back(li->second);
    };
    if (code_ != nullptr) {
      for (int idx : code_->helper_candidates(chunk.index)) {
        consider(nodes[static_cast<size_t>(idx)]);
      }
    } else {
      for (NodeId node : nodes) consider(node);
    }
    FASTPR_CHECK_MSG(static_cast<int>(adj.size()) >= fetch_count(chunk),
                     "stripe " << chunk.stripe
                               << " has fewer than k' healthy sources");
    return chunk_adj_.emplace(chunk, std::move(adj)).first->second;
  }

  /// The MATCH function: can `chunk` join the set held by `matcher`?
  /// On success the chunk stays committed. Caches the chunk's
  /// adjacency even when the arithmetic prune answers, so every chunk
  /// MATCH has seen can later be probed read-only.
  bool try_match(FeasibilityMatcher& matcher, ChunkRef chunk) {
    slot_adjacency(chunk);
    MatchCounts counts;
    const bool matched = probe(matcher, chunk, counts);
    if (stats_ != nullptr) {
      stats_->match_calls += counts.calls;
      stats_->match_searches += counts.searches;
    }
    return matched;
  }

  /// MATCH over the adjacency cache only, counting into `counts`.
  /// Safe to call from several threads while nothing mutates the
  /// context: it never fills the cache, so `chunk` must already be in it.
  bool probe(FeasibilityMatcher& matcher, ChunkRef chunk,
             MatchCounts& counts) const {
    ++counts.calls;
    return fits(matcher, chunk, counts);
  }

  /// The test behind MATCH, not counted as a MATCH call: does `chunk`
  /// fit the set held by `matcher`? On success it stays committed.
  bool fits(FeasibilityMatcher& matcher, ChunkRef chunk,
            MatchCounts& counts) const {
    const int k_this = fetch_count(chunk);
    // Arithmetic prune: fewer than k' source nodes left unmatched.
    if (matcher.right_count() + k_this > matcher.left_count()) {
      return false;
    }
    // Chunk adjacency is cached in chunk_adj_ (stable storage), so the
    // matcher may hold it by pointer.
    const auto it = chunk_adj_.find(chunk);
    FASTPR_CHECK_MSG(it != chunk_adj_.end(),
                     "probe of chunk " << chunk.stripe << "/" << chunk.index
                                       << " with no cached adjacency");
    ++counts.searches;
    return matcher.try_add_group(it->second, k_this);
  }

  bool has_adjacency(ChunkRef chunk) const {
    return chunk_adj_.count(chunk) > 0;
  }

 private:
  const StripeLayout& layout_;
  int k_;
  int max_set_size_;
  ReconSetStats* stats_;
  const ec::ErasureCode* code_;
  int left_count_ = 0;
  std::unordered_map<NodeId, int> left_of_node_;
  std::unordered_map<ChunkRef, std::vector<int>, cluster::ChunkRefHash>
      chunk_adj_;
};

/// One row of a swap iteration (Lines 19–32 for a fixed Ci): the base
/// matcher over R − {Ci}, then each probe R − {Ci} ∪ {Cj} and its gain
/// scan. Written by the one thread that evaluates the row.
struct SwapRow {
  bool evaluated = false;
  size_t best_j = 0;
  std::vector<ChunkRef> gain_set;  // best_j's gain set (empty: no gain)
  MatchCounts counts;  // the base matcher's included
  std::exception_ptr error;
};

/// Evaluates row i on its own. It keeps the first j reaching the row's
/// best gain and stops at the first j whose gain reaches `max_gain` —
/// exactly where the serial loop stops inside row i and what it keeps
/// there, because its running best stays below `max_gain` while it runs.
///
/// Every probe of the row tests a superset of R − {Ci}, and Hall's
/// condition is monotone: a chunk that does not fit R − {Ci} on its own
/// fits no superset of it. So one uncounted test per residual chunk
/// first finds U_i, the chunks that do fit; a probe of a chunk outside
/// U_i is then counted as the MATCH call it is and answered false with
/// no search.
void evaluate_row(const MatchContext& ctx, const std::vector<ChunkRef>& r,
                  const std::vector<ChunkRef>& chunks, size_t i,
                  int max_gain, SwapRow& row) {
  FeasibilityMatcher base = ctx.make_matcher();
  for (size_t t = 0; t < r.size(); ++t) {
    if (t == i) continue;
    FASTPR_CHECK_MSG(ctx.probe(base, r[t], row.counts),
                     "a subset of a reconstruction set failed MATCH");
  }
  // One probe matcher and one gain buffer per row: `probe = base` and
  // clear() reuse their storage for every j.
  FeasibilityMatcher probe = ctx.make_matcher();
  std::vector<char> in_u(chunks.size());
  for (size_t l = 0; l < chunks.size(); ++l) {
    probe = base;
    in_u[l] = ctx.fits(probe, chunks[l], row.counts) ? 1 : 0;
  }
  const auto probe_in_u = [&](size_t l) {
    if (in_u[l] != 0) return ctx.probe(probe, chunks[l], row.counts);
    ++row.counts.calls;
    return false;
  };
  std::vector<ChunkRef> gain_set;
  for (size_t j = 0; j < chunks.size(); ++j) {
    probe = base;
    if (!probe_in_u(j)) continue;

    // Grow R' with whatever residual chunks now fit (Lines 24–29).
    gain_set.clear();
    for (size_t l = 0; l < chunks.size(); ++l) {
      if (l == j) continue;
      // |R'| = |R| + gains; stop once the set-size cap is reached.
      if (static_cast<int>(r.size() + gain_set.size()) >= ctx.capacity()) {
        break;
      }
      if (probe_in_u(l)) {
        gain_set.push_back(chunks[l]);
      }
    }
    if (gain_set.size() > row.gain_set.size()) {
      row.best_j = j;
      row.gain_set.swap(gain_set);
      if (static_cast<int>(row.gain_set.size()) >= max_gain) break;
    }
  }
}

/// Waits for every posted helper before the rows they write leave scope,
/// also when the caller unwinds.
class HelperJoin {
 public:
  explicit HelperJoin(size_t helpers) { futures_.reserve(helpers); }
  ~HelperJoin() {
    for (auto& f : futures_) f.wait();
  }
  HelperJoin(const HelperJoin&) = delete;
  HelperJoin& operator=(const HelperJoin&) = delete;

  void add(std::future<void> f) { futures_.push_back(std::move(f)); }

 private:
  std::vector<std::future<void>> futures_;
};

struct Swap {
  size_t i = 0;
  size_t j = 0;
  std::vector<ChunkRef> gain_set;  // empty: no swap gains
};

/// Lines 19–32 of one swap iteration. The rows run in parallel — the
/// caller plus up to min(cores, |R|) − 1 helpers of `pool` (created on
/// first need) take row indices in order — and are then folded in serial
/// order, so the chosen swap and the counted MATCH calls are the serial
/// loop's: a row wins only with a strictly larger gain, the fold stops
/// at the first row reaching `max_gain`, and rows computed past it are
/// discarded uncounted.
Swap best_swap(const MatchContext& ctx, const std::vector<ChunkRef>& r,
               const std::vector<ChunkRef>& chunks,
               std::unique_ptr<ThreadPool>& pool, ReconSetStats* stats) {
  for (ChunkRef c : r) FASTPR_CHECK(ctx.has_adjacency(c));
  for (ChunkRef c : chunks) FASTPR_CHECK(ctx.has_adjacency(c));

  const int max_gain = ctx.capacity() - static_cast<int>(r.size());
  std::vector<SwapRow> rows(r.size());
  std::atomic<size_t> next_row{0};
  // Lowest row that reached max_gain or threw: no row above it is
  // started, and the fold never reads past it.
  std::atomic<size_t> stop_row{rows.size()};
  const auto run_rows = [&] {
    for (;;) {
      const size_t i = next_row.fetch_add(1);
      if (i >= rows.size() || i > stop_row.load()) return;
      SwapRow& row = rows[i];
      try {
        evaluate_row(ctx, r, chunks, i, max_gain, row);
      } catch (...) {
        row.error = std::current_exception();
      }
      row.evaluated = true;
      if (row.error != nullptr ||
          static_cast<int>(row.gain_set.size()) >= max_gain) {
        size_t seen = stop_row.load();
        while (i < seen && !stop_row.compare_exchange_weak(seen, i)) {
        }
      }
    }
  };

  const size_t cores = std::max(1u, std::thread::hardware_concurrency());
  const size_t helpers = std::min(cores, rows.size()) - 1;
  {
    HelperJoin join(helpers);
    if (helpers > 0 && pool == nullptr) {
      pool = std::make_unique<ThreadPool>(
          std::min(cores, static_cast<size_t>(ctx.capacity())) - 1);
    }
    for (size_t h = 0; h < helpers; ++h) join.add(pool->submit(run_rows));
    run_rows();
  }

  Swap best;
  size_t folded = 0;
  MatchCounts counts;
  while (folded < rows.size() &&
         static_cast<int>(best.gain_set.size()) < max_gain) {
    SwapRow& row = rows[folded];
    FASTPR_CHECK(row.evaluated);
    if (row.error != nullptr) std::rethrow_exception(row.error);
    counts.calls += row.counts.calls;
    counts.searches += row.counts.searches;
    if (row.gain_set.size() > best.gain_set.size()) {
      best = {folded, row.best_j, std::move(row.gain_set)};
    }
    ++folded;
  }
  if (stats != nullptr) {
    stats->match_calls += counts.calls;
    stats->match_searches += counts.searches;
    stats->swap_rows += static_cast<long>(folded);
    stats->swap_rows_discarded += std::count_if(
        rows.begin() + static_cast<ptrdiff_t>(folded), rows.end(),
        [](const SwapRow& row) { return row.evaluated; });
  }
  return best;
}

/// The FIND function of Algorithm 1. Extracts one reconstruction set
/// from `chunks` (removing its members) and returns it.
std::vector<ChunkRef> find_one_set(MatchContext& ctx,
                                   std::vector<ChunkRef>& chunks,
                                   const ReconSetOptions& options,
                                   std::unique_ptr<ThreadPool>& pool,
                                   ReconSetStats* stats) {
  std::vector<ChunkRef> r;
  FeasibilityMatcher matcher = ctx.make_matcher();

  // Lines 10–17: greedy initial set. When it ends below capacity it has
  // run MATCH on every chunk, so the adjacency cache the swap rows read
  // holds all of them; swaps only move chunks between R and the pool.
  {
    std::vector<ChunkRef> residual;
    residual.reserve(chunks.size());
    for (ChunkRef c : chunks) {
      if (static_cast<int>(r.size()) < ctx.capacity() &&
          ctx.try_match(matcher, c)) {
        r.push_back(c);
      } else {
        residual.push_back(c);
      }
    }
    chunks.swap(residual);
  }

  // Lines 18–38: swap optimization. Skipped when the set already has the
  // maximum conceivable size — no swap can grow it further.
  long swaps_committed = 0;
  while (options.optimize && !chunks.empty() &&
         static_cast<int>(r.size()) < ctx.capacity()) {
    const Swap swap = best_swap(ctx, r, chunks, pool, stats);
    if (swap.gain_set.empty()) break;  // Line 36: no further expansion
    ++swaps_committed;
    if (stats != nullptr) ++stats->swaps;

    // Lines 33–35: commit the swap. Ci* returns to the residual pool,
    // Cj* and the gain set join R.
    const ChunkRef swapped_out = r[swap.i];
    const ChunkRef swapped_in = chunks[swap.j];
    r.erase(r.begin() + static_cast<ptrdiff_t>(swap.i));
    r.push_back(swapped_in);
    for (ChunkRef c : swap.gain_set) r.push_back(c);

    std::vector<ChunkRef> residual;
    residual.reserve(chunks.size());
    for (ChunkRef c : chunks) {
      if (c == swapped_in) continue;
      if (std::find(swap.gain_set.begin(), swap.gain_set.end(), c) !=
          swap.gain_set.end()) {
        continue;
      }
      residual.push_back(c);
    }
    residual.push_back(swapped_out);
    chunks.swap(residual);

    // Rebuild the committed matcher to reflect the new R.
    matcher.reset();
    for (ChunkRef c : r) {
      FASTPR_CHECK_MSG(ctx.try_match(matcher, c),
                       "swap produced an inconsistent reconstruction set");
    }
  }

  // Maximality sweep: a committed swap replays the residual pool against
  // a different matching than the greedy pass saw, so a residual chunk
  // skipped in Lines 24–29 of the LAST accepted swap (the gain scan stops
  // at the cap or at chunks preceding the swap target) may still fit.
  // One pure-addition pass restores the greedy invariant — every residual
  // chunk provably fails MATCH(R ∪ {C}) — without touching the zero-swap
  // output, which already has it.
  if (swaps_committed > 0) {
    std::vector<ChunkRef> residual;
    residual.reserve(chunks.size());
    for (ChunkRef c : chunks) {
      if (static_cast<int>(r.size()) < ctx.capacity() &&
          ctx.try_match(matcher, c)) {
        r.push_back(c);
        if (stats != nullptr) ++stats->sweep_adds;
      } else {
        residual.push_back(c);
      }
    }
    chunks.swap(residual);
  }

  FASTPR_CHECK_MSG(!r.empty(),
                   "FIND produced an empty reconstruction set — some chunk "
                   "has no k healthy sources");
  return r;
}

}  // namespace

std::vector<std::vector<ChunkRef>> find_reconstruction_sets(
    const StripeLayout& layout, NodeId stf,
    const std::vector<NodeId>& healthy_sources, int k_repair,
    const ReconSetOptions& options, ReconSetStats* stats,
    const ec::ErasureCode* code) {
  return find_reconstruction_sets_for(layout.chunks_on(stf), layout,
                                      healthy_sources, k_repair, options,
                                      stats, code);
}

std::vector<std::vector<ChunkRef>> find_reconstruction_sets_for(
    std::vector<ChunkRef> all_chunks, const StripeLayout& layout,
    const std::vector<NodeId>& healthy_sources, int k_repair,
    const ReconSetOptions& options, ReconSetStats* stats,
    const ec::ErasureCode* code) {
  FASTPR_CHECK(k_repair >= 1);
  FASTPR_CHECK_MSG(static_cast<int>(healthy_sources.size()) >= k_repair,
                   "need at least k healthy source nodes");

  MatchContext ctx(layout, healthy_sources, k_repair, options.max_set_size,
                   stats, code);
  // Swap-pass helpers, started by the first swap iteration with two or
  // more rows and joined when this call returns.
  std::unique_ptr<ThreadPool> pool;

  std::vector<std::vector<ChunkRef>> sets;

  // §IV-D mitigation: operate on chunk groups independently.
  const int group_size = options.chunk_group_size > 0
                             ? options.chunk_group_size
                             : static_cast<int>(all_chunks.size());
  for (size_t start = 0; start < all_chunks.size();
       start += static_cast<size_t>(group_size)) {
    const size_t end =
        std::min(all_chunks.size(), start + static_cast<size_t>(group_size));
    std::vector<ChunkRef> group(all_chunks.begin() + static_cast<ptrdiff_t>(start),
                                all_chunks.begin() + static_cast<ptrdiff_t>(end));
    while (!group.empty()) {
      sets.push_back(find_one_set(ctx, group, options, pool, stats));
    }
  }
  return sets;
}

bool is_valid_reconstruction_set(const StripeLayout& layout, NodeId stf,
                                 const std::vector<NodeId>& healthy,
                                 int k_repair,
                                 const std::vector<ChunkRef>& set,
                                 const ec::ErasureCode* code) {
  for (NodeId node : healthy) {
    FASTPR_CHECK(stf == cluster::kNoNode || node != stf);
  }
  MatchContext ctx(layout, healthy, k_repair, 0, nullptr, code);
  FeasibilityMatcher matcher = ctx.make_matcher();
  for (ChunkRef c : set) {
    if (!ctx.try_match(matcher, c)) return false;
  }
  return true;
}

}  // namespace fastpr::core
