// Figure 15 (Experiment B.5): microbenchmarks on Algorithm 1.
// (a) reduction of d_opt (with the swap optimization) vs d_ini
//     (greedy only), varying the number of repaired chunks |C|;
// (b) running time of Algorithm 1 vs |C|.
// The paper sweeps to 1000 chunks (254.63 s on an EC2 m5.large at
// 1000); we sweep to 500 — the shape (superlinear growth, stable ~13%
// reduction) is what matters — and additionally show the §IV-D
// chunk-grouping mitigation.
//
// `--smoke` is a determinism gate with no timing: part (b)'s layouts at
// |C| = 100 and 200, swap pass on and off, must reproduce their recorded
// set counts, MATCH calls and FNV-1a digest of the ordered sets; exit
// code 1 on any difference.
#include <chrono>
#include <cstring>

#include "bench_common.h"
#include "core/recon_sets.h"
#include "util/rng.h"

using namespace fastpr;
using cluster::NodeId;
using cluster::StripeLayout;

namespace {

/// Layout where the STF node (0) stores exactly `num_chunks` chunks:
/// every stripe pins node 0 plus n-1 random others.
StripeLayout pinned_layout(int num_nodes, int n, int num_chunks, Rng& rng) {
  StripeLayout layout(num_nodes, n);
  for (int s = 0; s < num_chunks; ++s) {
    std::vector<NodeId> nodes = {0};
    const auto picks = rng.sample_distinct(num_nodes - 1, n - 1);
    for (int p : picks) nodes.push_back(p + 1);
    layout.add_stripe(nodes);
  }
  return layout;
}

std::vector<NodeId> healthy(int num_nodes) {
  std::vector<NodeId> nodes;
  for (NodeId i = 1; i < num_nodes; ++i) nodes.push_back(i);
  return nodes;
}

constexpr int kM = 100;
constexpr int kN = 9, kK = 6;

/// FNV-1a over the set count, then each set's size and its chunks in
/// order: equal digests mean the same sets in the same order.
uint64_t sets_digest(const std::vector<std::vector<cluster::ChunkRef>>& sets) {
  uint64_t hash = 14695981039346656037ULL;
  const auto add = [&](int64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= static_cast<uint8_t>(static_cast<uint64_t>(value) >>
                                   (8 * byte));
      hash *= 1099511628211ULL;
    }
  };
  add(static_cast<int64_t>(sets.size()));
  for (const auto& set : sets) {
    add(static_cast<int64_t>(set.size()));
    for (const cluster::ChunkRef c : set) {
      add(c.stripe);
      add(c.index);
    }
  }
  return hash;
}

int run_smoke() {
  struct Expected {
    int chunks;
    bool optimize;
    size_t sets;
    long match_calls;
    uint64_t digest;
  };
  // Sets and match calls recorded with the serial swap pass; digests
  // recorded with the row-parallel swap pass and the copy-level matcher
  // (same sets), before MATCH moved to the feasibility matcher.
  const Expected expected[] = {
      {100, true, 9, 89725, 0x1824165828db5eecULL},
      {100, false, 10, 502, 0xbcc07670e5d625c1ULL},
      {200, true, 16, 506114, 0xa23c4850ae6960ddULL},
      {200, false, 18, 1752, 0x2357f3e2feda1a93ULL},
  };
  bool ok = true;
  for (const Expected& e : expected) {
    Rng rng(7);
    const auto layout = pinned_layout(kM, kN, e.chunks, rng);
    core::ReconSetOptions opts;
    opts.optimize = e.optimize;
    core::ReconSetStats stats;
    const auto sets = core::find_reconstruction_sets(layout, 0, healthy(kM),
                                                     kK, opts, &stats);
    const uint64_t digest = sets_digest(sets);
    const bool match = sets.size() == e.sets &&
                       stats.match_calls == e.match_calls &&
                       digest == e.digest;
    std::printf("|C|=%d swap=%s: sets=%zu match_calls=%ld digest=%#018llx%s\n",
                e.chunks, e.optimize ? "on" : "off", sets.size(),
                stats.match_calls, static_cast<unsigned long long>(digest),
                match ? "" : "  (MISMATCH)");
    ok = ok && match;
  }
  std::printf("bench_fig15_microbench --smoke: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  set_log_level(LogLevel::kWarn);
  if (argc > 1 && std::strcmp(argv[1], "--smoke") == 0) {
    return run_smoke();
  }
  std::printf("=== Figure 15 (Exp B.5): Algorithm 1 microbenchmarks ===\n");
  std::printf("M=%d nodes, RS(%d,%d); STF node pinned into every stripe\n\n",
              kM, kN, kK);

  {
    std::printf("(a) reduction of d_opt vs d_ini (avg over 3 runs)\n");
    Table t({"|C|", "d_ini", "d_opt", "reduction"});
    for (int chunks : {100, 200, 300, 400, 500}) {
      double dini_sum = 0, dopt_sum = 0;
      for (uint64_t seed = 1; seed <= 3; ++seed) {
        Rng rng(seed * 101);
        const auto layout = pinned_layout(kM, kN, chunks, rng);
        core::ReconSetOptions on, off;
        on.optimize = true;
        off.optimize = false;
        dopt_sum += static_cast<double>(
            core::find_reconstruction_sets(layout, 0, healthy(kM), kK, on)
                .size());
        dini_sum += static_cast<double>(
            core::find_reconstruction_sets(layout, 0, healthy(kM), kK, off)
                .size());
      }
      t.add_row({std::to_string(chunks), Table::fmt(dini_sum / 3, 1),
                 Table::fmt(dopt_sum / 3, 1),
                 Table::fmt(100.0 * (1.0 - dopt_sum / dini_sum), 1) + "%"});
    }
    t.print();
    std::printf("paper: d_opt ~13%% below d_ini, stable beyond 200 chunks\n");
  }

  {
    std::printf("\n(b) running time of Algorithm 1 (one run per point)\n");
    Table t({"|C|", "time (s)", "match calls", "match searches",
             "swap rows", "rows discarded"});
    for (int chunks : {100, 200, 300, 400, 500}) {
      Rng rng(7);
      const auto layout = pinned_layout(kM, kN, chunks, rng);
      core::ReconSetStats stats;
      const auto start = std::chrono::steady_clock::now();
      (void)core::find_reconstruction_sets(layout, 0, healthy(kM), kK, {},
                                           &stats);
      const double secs = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count();
      t.add_row({std::to_string(chunks), Table::fmt(secs, 2),
                 std::to_string(stats.match_calls),
                 std::to_string(stats.match_searches),
                 std::to_string(stats.swap_rows),
                 std::to_string(stats.swap_rows_discarded)});
    }
    t.print();
    std::printf(
        "paper: 0.84 s at 100 chunks growing superlinearly to 254.63 s at "
        "1000 (their EC2 instance)\n");
    std::printf(
        "swap rows run in parallel; rows discarded were computed past a "
        "swap iteration's stop row and are not counted in match calls\n");
    std::printf(
        "match searches are the matcher searches run: match calls less "
        "those the arithmetic prune or the swap pass's monotonicity "
        "refutation answered, plus one uncounted test per residual chunk "
        "per swap row\n");
  }

  {
    std::printf("\n(extra) §IV-D chunk-grouping mitigation at |C|=500\n");
    Table t({"group size", "time (s)", "sets"});
    for (int group : {0, 250, 100, 50}) {
      Rng rng(7);
      const auto layout = pinned_layout(kM, kN, 500, rng);
      core::ReconSetOptions opts;
      opts.chunk_group_size = group;
      const auto start = std::chrono::steady_clock::now();
      const auto sets = core::find_reconstruction_sets(layout, 0,
                                                       healthy(kM), kK, opts);
      const double secs = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count();
      t.add_row({group == 0 ? "all" : std::to_string(group),
                 Table::fmt(secs, 2), std::to_string(sets.size())});
    }
    t.print();
    std::printf(
        "grouping trades a few extra reconstruction sets for a much "
        "smaller planning time, as §IV-D suggests\n");
  }
  return 0;
}
