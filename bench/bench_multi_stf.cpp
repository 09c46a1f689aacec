// Multi-STF batch repair sweep (DESIGN.md §8): repair 1..4 soon-to-fail
// nodes as one batch on the real testbed, comparing the joint batch
// planner (shared Algorithm-1 search over the union of STF chunks,
// Algorithm-2 packing with one migration stream per STF disk) against
// the sequential baseline (each member planned alone, plans executed
// back to back). The paper has no multi-STF experiment, so `sequential`
// is the in-repo reference; batch 1 is the single-STF planner, and the
// row should match Figure 11's 256 KB-packet FastPR point within
// run-to-run noise.
#include <algorithm>

#include "bench_common.h"

using namespace fastpr;

namespace {

struct BatchRun {
  double wall = 0;       // measured repair seconds (coordinator clock)
  double per_chunk = 0;
  int rounds = 0;
  int chunks = 0;        // U = union of the batch members' chunks
  telemetry::RepairReport report;
  bool ok = false;
};

/// One execution on a fresh testbed (pristine stores/agents), verified
/// byte-for-byte before any timing is reported.
BatchRun run_batch(const agent::TestbedOptions& opts,
                   const ec::ErasureCode& code, core::Scenario scenario,
                   int batch, bool joint) {
  BatchRun out;
  agent::Testbed tb(opts, code);
  const auto stf_nodes = tb.flag_stf_batch(batch);
  auto planner = tb.make_planner(scenario);
  const auto plan =
      joint ? planner.plan_fastpr() : planner.plan_sequential();
  auto report = tb.execute(plan);
  if (!report.success) {
    LOG_ERROR("testbed run failed: "
              << (report.errors.empty() ? "?" : report.errors[0]));
    return out;
  }
  if (!tb.verify(plan)) {
    LOG_ERROR("testbed verification FAILED (batch " << batch << ")");
    return out;
  }
  for (const auto node : stf_nodes) out.chunks += tb.layout().load(node);
  out.wall = report.repair.total_seconds;
  out.per_chunk = report.per_chunk();
  out.rounds = static_cast<int>(plan.rounds.size());
  report.repair.predicted = tb.predict_rounds(plan, scenario);
  out.report = std::move(report.repair);
  out.ok = true;
  return out;
}

}  // namespace

int main() {
  set_log_level(LogLevel::kWarn);
  ec::RsCode code(9, 6);
  std::printf("=== Multi-STF batch repair (no paper counterpart) ===\n");
  std::printf(
      "testbed, RS(9,6), chunk 4 MB (paper 64 MB, scaled 1/16), "
      "bandwidths = EC2/4 (35.5 MB/s disk, 1.25 Gb/s NIC)\n"
      "joint batch planner vs sequential per-node planning, "
      "wall-clock (s)\n\n");

  bench::FigureEmitter fig("bench_multi_stf");
  fig.add_config("code", "RS(9,6)");
  fig.add_config("chunk", "4MB (paper 64MB, scaled 1/16)");
  fig.add_config("bandwidths", "EC2/4 (35.5 MB/s disk, 1.25 Gb/s NIC)");
  fig.add_config("seed", "11");
  fig.add_config("baseline",
                 "sequential per-node plans (no paper baseline exists "
                 "for batch > 1)");

  for (auto scenario :
       {core::Scenario::kScattered, core::Scenario::kHotStandby}) {
    const std::string title =
        std::string("(") +
        (scenario == core::Scenario::kScattered ? "a" : "b") + ") " +
        core::to_string(scenario) + " repair";
    fig.begin_section(title, {"batch", "joint (s)", "sequential (s)",
                              "saved", "joint rounds", "seq rounds",
                              "U", "joint s/chunk"});
    // A hot-standby batch cannot exceed the spare count: a stripe may
    // lose up to B chunks to the batch and each needs a distinct spare.
    const int max_batch =
        scenario == core::Scenario::kHotStandby
            ? std::min(4, bench::testbed_defaults(/*seed=*/11).num_standby)
            : 4;
    for (int batch = 1; batch <= max_batch; ++batch) {
      const auto opts = bench::testbed_defaults(/*seed=*/11);
      const auto joint =
          run_batch(opts, code, scenario, batch, /*joint=*/true);
      const auto sequential =
          run_batch(opts, code, scenario, batch, /*joint=*/false);
      if (!joint.ok || !sequential.ok) {
        fig.add_row({std::to_string(batch), "FAIL", "FAIL", "-", "-",
                     "-", "-", "-"});
        continue;
      }
      fig.add_row({std::to_string(batch), Table::fmt(joint.wall, 2),
                   Table::fmt(sequential.wall, 2),
                   bench::pct(joint.wall, sequential.wall),
                   std::to_string(joint.rounds),
                   std::to_string(sequential.rounds),
                   std::to_string(joint.chunks),
                   Table::fmt(joint.per_chunk, 3)});
      fig.attach_json("joint_report", joint.report.to_json());
    }
    fig.end_section();
  }
  std::printf(
      "expected shape: joint <= sequential at every batch size (shared "
      "rounds amortize reconstruction; per-disk migration streams run "
      "in parallel), gap widening with batch; batch 1 matches Fig 11's "
      "FastPR point at 256 KB packets\n");
  fig.write_sidecar();
  return 0;
}
