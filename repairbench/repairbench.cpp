// repairbench — the repository's one repair benchmark (see README.md in
// this directory for the workload and metric tables).
//
//   repairbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//               [--git-sha <sha>]
//
// Each run is one process and one workload. It runs one untimed
// warm-up repair on the workload's recorded default layout (checked
// against the recorded plan shape), then repeats closed-loop repairs —
// one at a time, each on a fresh testbed whose layout comes from
// --seed — until --seconds have been measured. Every repair is
// byte-verified before its time is used; a failed check counts as
// failed operations and stays in the sample.
//
// --trace 0 reports the end-to-end metrics with tracing off. --trace 1
// runs every layout twice, untraced then traced, and reports per-layer
// numbers aggregated from the program's own TraceLog spans and
// MetricsRegistry counters, plus the tracing overhead.
//
// The last stdout line is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "agent/testbed.h"
#include "core/fastpr.h"
#include "core/repair_plan.h"
#include "ec/rs_code.h"
#include "gf/gf256.h"
#include "load/foreground.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "util/check.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/units.h"

// Timings are never reported from a sanitizer build: the repository's
// sanitizer presets define FASTPR_SANITIZERS_ENABLED, and the compilers
// announce -fsanitize=address/thread themselves.
#if defined(FASTPR_SANITIZERS_ENABLED) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
#define REPAIRBENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define REPAIRBENCH_SANITIZED 1
#endif
#endif
#ifndef REPAIRBENCH_SANITIZED
#define REPAIRBENCH_SANITIZED 0
#endif

using namespace fastpr;

namespace {

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

/// Plan shape recorded for a workload's default layout (whose STF node
/// holds exactly `stf_chunks`). The warm-up repair of every run plans
/// that layout and must reproduce it exactly, so a change in planner
/// behaviour is reported as a failed check instead of being timed as a
/// speed-up.
struct Recorded {
  long match_calls = 0;
  int rounds = 0;
};

struct Workload {
  std::string name;
  agent::TestbedOptions testbed;
  /// Layout seed of the warm-up repair (the workload's default seed).
  uint64_t default_seed = 1;
  /// |C|: chunks on the STF node. Every layout flags the storage node
  /// whose load is closest to this (ties: lowest id), so the repair size
  /// is a property of the workload and --seed varies which stripes,
  /// helpers and destinations are involved.
  int stf_chunks = 0;
  Recorded recorded;
  /// Open-loop foreground mix running through each repair window.
  std::optional<load::WorkloadOptions> foreground;
};

constexpr int kN = 9;
constexpr int kK = 6;

Workload make_workload(const std::string& name) {
  Workload w;
  w.name = name;
  auto& o = w.testbed;
  o.round_timeout = std::chrono::minutes(2);
  if (name == "paper_testbed") {
    // Fig. 11 scaled testbed: chunks 1/16, bandwidths 1/4 of EC2.
    o.num_storage = 21;
    o.num_standby = 3;
    o.disk_bytes_per_sec = MBps(142) / 4;
    o.net_bytes_per_sec = Gbps(5) / 4;
    o.chunk_bytes = static_cast<uint64_t>(MB(4));
    o.packet_bytes = 256 * kKiB;
    o.num_stripes = 110;
    w.default_seed = 1;
    w.stf_chunks = 60;
    w.recorded = {766, 15};
  } else if (name == "tcp_dataplane") {
    o.num_storage = 12;
    o.num_standby = 2;
    o.chunk_bytes = static_cast<uint64_t>(MB(4));
    o.packet_bytes = 256 * kKiB;
    o.num_stripes = 256;
    o.use_tcp = true;
    w.default_seed = 1;
    w.stf_chunks = 209;
    w.recorded = {209, 70};
  } else if (name == "plan_at_scale") {
    o.num_storage = 100;
    o.num_standby = 3;
    o.chunk_bytes = 64 * kKiB;
    o.packet_bytes = 64 * kKiB;
    o.num_stripes = 2200;
    w.default_seed = 7;
    w.stf_chunks = 228;
    w.recorded = {798239, 15};
  } else if (name == "repair_under_load") {
    o.num_storage = 12;
    o.num_standby = 2;
    o.disk_bytes_per_sec = MBps(100);
    o.net_bytes_per_sec = MBps(50);
    o.chunk_bytes = 1 * kMiB;
    o.packet_bytes = 64 * kKiB;
    o.num_stripes = 192;
    w.default_seed = 1;
    w.stf_chunks = 156;
    w.recorded = {156, 52};
    load::WorkloadOptions f;
    f.ops_per_sec = 400;
    f.read_fraction = 0.8;
    f.op_bytes = 64 * kKiB;
    f.zipf_theta = 0.99;
    f.threads = 2;
    f.verify_degraded = true;
    w.foreground = f;
  } else {
    return Workload{};
  }
  return w;
}

// ---------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------

double now_s() {
  return std::chrono::duration<double>(
             telemetry::trace_now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double max_of(const std::vector<double>& v) {
  return v.empty() ? 0 : *std::max_element(v.begin(), v.end());
}

/// Closed loop: runs `iteration(0)`, `iteration(1)`, ... back to back and
/// starts another only if, at the pace of the last one, it ends within
/// `seconds` of the start. Always runs at least one.
void repeat_for(double seconds, const std::function<void(uint64_t)>& iteration) {
  const double start = now_s();
  for (uint64_t i = 0;; ++i) {
    const double t = now_s();
    iteration(i);
    const double end = now_s();
    if (end - start + (end - t) > seconds) return;
  }
}

/// splitmix64 finaliser: decorrelates seeds derived from one another.
uint64_t mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Layout seed of the i-th timed repair of a run with --seed `seed`.
uint64_t layout_seed(uint64_t seed, uint64_t i) {
  return mix(seed * 1000003ULL + i);
}

/// Resets the kernel's resident-set high-water mark (VmHWM) to the
/// current resident set, so the next peak_rss_mb() covers only what runs
/// in between. Returns false where the kernel refuses.
bool reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

/// VmHWM: the largest resident set since the last reset_peak_rss().
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        auto s = line.substr(colon + 1);
        s.erase(0, s.find_first_not_of(' '));
        return s;
      }
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

int64_t counter(const telemetry::MetricsRegistry::Snapshot& s,
                const std::string& name) {
  for (const auto& [n, v] : s.counters) {
    if (n == name) return v;
  }
  return 0;
}

telemetry::Histogram::Snapshot histogram(
    const telemetry::MetricsRegistry::Snapshot& s, const std::string& name) {
  for (const auto& [n, h] : s.histograms) {
    if (n == name) return h;
  }
  return {};
}

/// Self time per span name, in seconds summed across threads: each
/// span's duration minus the part of it covered by spans nested inside
/// it on the same thread. Spans are RAII scopes, so on one thread they
/// always nest.
std::map<std::string, double> self_times(
    const std::vector<telemetry::TraceEvent>& events) {
  // A thread appends its spans as they end, and the snapshot keeps that
  // order among equal starts, so of two spans with the same start and
  // length the later one encloses the earlier.
  std::vector<size_t> order(events.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&events](size_t a, size_t b) {
    const auto& x = events[a];
    const auto& y = events[b];
    if (x.tid != y.tid) return x.tid < y.tid;
    if (x.start_us != y.start_us) return x.start_us < y.start_us;
    if (x.duration_us != y.duration_us) return x.duration_us > y.duration_us;
    return a > b;
  });
  struct Open {
    const telemetry::TraceEvent* event;
    int64_t end_us;
    int64_t child_us;
  };
  std::map<std::string, double> out;
  std::vector<Open> stack;
  auto close = [&](const Open& o) {
    const int64_t self = std::max<int64_t>(0, o.event->duration_us - o.child_us);
    out[o.event->name] += static_cast<double>(self) / 1e6;
  };
  uint32_t tid = 0;
  for (const size_t i : order) {
    const auto& e = events[i];
    if (e.tid != tid) {
      while (!stack.empty()) {
        close(stack.back());
        stack.pop_back();
      }
      tid = e.tid;
    }
    while (!stack.empty() && stack.back().end_us <= e.start_us) {
      close(stack.back());
      stack.pop_back();
    }
    int64_t end = e.start_us + e.duration_us;
    if (!stack.empty()) {
      // Start and length are truncated to whole µs separately, so a
      // child that ends with its parent can read up to 1 µs past it.
      end = std::min(end, stack.back().end_us);
      stack.back().child_us += end - e.start_us;
    }
    stack.push_back(Open{&e, end, 0});
  }
  while (!stack.empty()) {
    close(stack.back());
    stack.pop_back();
  }
  return out;
}

// ---------------------------------------------------------------------
// One repair
// ---------------------------------------------------------------------

struct RepairResult {
  double setup_s = 0;      // testbed (+ foreground) construction
  double plan_s = 0;       // flag_stf + plan_fastpr
  double execute_s = 0;    // Testbed::execute
  double repair_s = 0;     // plan_s + execute_s
  int chunks = 0;          // planned
  int failed = 0;          // unrepaired + verify-mismatched + failed checks
  long match_calls = 0;
  int rounds = 0;
  int recon_rounds = 0;
  double traffic_ratio = 0;
  double peak_rss_mb = 0;  // process peak (VmHWM) while this repair ran
  double predicted_s = 0;  // Σ predict_rounds
  std::vector<double> round_s;
  std::vector<std::string> errors;
  // Foreground (repair_under_load only).
  int64_t fg_ops = 0, fg_failed = 0, fg_reads = 0, fg_writes = 0,
          fg_degraded = 0;
  double fg_p50_ms = 0, fg_p99_ms = 0, fg_ops_per_s = 0;
  // Traced repairs only.
  std::map<std::string, double> self_s;
  telemetry::MetricsRegistry::Snapshot metrics;
};

/// The storage node whose load is closest to `target` (ties: lowest id).
cluster::NodeId pick_stf(const cluster::StripeLayout& layout,
                         int num_storage, int target) {
  cluster::NodeId best = 0;
  for (cluster::NodeId n = 1; n < num_storage; ++n) {
    if (std::abs(layout.load(n) - target) <
        std::abs(layout.load(best) - target)) {
      best = n;
    }
  }
  return best;
}

RepairResult run_repair(const Workload& w, const ec::ErasureCode& code,
                        uint64_t layout_seed, uint64_t fg_seed,
                        bool traced) {
  RepairResult r;
  auto opts = w.testbed;
  opts.seed = layout_seed;

  const double t_setup = now_s();
  agent::Testbed tb(opts, code);
  std::unique_ptr<load::ForegroundWorkload> fg;
  if (w.foreground.has_value()) {
    auto f = *w.foreground;
    f.seed = fg_seed;
    fg = std::make_unique<load::ForegroundWorkload>(tb, code, f);
  }
  const cluster::NodeId stf =
      pick_stf(tb.layout(), opts.num_storage, w.stf_chunks);
  r.setup_s = now_s() - t_setup;

  telemetry::MetricsRegistry::global().reset();
  if (traced) {
    telemetry::TraceLog::global().clear();
    telemetry::TraceLog::global().set_enabled(true);
  }
  reset_peak_rss();
  if (fg != nullptr) {
    fg->set_degraded(stf);
    tb.set_pressure_source(fg.get());
    fg->start();
  }

  // Timed: STF flagged → plan → (untimed structural validation) →
  // execute until the last chunk is acknowledged.
  const double t0 = now_s();
  tb.flag_stf_nodes({stf});
  auto planner = tb.make_planner(core::Scenario::kScattered);
  const core::RepairPlan plan = planner.plan_fastpr();
  r.plan_s = now_s() - t0;

  r.chunks = plan.total_repaired();
  r.match_calls = planner.recon_stats().match_calls;
  r.rounds = static_cast<int>(plan.rounds.size());
  for (const auto& round : plan.rounds) {
    if (!round.reconstructions.empty()) ++r.recon_rounds;
  }
  bool plan_ok = true;
  try {
    core::validate_plan(plan, tb.layout(), tb.cluster(),
                        code.repair_fetch_count(0), &code);
  } catch (const CheckFailure& e) {
    plan_ok = false;
    r.errors.push_back(std::string("validate_plan: ") + e.what());
  }
  if (r.chunks != tb.layout().load(stf)) {
    plan_ok = false;
    r.errors.push_back("plan does not cover the STF node's chunks");
  }
  for (const auto& p : tb.predict_rounds(plan, core::Scenario::kScattered)) {
    r.predicted_s += p.duration_seconds;
  }

  const double t1 = now_s();
  const agent::ExecutionReport report = tb.execute(plan);
  r.execute_s = now_s() - t1;
  r.repair_s = r.plan_s + r.execute_s;
  r.peak_rss_mb = peak_rss_mb();

  std::optional<load::WorkloadStats> fg_stats;
  if (fg != nullptr) {
    fg->stop();
    fg_stats = fg->stats();  // before verification stretches its window
    tb.set_pressure_source(nullptr);
  }
  if (traced) {
    telemetry::TraceLog::global().set_enabled(false);
    r.self_s = self_times(telemetry::TraceLog::global().snapshot());
    telemetry::TraceLog::global().clear();
  }
  r.metrics = telemetry::MetricsRegistry::global().snapshot();
  r.round_s = report.round_seconds;

  // Repair traffic: data packets in-process; every TCP frame byte over
  // loopback (the in-process byte count reads 0 there).
  const double network_bytes =
      opts.use_tcp ? static_cast<double>(counter(r.metrics, "tcp.bytes_tx"))
                   : static_cast<double>(report.network_bytes);
  const double repaired_bytes =
      static_cast<double>(report.completions.size()) *
      static_cast<double>(opts.chunk_bytes);
  r.traffic_ratio = repaired_bytes > 0 ? network_bytes / repaired_bytes : 0;

  // Correctness, never timed: completions ∪ unrepaired == plan, every
  // completed chunk byte-exact at its final destination.
  const bool verified = tb.verify(report, plan);
  r.failed = static_cast<int>(report.unrepaired.size());
  if (!verified) {
    // Every planned chunk is suspect, and a report that accounts for no
    // chunk at all still fails.
    r.failed = std::max(r.chunks, r.failed + 1);
    r.errors.push_back("byte verification failed");
  }
  if (!report.success) {
    r.failed = std::max(r.failed, 1);
    r.errors.push_back(report.errors.empty() ? "execute failed"
                                             : report.errors.front());
  }
  if (!plan_ok) r.failed = std::max(r.failed, 1);
  if (r.failed == 0 && r.chunks == 0) {
    r.failed = 1;
    r.errors.push_back("empty plan");
  }

  if (fg_stats.has_value()) {
    const auto& s = *fg_stats;
    r.fg_reads = s.reads;
    r.fg_writes = s.writes;
    r.fg_degraded = s.degraded_reads;
    r.fg_ops = s.reads + s.writes + s.degraded_reads;
    r.fg_failed = s.failed_ops + s.verify_failures;
    r.fg_p50_ms = s.p50_seconds * 1e3;
    r.fg_p99_ms = s.p99_seconds * 1e3;
    r.fg_ops_per_s = s.achieved_ops_per_sec;
    if (s.verify_failures != 0) {
      r.errors.push_back("foreground degraded reads decoded wrong bytes");
    }
  }
  return r;
}

/// Standalone fused-dot throughput at the data plane's shape: k = 6
/// sources × one 256 KiB packet, GB/s of source bytes consumed.
double gf_dot_gbps() {
  constexpr size_t kLen = 256 * 1024;
  constexpr size_t kSrc = kK;
  Rng rng(1);
  std::vector<std::vector<uint8_t>> src(kSrc, std::vector<uint8_t>(kLen));
  for (auto& s : src) {
    for (auto& b : s) b = static_cast<uint8_t>(rng.uniform(0, 255));
  }
  std::vector<const uint8_t*> ptrs;
  for (auto& s : src) ptrs.push_back(s.data());
  const uint8_t coeffs[kSrc] = {0x8e, 0x47, 0xad, 0xd8, 0x3b, 0x61};
  std::vector<uint8_t> dst(kLen, 0);
  std::vector<double> rates;
  for (int batch = 0; batch < 9; ++batch) {
    constexpr int kCalls = 64;
    const double t0 = now_s();
    for (int i = 0; i < kCalls; ++i) {
      gf::dot_region_xor(dst.data(), ptrs.data(), coeffs, kSrc, kLen);
    }
    const double dt = now_s() - t0;
    rates.push_back(static_cast<double>(kCalls * kSrc * kLen) / dt / 1e9);
  }
  // Keep the result observable.
  volatile uint8_t sink = dst[kLen / 2];
  (void)sink;
  return median(rates);
}

// ---------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, int64_t attempted, int64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const auto& m : metrics) {
    std::printf("metric %-34s %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) os << ", ";
    os << "\"" << metrics[i].name << "\": {\"value\": " << metrics[i].value
       << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  os << "}}";
  std::printf("%s\n", os.str().c_str());
  std::fflush(stdout);
}

int usage() {
  std::fprintf(stderr,
               "usage: repairbench --workload "
               "<paper_testbed|tcp_dataplane|plan_at_scale|"
               "repair_under_load> --seed <n> --seconds <s> --trace <0|1> "
               "[--git-sha <sha>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::string git_sha = "unknown";
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      trace = value == "1";
    } else if (flag == "--git-sha") {
      git_sha = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0) return usage();
  const Workload w = make_workload(workload_name);
  if (w.name.empty() || seconds <= 0) return usage();
  if (REPAIRBENCH_SANITIZED) {
    std::fprintf(stderr,
                 "repairbench: refusing to report timings from a sanitizer "
                 "build\n");
    return 3;
  }
  set_log_level(LogLevel::kError);
  if (!reset_peak_rss()) {
    std::fprintf(stderr,
                 "repairbench: cannot reset VmHWM, so peak_rss_mb is the "
                 "peak of the whole process so far\n");
  }

  const ec::RsCode code(kN, kK);
  std::printf(
      "env {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"gf_kernel\": \"%s\", \"telemetry_enabled\": %d, "
      "\"build_type\": \"%s\", \"cpu\": \"%s\", \"nproc\": %u, "
      "\"git_sha\": \"%s\"}\n",
      w.name.c_str(), static_cast<unsigned long long>(seed), seconds,
      trace ? 1 : 0, gf::kernel_name(gf::active_kernel()),
      FASTPR_TELEMETRY_ENABLED, REPAIRBENCH_BUILD_TYPE,
      json_escape(cpu_model()).c_str(), std::thread::hardware_concurrency(),
      json_escape(git_sha).c_str());
  if (FASTPR_TELEMETRY_ENABLED == 0 && (trace || w.testbed.use_tcp)) {
    std::fprintf(stderr,
                 "repairbench: this workload needs telemetry compiled in\n");
    return 3;
  }

  int64_t attempted = 0;
  int64_t failed = 0;
  auto account = [&](const RepairResult& r, const char* what) {
    attempted += r.chunks + r.fg_ops;
    failed += r.failed + r.fg_failed;
    for (const auto& e : r.errors) {
      std::printf("FAIL %s: %s\n", what, e.c_str());
    }
  };

  // Warm-up on the recorded default layout: untimed, counted in setup_s,
  // and checked against the recorded plan shape.
  const RepairResult warm =
      run_repair(w, code, w.default_seed, mix(seed ^ 0x5741524dULL), false);
  account(warm, "warm-up");
  ++attempted;  // the recorded-shape check itself
  const bool shape_ok = warm.chunks == w.stf_chunks &&
                        warm.match_calls == w.recorded.match_calls &&
                        warm.rounds == w.recorded.rounds;
  std::printf(
      "warm-up: default seed %llu |C|=%d match_calls=%ld rounds=%d "
      "(recorded %d, %ld, %d); testbed %.3f s, "
      "repair %.3f s\n",
      static_cast<unsigned long long>(w.default_seed), warm.chunks,
      warm.match_calls, warm.rounds, w.stf_chunks,
      w.recorded.match_calls, w.recorded.rounds, warm.setup_s,
      warm.repair_s);
  if (!shape_ok) {
    ++failed;
    std::printf("FAIL warm-up: plan shape differs from the recorded one\n");
  }

  if (trace) {
    // Per-layer run: standalone GF timing, then each layout repaired
    // untraced and traced on fresh testbeds.
    const double dot_gbps = gf_dot_gbps();
    std::vector<RepairResult> plain, traced;
    repeat_for(seconds, [&](uint64_t i) {
      const uint64_t layout = layout_seed(seed, i);
      plain.push_back(run_repair(w, code, layout, mix(layout), false));
      account(plain.back(), "repair");
      traced.push_back(run_repair(w, code, layout, mix(layout), true));
      account(traced.back(), "traced repair");
    });
    auto med = [&](const std::function<double(const RepairResult&)>& f) {
      std::vector<double> v;
      for (const auto& r : traced) v.push_back(f(r));
      return median(v);
    };
    auto self = [&](const char* span) {
      return med([span](const RepairResult& r) {
        const auto it = r.self_s.find(span);
        return it == r.self_s.end() ? 0.0 : it->second;
      });
    };
    auto count = [&](const char* name) {
      return med([name](const RepairResult& r) {
        return static_cast<double>(counter(r.metrics, name));
      });
    };
    auto hist = [&](const char* name, double p) {
      return med([name, p](const RepairResult& r) {
        return static_cast<double>(histogram(r.metrics, name).percentile(p));
      });
    };
    std::vector<double> overhead;
    for (size_t i = 0; i < traced.size(); ++i) {
      if (plain[i].repair_s > 0) {
        overhead.push_back(traced[i].repair_s / plain[i].repair_s);
      }
    }
    const double pool_hits = count("buffer_pool.hits");
    const double pool_lookups = pool_hits + count("buffer_pool.misses");
    std::vector<Metric> m = {
        {"core.plan_s", med([](auto& r) { return r.plan_s; }), "s"},
        {"core.recon_sets_s", self("planner.recon_sets"), "thread-s"},
        {"core.schedule_s", self("planner.schedule"), "thread-s"},
        {"core.match_calls",
         med([](auto& r) { return static_cast<double>(r.match_calls); }),
         "count"},
        {"core.rounds",
         med([](auto& r) { return static_cast<double>(r.rounds); }),
         "count"},
        {"core.recon_set_count",
         med([](auto& r) { return static_cast<double>(r.recon_rounds); }),
         "count"},
        {"core.model_ratio",
         med([](auto& r) {
           return r.predicted_s > 0 ? r.execute_s / r.predicted_s : 0.0;
         }),
         "ratio"},
        {"agent.execute_s", med([](auto& r) { return r.execute_s; }), "s"},
        {"agent.round_p50_s", med([](auto& r) { return median(r.round_s); }),
         "s"},
        {"agent.round_max_s", med([](auto& r) { return max_of(r.round_s); }),
         "s"},
        {"agent.stream_chunk_s", self("agent.stream_chunk"), "thread-s"},
        {"agent.send_packet_s", self("agent.send_packet"), "thread-s"},
        {"agent.accumulate_s", self("agent.accumulate"), "thread-s"},
        {"agent.store_chunk_s", self("agent.store_chunk"), "thread-s"},
        {"store.read_s", self("store.read"), "thread-s"},
        {"store.write_s", self("store.write"), "thread-s"},
        {"net.tcp_send_frame_s", self("tcp.send_frame"), "thread-s"},
        {"net.tcp_read_frame_s", self("tcp.read_frame"), "thread-s"},
        {"net.frames_tx", count("tcp.frames_tx"), "count"},
        {"net.bytes_tx", count("tcp.bytes_tx"), "bytes"},
        {"net.inproc_shape_s", self("inproc.shape"), "thread-s"},
        {"store.charge_io_s", self("store.charge_io"), "thread-s"},
        {"util.tokenbucket_wait_p50_ns", hist("tokenbucket.wait_ns", 0.50),
         "ns"},
        {"util.tokenbucket_wait_p99_ns", hist("tokenbucket.wait_ns", 0.99),
         "ns"},
        {"util.tokenbucket_wait_sum_s",
         med([](auto& r) {
           return static_cast<double>(
                      histogram(r.metrics, "tokenbucket.wait_ns").sum) /
                  1e9;
         }),
         "thread-s"},
        {"util.buffer_pool_hit_ratio",
         pool_lookups > 0 ? pool_hits / pool_lookups : 0.0, "ratio"},
        {"util.buffer_pool_lookups", pool_lookups, "count"},
        {"util.threadpool_queue_wait_p99_us",
         hist("threadpool.queue_wait_us", 0.99), "us"},
        {"gf.dot_gbps", dot_gbps, "GB/s"},
        {"load.reads",
         med([](auto& r) { return static_cast<double>(r.fg_reads); }),
         "count"},
        {"load.writes",
         med([](auto& r) { return static_cast<double>(r.fg_writes); }),
         "count"},
        {"load.degraded_reads",
         med([](auto& r) { return static_cast<double>(r.fg_degraded); }),
         "count"},
        {"load.fg_p50_ms", med([](auto& r) { return r.fg_p50_ms; }), "ms"},
        {"load.fg_p99_ms", med([](auto& r) { return r.fg_p99_ms; }), "ms"},
        {"load.fg_ops_per_s", med([](auto& r) { return r.fg_ops_per_s; }),
         "ops/s"},
        {"telemetry.trace_overhead", median(overhead), "ratio"},
        {"repair.samples", static_cast<double>(traced.size()), "count"},
    };
    print_result(failed == 0, attempted, failed, m);
    return 0;
  }

  // End-to-end run: tracing off.
  std::vector<RepairResult> runs;
  repeat_for(seconds, [&](uint64_t i) {
    const uint64_t layout = layout_seed(seed, i);
    runs.push_back(run_repair(w, code, layout, mix(layout), false));
    account(runs.back(), "repair");
  });
  std::vector<double> repair_s, setup_s = {warm.setup_s}, rss, ratio, p50,
                                p99, ops;
  for (const auto& r : runs) {
    repair_s.push_back(r.repair_s);
    setup_s.push_back(r.setup_s);
    rss.push_back(r.peak_rss_mb);
    ratio.push_back(r.traffic_ratio);
    p50.push_back(r.fg_p50_ms);
    p99.push_back(r.fg_p99_ms);
    ops.push_back(r.fg_ops_per_s);
  }
  // Too few samples for a tail percentile with ten samples beyond it, so
  // the tail is reported as the maximum.
  std::printf(
      "repairs: n=%zu median %.4f s max %.4f s; samples "
      "(repair_s/|C|/match_calls):",
      runs.size(), median(repair_s), max_of(repair_s));
  for (const auto& r : runs) {
    std::printf(" %.3f/%d/%ld", r.repair_s, r.chunks, r.match_calls);
  }
  std::printf("\n");
  if (w.foreground.has_value()) {
    std::printf(
        "foreground (per repair window, medians): p50 %.3f ms p99 %.3f ms "
        "%.1f ops/s offered %.0f\n",
        median(p50), median(p99), median(ops), w.foreground->ops_per_sec);
  }
  std::vector<Metric> m = {
      {"repair_s", median(repair_s), "s"},
      {"setup_s", median(setup_s) + warm.repair_s, "s"},
      {"peak_rss_mb", median(rss), "MB"},
      {"repair_traffic_ratio", median(ratio), "bytes/byte"},
  };
  print_result(failed == 0, attempted, failed, m);
  return 0;
}
