// Declared lock hierarchy for every named mutex in the repo.
//
// Each fastpr::Mutex is constructed with one of the ranks below; a
// thread may only acquire a mutex whose order is STRICTLY GREATER than
// every mutex it already holds. Two enforcement layers consume this
// table:
//
//  * tools/fastpr_analyze (static) extracts MutexLock scopes and
//    FASTPR_REQUIRES annotations from the sources and rejects any
//    acquisition edge that descends the hierarchy or forms a cycle;
//  * the debug lock-order tracker in util/mutex.h (runtime, compiled in
//    when FASTPR_LOCK_TRACKING is set — the asan-ubsan/tsan presets)
//    maintains a per-thread held-lock stack and a global order graph
//    and raises CheckFailure on a rank violation or a would-deadlock
//    cycle, printing both acquisition stacks.
//
// Ordering rationale (low rank = acquired first / outermost):
// control-plane state comes first, then the agent's data-plane flow
// control, then transport internals, then the utility substrate the
// upper layers call into (thread pool, shaping buckets, buffer pool),
// and finally the observability sinks (metrics, trace, logging) that
// every layer may invoke from under its own lock. Leaf facilities MUST
// therefore never call back up the stack while holding their lock.
//
// Ranks are spaced by 10 so a future mutex can slot between two layers
// without renumbering the world. DESIGN.md §6b reproduces this table
// with the per-rank justification.
#pragma once

namespace fastpr::lock_order {

/// One level of the lock hierarchy. Instances are the inline constexpr
/// constants below; Mutex stores a pointer to its rank, so identity
/// comparison works and the table is the single source of truth.
struct Rank {
  int order;         // strictly ascending acquisition order
  const char* name;  // stable dotted name, used in diagnostics
};

// -- control plane -------------------------------------------------------
/// agent::ForwardingPressureSource target pointer. Held across the
/// target's sample() so a retarget waits out in-flight samples; the
/// workload's sample() takes load.workload under it, hence the lower
/// rank.
inline constexpr Rank kAgentPressureSource{12, "agent.pressure_source"};
/// core::RepairThrottler lease/AIMD state. The coordinator thread ticks
/// it and agents' pressure reports fold into it; holders only update
/// budget arithmetic, never send or block.
inline constexpr Rank kCoreThrottler{14, "core.throttler"};
/// core::BandwidthReplanTrigger hysteresis state (DESIGN.md §11). The
/// coordinator thread feeds end-of-round drift ratios and tests the
/// trigger; holders only update counters, never call out.
inline constexpr Rank kCoreReplanTrigger{15, "core.replan_trigger"};
/// load::ForegroundWorkload op log + latency windows. Client threads
/// record completed ops under it; the shaped charges (store.chunks,
/// util.token_bucket) happen outside by contract.
inline constexpr Rank kLoadWorkload{16, "load.workload"};

// -- agent data plane ----------------------------------------------------
/// Agent::SendWindow per-transfer flow control. A reader task reserves
/// a slot under it (predicate wait on the window cv), releases, then
/// enqueues under agent.send_queue; the ranks keep that sequence legal
/// even if a future change nests them.
inline constexpr Rank kAgentSendWindow{20, "agent.send_window"};
/// agent::RepairBudget lease bookkeeping (seq / expiry / floor rate).
/// Sender workers check lease freshness under it, release, and only
/// then block on the underlying util.token_bucket.
inline constexpr Rank kAgentRepairBudget{25, "agent.repair_budget"};
/// Agent sender-worker queue (send_mutex_). Senders drop it before
/// touching the transport.
inline constexpr Rank kAgentSendQueue{30, "agent.send_queue"};

// -- transport -----------------------------------------------------------
/// net::FaultyTransport fault plan + RNG. decide() bumps fault counters
/// (telemetry.metrics) under it; the faulted send runs outside it.
inline constexpr Rank kNetFault{40, "net.fault"};
/// net::TcpTransport per-endpoint connection map (dst → Conn).
inline constexpr Rank kNetConnMap{50, "net.conn_map"};
/// net::TcpTransport per-connection frame-write serialization. Taken
/// after the map lookup releases kNetConnMap; held across the socket
/// write so frames from concurrent senders never interleave mid-frame.
inline constexpr Rank kNetConnWrite{60, "net.conn_write"};
/// TCP reader-thread registry (accept loop appends, shutdown joins).
inline constexpr Rank kNetReader{70, "net.reader"};
/// Per-endpoint inbox (both transports). Message destruction under it
/// recycles payloads into util.buffer_pool.
inline constexpr Rank kNetInbox{80, "net.inbox"};

// -- storage -------------------------------------------------------------
/// agent::ChunkStore chunk/checksum maps. Disk shaping (charge_io) and
/// file I/O are done outside it by contract.
inline constexpr Rank kStoreChunks{90, "store.chunks"};

// -- utility substrate ---------------------------------------------------
/// fastpr::ThreadPool task queue.
inline constexpr Rank kUtilThreadPool{100, "util.thread_pool"};
/// fastpr::TokenBucket shaping state. acquire() parks on its own cv
/// under this lock; callers must not hold anything above it that the
/// waker needs (set_rate only takes this same lock).
inline constexpr Rank kUtilTokenBucket{110, "util.token_bucket"};
/// fastpr::BufferPool shelves. Reached from inbox drains and packet
/// recycling; takes nothing further.
inline constexpr Rank kUtilBufferPool{120, "util.buffer_pool"};

// -- observability (leaf-most: callable from under any lock above) -------
/// telemetry::MetricsRegistry name → instrument map.
inline constexpr Rank kTelemetryMetrics{130, "telemetry.metrics"};
/// telemetry::FlowMonitor per-link window state. Transport tx/rx hooks
/// report into it from sender and reader threads; holders only fold
/// arithmetic, never call out.
inline constexpr Rank kTelemetryFlow{132, "telemetry.flow"};
/// telemetry::TraceLog buffer registry; snapshot() drains per-thread
/// buffers under it, nesting telemetry.trace_buffer.
inline constexpr Rank kTelemetryTrace{140, "telemetry.trace"};
/// telemetry per-thread trace buffers (TraceLog::ThreadBuffer).
inline constexpr Rank kTelemetryTraceBuffer{150, "telemetry.trace_buffer"};
/// util/logging sink serialization. The absolute leaf: LOG_* fires from
/// under arbitrary locks, so this rank must dominate everything.
inline constexpr Rank kUtilLogging{160, "util.logging"};

}  // namespace fastpr::lock_order
