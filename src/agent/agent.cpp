#include "agent/agent.h"

#include <algorithm>
#include <chrono>
#include <functional>

#include "gf/gf256.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "util/check.h"
#include "util/logging.h"

namespace fastpr::agent {

using cluster::ChunkRef;
using cluster::NodeId;
using net::Message;
using net::MessageType;
using net::TransferMode;

Agent::Agent(NodeId id, net::Transport& transport, ChunkStore& store,
             const AgentOptions& options)
    : id_(id), transport_(transport), store_(store), options_(options) {
  FASTPR_CHECK(options.coordinator != cluster::kNoNode);
  FASTPR_CHECK(options.pipeline_depth >= 1);
  FASTPR_CHECK(options.reader_threads >= 1);
  FASTPR_CHECK(options.sender_threads >= 1);
}

Agent::~Agent() { stop(); }

void Agent::start() {
  FASTPR_CHECK(!started_);
  started_ = true;
  {
    MutexLock lock(send_mutex_);
    send_closed_ = false;
  }
  reader_pool_ = std::make_unique<ThreadPool>(options_.reader_threads);
  senders_.reserve(options_.sender_threads);
  for (size_t i = 0; i < options_.sender_threads; ++i) {
    senders_.emplace_back([this] { sender_loop(); });
  }
  dispatcher_ = std::thread([this] { dispatch_loop(); });
}

void Agent::stop() {
  if (!started_) return;
  // A shutdown message to ourselves pops the dispatcher out of recv().
  Message bye;
  bye.type = MessageType::kShutdown;
  bye.from = id_;
  bye.to = id_;
  // Self-delivered teardown signal; the join below is the "ack".
  transport_.send(std::move(bye));  // fastpr-lint: allow(ack-tracking)
  if (dispatcher_.joinable()) dispatcher_.join();
  // Teardown order matters: drain the readers first (their queued
  // packets need live senders), then close the send queue so the sender
  // workers exit once it is empty.
  reader_pool_.reset();
  {
    MutexLock lock(send_mutex_);
    send_closed_ = true;
  }
  send_cv_.notify_all();
  for (auto& s : senders_) {
    if (s.joinable()) s.join();
  }
  senders_.clear();
  started_ = false;
}

void Agent::report_failure(uint64_t task_id, uint32_t attempt,
                           const std::string& error) {
  Message msg;
  msg.type = MessageType::kTaskFailed;
  msg.from = id_;
  msg.to = options_.coordinator;
  msg.task_id = task_id;
  msg.attempt = attempt;
  msg.error = error;
  msg.trace = telemetry::current_trace_context();
  // Terminal failure report: the coordinator's pending map owns the
  // task and reacts (retry / fallback / abandon).
  transport_.send(std::move(msg));  // fastpr-lint: allow(ack-tracking)
}

void Agent::dispatch_loop() {
  for (;;) {
    auto msg = transport_.recv(id_);
    if (!msg.has_value()) return;  // transport shut down
    if (msg->type == MessageType::kShutdown) return;
    if (killed_.load()) continue;  // crashed node: drop silently

    // Adopt the sender's causal context for the whole handler: spans
    // opened below (and contexts captured into reader/sender tasks)
    // parent under the sender's open span.
    telemetry::ScopedTraceContext adopt(msg->trace, id_);
    switch (msg->type) {
      case MessageType::kReconstructCmd:
        handle_reconstruct_cmd(*msg);
        break;
      case MessageType::kMigrateCmd:
        handle_migrate_cmd(*msg);
        break;
      case MessageType::kFetchRequest:
        handle_fetch_request(*msg);
        break;
      case MessageType::kDataPacket:
        handle_data_packet(std::move(*msg));
        break;
      case MessageType::kChainCmd:
        handle_chain_cmd(*msg);
        break;
      case MessageType::kChainPacket:
        handle_chain_packet(std::move(*msg));
        break;
      case MessageType::kCancelTask:
        handle_cancel_task(*msg);
        break;
      case MessageType::kPing:
        handle_ping(*msg);
        break;
      case MessageType::kLeaseGrant:
        handle_lease_grant(*msg);
        break;
      default:
        LOG_WARN("agent " << id_ << ": unexpected message type "
                          << static_cast<int>(msg->type));
    }
  }
}

void Agent::handle_reconstruct_cmd(const Message& msg) {
  // We are the destination. Retries are idempotent: a command that does
  // not advance the attempt is a duplicate and must not restart helper
  // streams; a higher attempt supersedes the old state wholesale (its
  // in-flight packets then fail the attempt check and drop).
  const auto existing = tasks_.find(msg.task_id);
  if (existing != tasks_.end() && existing->second.attempt >= msg.attempt) {
    telemetry::MetricsRegistry::global()
        .counter("agent.stale_cmds")
        .add();
    return;
  }

  // Register the decode state, then ask every helper to stream its
  // (coefficient-tagged) chunk to us.
  TransferState state;
  state.chunk = msg.chunk;
  state.mode = TransferMode::kDecode;
  state.attempt = msg.attempt;
  state.expected_streams = static_cast<int>(msg.sources.size());
  state.chunk_bytes = msg.chunk_bytes;
  state.packet_bytes = msg.packet_bytes;
  state.total_packets = static_cast<uint32_t>(
      (msg.chunk_bytes + msg.packet_bytes - 1) / msg.packet_bytes);
  state.accumulator.assign(msg.chunk_bytes, 0);
  state.pending.resize(state.total_packets);
  tasks_[msg.task_id] = std::move(state);

  for (const auto& src : msg.sources) {
    Message req;
    req.type = MessageType::kFetchRequest;
    req.from = id_;
    req.to = src.node;
    req.task_id = msg.task_id;
    req.attempt = msg.attempt;
    req.chunk = src.chunk;
    req.dst = id_;
    req.coefficient = src.coefficient;
    req.packet_bytes = msg.packet_bytes;
    req.trace = telemetry::current_trace_context();
    // Tracked by the TransferState fan-in registered above: a helper
    // that never streams stalls the task, which the coordinator's
    // round deadline + probe salvages.
    transport_.send(std::move(req));  // fastpr-lint: allow(ack-tracking)
  }
}

void Agent::handle_migrate_cmd(const Message& msg) {
  // We are the STF node: stream the chunk to its new home.
  const uint64_t task_id = msg.task_id;
  const uint32_t attempt = msg.attempt;
  const ChunkRef chunk = msg.chunk;
  const NodeId dst = msg.dst;
  const uint64_t packet_bytes = msg.packet_bytes;
  // Contexts do not follow threads: capture ours so the reader task's
  // spans stay in the command's trace.
  const telemetry::TraceContext ctx = telemetry::current_trace_context();
  reader_pool_->post([this, task_id, attempt, chunk, dst, packet_bytes,
                      ctx] {
    telemetry::ScopedTraceContext adopt(ctx, id_);
    stream_chunk(task_id, attempt, chunk, dst, TransferMode::kStore, 1,
                 packet_bytes);
  });
}

void Agent::handle_fetch_request(const Message& msg) {
  const uint64_t task_id = msg.task_id;
  const uint32_t attempt = msg.attempt;
  const ChunkRef chunk = msg.chunk;
  const NodeId dst = msg.dst;
  const uint8_t coeff = msg.coefficient;
  const uint64_t packet_bytes = msg.packet_bytes;
  const telemetry::TraceContext ctx = telemetry::current_trace_context();
  reader_pool_->post([this, task_id, attempt, chunk, dst, coeff,
                      packet_bytes, ctx] {
    telemetry::ScopedTraceContext adopt(ctx, id_);
    stream_chunk(task_id, attempt, chunk, dst, TransferMode::kDecode, coeff,
                 packet_bytes);
  });
}

void Agent::handle_cancel_task(const Message& msg) {
  // Cancel is keyed by attempt so a cancel racing a newer command
  // cannot kill the newer attempt's state.
  bool cancelled = false;
  const auto it = tasks_.find(msg.task_id);
  if (it != tasks_.end() && it->second.attempt <= msg.attempt) {
    tasks_.erase(it);
    cancelled = true;
  }
  const auto chain_it = chain_tasks_.find(msg.task_id);
  if (chain_it != chain_tasks_.end() &&
      chain_it->second.attempt <= msg.attempt) {
    chain_tasks_.erase(chain_it);
    cancelled = true;
  }
  const auto early_it = chain_early_.find(msg.task_id);
  if (early_it != chain_early_.end()) {
    std::erase_if(early_it->second, [&](const Message& m) {
      return m.attempt <= msg.attempt;
    });
    if (early_it->second.empty()) chain_early_.erase(early_it);
  }
  if (cancelled) {
    telemetry::MetricsRegistry::global()
        .counter("agent.cancelled_tasks")
        .add();
  }
}

void Agent::handle_ping(const Message& msg) {
  Message pong;
  pong.type = MessageType::kPong;
  pong.from = id_;
  pong.to = msg.from;
  pong.task_id = msg.task_id;  // echoes the probe epoch
  // The captured context carries our local clock in origin_ts_us; the
  // coordinator's ClockSync turns ping/pong pairs into offsets.
  pong.trace = telemetry::current_trace_context();
  // Lease renewal piggybacks on the probe epoch: the pong's (otherwise
  // unused) chunk_bytes/packet_bytes carry this node's foreground
  // pressure, so every probe round-trip refreshes the throttler.
  stamp_pressure(pong);
  // Reply to a liveness probe; the coordinator's probe state tracks it.
  transport_.send(std::move(pong));  // fastpr-lint: allow(ack-tracking)
}

void Agent::stamp_pressure(Message& msg) {
  NodePressure pressure;
  if (options_.pressure != nullptr) {
    pressure = options_.pressure->sample(id_);
  }
  msg.chunk_bytes = static_cast<uint64_t>(
      std::max(0.0, pressure.p99_seconds) * 1e9);  // p99 in ns
  msg.packet_bytes =
      static_cast<uint64_t>(std::max(0.0, pressure.fg_bytes_per_sec));
}

void Agent::handle_lease_grant(const Message& msg) {
  if (options_.repair_budget != nullptr) {
    // Seq-monotonic application makes re-sent / reordered grants inert:
    // the budget only moves forward through the coordinator's sequence.
    options_.repair_budget->apply_grant(
        msg.task_id, static_cast<double>(msg.chunk_bytes),
        static_cast<int64_t>(msg.packet_bytes), telemetry::trace_now_us());
  }
  Message report;
  report.type = MessageType::kPressureReport;
  report.from = id_;
  report.to = msg.from;
  report.task_id = options_.repair_budget != nullptr
                       ? options_.repair_budget->applied_seq()
                       : msg.task_id;
  report.trace = telemetry::current_trace_context();
  stamp_pressure(report);
  // Lease-renewal reply; the coordinator's throttler consumes it (a
  // lost report just means this lease renews on the next tick or pong).
  transport_.send(std::move(report));  // fastpr-lint: allow(ack-tracking)
}

void Agent::enqueue_send(Message&& msg,
                         const std::shared_ptr<SendWindow>& window) {
  {
    MutexLock lock(window->mutex);
    const auto has_room = [&]() FASTPR_REQUIRES(window->mutex) {
      return window->in_flight < options_.pipeline_depth;
    };
    window->cv.wait(window->mutex, has_room);
    ++window->in_flight;
  }
  {
    MutexLock lock(send_mutex_);
    send_queue_.push_back(SendItem{std::move(msg), window});
  }
  send_cv_.notify_one();
}

void Agent::sender_loop() {
  for (;;) {
    SendItem item;
    {
      MutexLock lock(send_mutex_);
      const auto ready = [&]() FASTPR_REQUIRES(send_mutex_) {
        return send_closed_ || !send_queue_.empty();
      };
      send_cv_.wait(send_mutex_, ready);
      if (send_queue_.empty()) return;  // closed and drained
      item = std::move(send_queue_.front());
      send_queue_.pop_front();
    }
    {
      // Sender workers are shared across transfers: parent this packet's
      // send span under whatever span built the packet.
      telemetry::ScopedTraceContext adopt(item.msg.trace, id_);
      FASTPR_TRACE_SPAN("agent.send_packet", "agent",
                        static_cast<int64_t>(item.msg.task_id), "task");
      // Leased-budget enforcement (DESIGN.md §10): repair data blocks on
      // the coordinator's lease before it ever touches the NIC, so
      // foreground traffic keeps the un-leased remainder of the link.
      // Control messages are exempt — throttling acks would deadlock
      // repair against its own flow control. No locks held here.
      if (options_.repair_budget != nullptr &&
          net::is_data_packet(item.msg.type)) {
        options_.repair_budget->acquire(
            static_cast<int64_t>(item.msg.encoded_size()),
            telemetry::trace_now_us());
      }
      // Data packet tracked by its transfer's SendWindow (in_flight
      // slot released below); blocks on NIC shaping.
      transport_.send(std::move(item.msg));  // fastpr-lint: allow(ack-tracking)
    }
    {
      MutexLock lock(item.window->mutex);
      --item.window->in_flight;
    }
    item.window->cv.notify_all();
  }
}

void Agent::stream_chunk(uint64_t task_id, uint32_t attempt, ChunkRef chunk,
                         NodeId dst, TransferMode mode, uint8_t coefficient,
                         uint64_t packet_bytes) {
  FASTPR_CHECK(packet_bytes >= 1);
  FASTPR_TRACE_SPAN("agent.stream_chunk", "agent",
                    static_cast<int64_t>(task_id), "task");
  const auto content = store_.read_unthrottled(chunk);
  if (!content.has_value()) {
    report_failure(task_id, attempt,
                   "read error on node " + std::to_string(id_) +
                       " for stripe " + std::to_string(chunk.stripe));
    return;
  }
  const uint64_t chunk_bytes = content->size();
  const uint32_t total_packets = static_cast<uint32_t>(
      (chunk_bytes + packet_bytes - 1) / packet_bytes);

  // Paper §V multi-threading: this reader task paces the disk and feeds
  // the persistent sender workers; the window keeps at most
  // pipeline_depth of this transfer's packets between disk and wire.
  const auto window = std::make_shared<SendWindow>();

  for (uint32_t p = 0; p < total_packets; ++p) {
    const uint64_t offset = static_cast<uint64_t>(p) * packet_bytes;
    const uint64_t len = std::min(packet_bytes, chunk_bytes - offset);
    store_.charge_io(static_cast<int64_t>(len));  // disk read time

    Message packet;
    packet.type = MessageType::kDataPacket;
    packet.from = id_;
    packet.to = dst;
    packet.task_id = task_id;
    packet.attempt = attempt;
    packet.chunk = chunk;
    packet.mode = mode;
    packet.coefficient = coefficient;
    packet.packet_index = p;
    packet.total_packets = total_packets;
    packet.chunk_bytes = chunk_bytes;
    packet.packet_bytes = packet_bytes;
    packet.trace = telemetry::current_trace_context();
    // Pool-recycled payload: after the destination folds the packet in
    // and drops it, the buffer comes back for a later packet.
    packet.payload.assign(content->data() + offset, len);

    enqueue_send(std::move(packet), window);
  }
  telemetry::MetricsRegistry::global()
      .counter("agent.data_packets_tx")
      .add(total_packets);
}

void Agent::handle_data_packet(Message&& msg) {
  // Static refs: one registry lookup per process, not per packet.
  static telemetry::Counter& rx_packets =
      telemetry::MetricsRegistry::global().counter("agent.data_packets_rx");
  static telemetry::Counter& stale_packets =
      telemetry::MetricsRegistry::global().counter("agent.stale_packets");
  static telemetry::Counter& dup_packets =
      telemetry::MetricsRegistry::global().counter("agent.dup_packets");
  rx_packets.add();
  auto it = tasks_.find(msg.task_id);
  const bool store_restart =
      it != tasks_.end() && msg.mode == TransferMode::kStore &&
      msg.attempt > it->second.attempt;
  if (it == tasks_.end() || store_restart) {
    if (msg.mode != TransferMode::kStore) {
      // Decode packet with no matching state: a superseded attempt's
      // helper stream (or a cancelled task) still draining.
      stale_packets.add();
      return;
    }
    // Migration stream: the first packet creates the state lazily (the
    // coordinator commanded the STF node, not us). A retried migration
    // restarts the state at its higher attempt the same way.
    TransferState state;
    state.chunk = msg.chunk;
    state.mode = TransferMode::kStore;
    state.attempt = msg.attempt;
    state.expected_streams = 1;
    state.chunk_bytes = msg.chunk_bytes;
    state.packet_bytes = msg.packet_bytes;
    state.total_packets = msg.total_packets;
    state.accumulator.assign(msg.chunk_bytes, 0);
    state.pending.resize(msg.total_packets);
    tasks_[msg.task_id] = std::move(state);
    it = tasks_.find(msg.task_id);
  }

  TransferState& state = it->second;
  if (msg.attempt != state.attempt) {
    // Stale stream of a superseded attempt: folding it in would corrupt
    // the current attempt's accumulator.
    stale_packets.add();
    return;
  }
  FASTPR_CHECK(msg.packet_index < state.total_packets);
  const uint64_t offset =
      static_cast<uint64_t>(msg.packet_index) * state.packet_bytes;
  FASTPR_CHECK(offset + msg.payload.size() <= state.accumulator.size());
  const size_t payload_bytes = msg.payload.size();

  auto& pending = state.pending[msg.packet_index];
  if (pending.done) {
    // Already folded: a duplicated packet (flaky network) arriving
    // after its index completed must not double-contribute.
    dup_packets.add();
    return;
  }

  bool packet_final = false;
  if (state.expected_streams == 1) {
    // Single-stream transfer (migration, or k=1 repair): no fan-in to
    // wait for — scale-copy straight into place and recycle the buffer.
    gf::mul_region(state.accumulator.data() + offset, msg.payload.data(),
                   msg.coefficient, payload_bytes);
    pending.done = true;
    packet_final = true;
  } else {
    // Reconstruction fan-in: park the stream's contribution until every
    // helper's packet for this index has arrived, then fold all of them
    // into the accumulator with one fused dot pass (one sweep over the
    // packet instead of one per helper stream). A sender contributes at
    // most once per index (duplicate-packet dedupe).
    for (NodeId sender : pending.senders) {
      if (sender == msg.from) {
        dup_packets.add();
        return;
      }
    }
    pending.payloads.push_back(std::move(msg.payload));
    pending.coeffs.push_back(msg.coefficient);
    pending.senders.push_back(msg.from);
    if (pending.payloads.size() ==
        static_cast<size_t>(state.expected_streams)) {
      const uint8_t* srcs[net::kMaxRepairStreams];
      const size_t n = pending.payloads.size();
      FASTPR_CHECK(n <= net::kMaxRepairStreams);
      for (size_t j = 0; j < n; ++j) {
        FASTPR_CHECK(pending.payloads[j].size() == payload_bytes);
        srcs[j] = pending.payloads[j].data();
      }
      FASTPR_TRACE_SPAN("agent.accumulate", "agent",
                        static_cast<int64_t>(msg.task_id), "task");
      gf::dot_region_xor(state.accumulator.data() + offset, srcs,
                         pending.coeffs.data(), n, payload_bytes);
      pending.payloads.clear();  // recycles the pooled buffers
      pending.coeffs.clear();
      pending.senders.clear();
      pending.done = true;
      packet_final = true;
    }
  }

  if (packet_final) {
    // This packet of the repaired chunk is final: write it out now
    // (pipelined disk write), matching the paper's decode-as-you-go.
    store_.charge_io(static_cast<int64_t>(payload_bytes));
    ++state.packets_complete;
    if (state.packets_complete == state.total_packets) {
      FASTPR_TRACE_SPAN("agent.store_chunk", "agent",
                        static_cast<int64_t>(msg.task_id), "task");
      store_.write_unthrottled(state.chunk, std::move(state.accumulator));
      Message done;
      done.type = MessageType::kTaskDone;
      done.from = id_;
      done.to = options_.coordinator;
      done.task_id = msg.task_id;
      done.attempt = state.attempt;
      done.chunk = state.chunk;
      done.trace = telemetry::current_trace_context();
      // Completion ack: the coordinator's pending map consumes it.
      transport_.send(std::move(done));  // fastpr-lint: allow(ack-tracking)
      tasks_.erase(it);
    }
  }
}

void Agent::handle_chain_cmd(const Message& msg) {
  // One command per hop; the full chain rides in msg.sources and `hop`
  // names our slot. Retries are idempotent exactly like reconstruct
  // commands: stale/duplicate attempts drop, a higher attempt replaces
  // the hop state wholesale (its in-flight packets then fail the
  // attempt check).
  FASTPR_CHECK(!msg.sources.empty());
  FASTPR_CHECK(msg.hop < msg.sources.size());
  const auto existing = chain_tasks_.find(msg.task_id);
  if (existing != chain_tasks_.end() &&
      existing->second.attempt >= msg.attempt) {
    telemetry::MetricsRegistry::global().counter("agent.stale_cmds").add();
    return;
  }
  const auto done_it = chain_done_.find(msg.task_id);
  if (done_it != chain_done_.end()) {
    if (done_it->second >= msg.attempt) {
      telemetry::MetricsRegistry::global().counter("agent.stale_cmds").add();
      return;
    }
    chain_done_.erase(done_it);
  }

  const net::SourceSpec& own = msg.sources[msg.hop];
  const bool last = msg.hop + 1 == msg.sources.size();
  const NodeId next = last ? msg.dst : msg.sources[msg.hop + 1].node;

  if (msg.hop == 0) {
    // Head: nothing arrives here — a reader task seeds the chain. The
    // (otherwise unused) state only dedupes duplicate commands.
    ChainState state;
    state.attempt = msg.attempt;
    state.hop = 0;
    chain_tasks_[msg.task_id] = std::move(state);
    const uint64_t task_id = msg.task_id;
    const uint32_t attempt = msg.attempt;
    const ChunkRef chunk = msg.chunk;
    const ChunkRef own_chunk = own.chunk;
    const uint8_t coeff = own.coefficient;
    const uint64_t packet_bytes = msg.packet_bytes;
    const telemetry::TraceContext ctx = telemetry::current_trace_context();
    reader_pool_->post([this, task_id, attempt, chunk, own_chunk, next,
                        last, coeff, packet_bytes, ctx] {
      telemetry::ScopedTraceContext adopt(ctx, id_);
      chain_stream_head(task_id, attempt, chunk, own_chunk, next, last,
                        coeff, packet_bytes);
    });
    return;
  }

  ChainState state;
  state.attempt = msg.attempt;
  state.hop = msg.hop;
  state.next = next;
  state.last = last;
  state.chunk = msg.chunk;
  state.coefficient = own.coefficient;
  state.chunk_bytes = msg.chunk_bytes;
  state.packet_bytes = msg.packet_bytes;
  state.total_packets = static_cast<uint32_t>(
      (msg.chunk_bytes + msg.packet_bytes - 1) / msg.packet_bytes);
  // Read the whole helper chunk up front; per-packet disk time is
  // charged as each slice folds, pipelined with the forwards.
  auto content = store_.read_unthrottled(own.chunk);
  if (!content.has_value()) {
    report_failure(msg.task_id, msg.attempt,
                   "read error on chain hop " + std::to_string(id_) +
                       " for stripe " + std::to_string(own.chunk.stripe));
    return;
  }
  FASTPR_CHECK(content->size() == msg.chunk_bytes);
  state.own = std::move(*content);
  state.forwarded.assign(state.total_packets, false);
  state.window = std::make_shared<SendWindow>();
  chain_tasks_[msg.task_id] = std::move(state);

  // Drain any of our predecessor's packets that outran the command.
  const auto early = chain_early_.find(msg.task_id);
  if (early != chain_early_.end()) {
    std::vector<Message> buffered = std::move(early->second);
    chain_early_.erase(early);
    for (auto& m : buffered) {
      // Re-adopt each buffered packet's own context: its spans belong
      // to the predecessor's stream, not to this command.
      telemetry::ScopedTraceContext packet_ctx(m.trace, id_);
      handle_chain_packet(std::move(m));
    }
  }
}

void Agent::handle_chain_packet(Message&& msg) {
  static telemetry::Counter& rx_packets =
      telemetry::MetricsRegistry::global().counter("agent.chain_packets_rx");
  static telemetry::Counter& forwards =
      telemetry::MetricsRegistry::global().counter("agent.chain_forwards");
  static telemetry::Counter& stale_packets =
      telemetry::MetricsRegistry::global().counter("agent.stale_packets");
  static telemetry::Counter& dup_packets =
      telemetry::MetricsRegistry::global().counter("agent.dup_packets");
  rx_packets.add();

  const auto it = chain_tasks_.find(msg.task_id);
  if (it == chain_tasks_.end()) {
    const auto done_it = chain_done_.find(msg.task_id);
    if (done_it != chain_done_.end() && done_it->second >= msg.attempt) {
      // Straggling duplicate of a chain we already finished forwarding.
      dup_packets.add();
      return;
    }
    // Our kChainCmd may still be in flight (TCP orders frames per
    // connection, not across them): park the packet until it lands.
    auto& buffered = chain_early_[msg.task_id];
    if (buffered.size() >= kChainEarlyCap) {
      stale_packets.add();
      return;
    }
    buffered.push_back(std::move(msg));
    return;
  }

  ChainState& state = it->second;
  if (msg.attempt != state.attempt || state.hop == 0) {
    // Superseded attempt still draining (or a misrouted packet for a
    // head slot, which never consumes packets).
    stale_packets.add();
    return;
  }
  FASTPR_CHECK(msg.packet_index < state.total_packets);
  if (state.forwarded[msg.packet_index]) {
    dup_packets.add();
    return;
  }
  const uint64_t offset =
      static_cast<uint64_t>(msg.packet_index) * state.packet_bytes;
  const size_t len = msg.payload.size();
  FASTPR_CHECK(offset + len <= state.own.size());

#if FASTPR_TELEMETRY_ENABLED
  const auto hop_start = telemetry::trace_now();
#endif
  {
    FASTPR_TRACE_SPAN("agent.chain_forward", "agent",
                      static_cast<int64_t>(msg.task_id), "task");
    store_.charge_io(static_cast<int64_t>(len));  // own-chunk read share
    // Fold our scaled contribution into the running partial sum in
    // place on the pooled payload — no copy, no allocation on the hop
    // (single-source dot_region_xor = one fused multiply-XOR pass).
    const uint8_t* own_slice = state.own.data() + offset;
    gf::dot_region_xor(msg.payload.data(), &own_slice, &state.coefficient,
                       1, len);

    Message fwd;
    fwd.from = id_;
    fwd.to = state.next;
    fwd.task_id = msg.task_id;
    fwd.attempt = state.attempt;
    fwd.chunk = state.chunk;
    fwd.packet_index = msg.packet_index;
    fwd.total_packets = state.total_packets;
    fwd.chunk_bytes = state.chunk_bytes;
    fwd.packet_bytes = state.packet_bytes;
    fwd.trace = telemetry::current_trace_context();
    if (state.last) {
      // Completed partial sum: deliver as a plain store stream so the
      // destination's existing lazy migration path absorbs it.
      fwd.type = MessageType::kDataPacket;
      fwd.mode = TransferMode::kStore;
      fwd.coefficient = 1;
    } else {
      fwd.type = MessageType::kChainPacket;
      fwd.mode = TransferMode::kDecode;
      fwd.hop = state.hop + 1;
    }
    fwd.payload = std::move(msg.payload);
    state.forwarded[msg.packet_index] = true;
    ++state.forwarded_count;
    // Send-window pipelining: up to pipeline_depth of this chain's
    // forwards sit between the fold and the wire; the wait here is the
    // hop's backpressure (a slow successor paces us, and through us the
    // whole upstream chain).
    enqueue_send(std::move(fwd), state.window);
  }
  forwards.add();
#if FASTPR_TELEMETRY_ENABLED
  static telemetry::Histogram& forward_ns =
      telemetry::MetricsRegistry::global().histogram(
          "agent.chain_forward_ns");
  forward_ns.observe(std::chrono::duration_cast<std::chrono::nanoseconds>(
                         telemetry::trace_now() - hop_start)
                         .count());
#endif

  if (state.forwarded_count == state.total_packets) {
    chain_done_[msg.task_id] = state.attempt;
    chain_tasks_.erase(it);
  }
}

void Agent::chain_stream_head(uint64_t task_id, uint32_t attempt,
                              ChunkRef chunk, ChunkRef own, NodeId next,
                              bool last, uint8_t coefficient,
                              uint64_t packet_bytes) {
  FASTPR_CHECK(packet_bytes >= 1);
  FASTPR_TRACE_SPAN("agent.chain_stream_head", "agent",
                    static_cast<int64_t>(task_id), "task");
  const auto content = store_.read_unthrottled(own);
  if (!content.has_value()) {
    report_failure(task_id, attempt,
                   "read error on node " + std::to_string(id_) +
                       " for stripe " + std::to_string(own.stripe));
    return;
  }
  const uint64_t chunk_bytes = content->size();
  const uint32_t total_packets = static_cast<uint32_t>(
      (chunk_bytes + packet_bytes - 1) / packet_bytes);
  const auto window = std::make_shared<SendWindow>();

  for (uint32_t p = 0; p < total_packets; ++p) {
    const uint64_t offset = static_cast<uint64_t>(p) * packet_bytes;
    const uint64_t len = std::min(packet_bytes, chunk_bytes - offset);
    store_.charge_io(static_cast<int64_t>(len));  // disk read time

    Message packet;
    if (last) {
      // Single-hop chain: the seed IS the repaired chunk — ship it as
      // a plain store stream (no forwarding, no hop overhead).
      packet.type = MessageType::kDataPacket;
      packet.mode = TransferMode::kStore;
      packet.coefficient = 1;
    } else {
      packet.type = MessageType::kChainPacket;
      packet.mode = TransferMode::kDecode;
      packet.hop = 1;
    }
    packet.from = id_;
    packet.to = next;
    packet.task_id = task_id;
    packet.attempt = attempt;
    packet.chunk = chunk;
    packet.packet_index = p;
    packet.total_packets = total_packets;
    packet.chunk_bytes = chunk_bytes;
    packet.packet_bytes = packet_bytes;
    packet.trace = telemetry::current_trace_context();
    packet.payload.assign(content->data() + offset, len);
    // Seed partial sum: scale by our own decode coefficient in place.
    gf::mul_region(packet.payload.data(), packet.payload.data(),
                   coefficient, len);

    enqueue_send(std::move(packet), window);
  }
  telemetry::MetricsRegistry::global()
      .counter("agent.chain_packets_tx")
      .add(total_packets);
}

}  // namespace fastpr::agent
