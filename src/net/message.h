// Wire messages of the FastPR prototype (coordinator ⇄ agents).
//
// A fixed header plus an opaque payload. Messages carry everything an
// agent needs to act without consulting global state, mirroring the
// paper's coordinator/agent command protocol (§V). The binary encoding
// is used verbatim by the TCP transport; the in-process transport moves
// Message objects but accounts for encoded_size() against the shaped
// bandwidth, so both transports price traffic identically.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cluster/types.h"
#include "telemetry/trace.h"
#include "util/buffer_pool.h"

namespace fastpr::net {

enum class MessageType : uint8_t {
  kReconstructCmd = 1,  // coordinator → destination agent
  kMigrateCmd = 2,      // coordinator → STF agent
  kFetchRequest = 3,    // destination agent → helper agent
  kDataPacket = 4,      // helper/STF agent → destination agent
  kTaskDone = 5,        // destination agent → coordinator
  kTaskFailed = 6,      // any agent → coordinator
  kShutdown = 7,        // coordinator → agent
  kPing = 8,            // coordinator → agent (liveness probe)
  kPong = 9,            // agent → coordinator (probe reply)
  kCancelTask = 10,     // coordinator → agent (drop a stale attempt)
  kChainCmd = 11,       // coordinator → chain hop (join a partial-sum chain)
  kChainPacket = 12,    // chain hop → next hop (running partial sum)
  /// Repair-bandwidth lease (coordinator → agent, DESIGN.md §10).
  /// Field reuse, no new wire fields: task_id = lease sequence number
  /// (globally monotonic; agents apply only seq-increasing grants, so a
  /// re-sent or reordered grant can never double-apply), chunk_bytes =
  /// granted repair rate in bytes/s, packet_bytes = lease TTL in µs.
  kLeaseGrant = 13,
  /// Foreground-pressure report (agent → coordinator): task_id = highest
  /// lease seq applied, chunk_bytes = observed foreground p99 latency in
  /// ns, packet_bytes = observed foreground throughput in bytes/s.
  /// Sent in reply to every kLeaseGrant; kPong piggybacks the same two
  /// fields so probe round-trips refresh the throttler too.
  kPressureReport = 14,
};

/// Payload-bearing repair traffic: what the transports shape against the
/// network budget and count as repair bytes. Everything else is control.
constexpr bool is_data_packet(MessageType t) {
  return t == MessageType::kDataPacket || t == MessageType::kChainPacket;
}

/// How a destination handles incoming data packets of a task.
enum class TransferMode : uint8_t {
  kStore = 0,   // migration: write payload verbatim
  kDecode = 1,  // reconstruction: multiply by coeff and XOR-accumulate
};

/// Upper bound on concurrent helper streams feeding one reconstruction
/// (paper configs top out at k = 12 for RS(12,4); headroom beyond that).
constexpr size_t kMaxRepairStreams = 32;

/// One helper source of a reconstruction task.
struct SourceSpec {
  cluster::NodeId node = cluster::kNoNode;
  cluster::ChunkRef chunk;   // helper chunk on that node
  uint8_t coefficient = 0;   // GF(256) decode coefficient
};

struct Message {
  MessageType type = MessageType::kShutdown;
  cluster::NodeId from = cluster::kNoNode;
  cluster::NodeId to = cluster::kNoNode;

  uint64_t task_id = 0;
  /// Retry attempt of task_id this message belongs to (1-based for task
  /// traffic, 0 for attempt-less messages). A task_id is stable across
  /// retries while the attempt increments, so agents can dedupe
  /// duplicate commands and drop packets of superseded attempts.
  uint32_t attempt = 0;
  /// Causal trace context (28 wire bytes): the sender's open span, so
  /// handlers on the receiving node parent their spans under it
  /// (telemetry::ScopedTraceContext). origin_ts_us doubles as the
  /// clock-sync sample on kPing/kPong probes. All-zero when tracing is
  /// off or compiled out — the wire layout never changes.
  telemetry::TraceContext trace;
  cluster::ChunkRef chunk;       // the chunk being repaired / fetched
  cluster::NodeId dst = cluster::kNoNode;  // final destination (commands)
  TransferMode mode = TransferMode::kStore;
  uint8_t coefficient = 0;       // decode coefficient (packets)
  uint32_t packet_index = 0;
  uint32_t total_packets = 0;
  /// Chain position (0-based). kChainCmd: the receiver's slot in the
  /// hop order carried by `sources`; kChainPacket: the slot of the hop
  /// the packet is addressed to. 0 elsewhere.
  uint32_t hop = 0;
  uint64_t chunk_bytes = 0;
  uint64_t packet_bytes = 0;
  /// kReconstructCmd: the fan-in helper set. kChainCmd: the FULL chain
  /// in hop order (every hop receives the same vector and indexes it
  /// with `hop` for its own chunk/coefficient and successor).
  std::vector<SourceSpec> sources;
  std::string error;                 // kTaskFailed only
  /// kDataPacket only. Pool-recycled: steady-state packet traffic reuses
  /// retired payload buffers instead of allocating per packet. Makes
  /// Message move-only; use clone() where a test needs a copy.
  PooledBuffer payload;

  /// Size of the serialized form; the unit charged against bandwidth.
  size_t encoded_size() const;

  /// Deep copy (payload cloned through the pool).
  Message clone() const;
};

/// Bytes of a frame's fixed header. The variable sections follow it in
/// the order its last three fields count them: 13 bytes per source, the
/// error string, then the payload.
constexpr size_t kFixedHeaderBytes =
    1 +                 // type
    4 + 4 +             // from, to
    8 +                 // task_id
    4 +                 // attempt
    8 + 8 + 4 + 8 +     // trace: trace_id, parent_span_id, origin_node,
                        //        origin_ts_us
    4 + 4 +             // chunk.stripe, chunk.index
    4 +                 // dst
    1 + 1 +             // mode, coefficient
    4 + 4 +             // packet_index, total_packets
    4 +                 // hop
    8 + 8 +             // chunk_bytes, packet_bytes
    4 + 4 + 4;          // sources count, error length, payload length

/// Binary encoding (little-endian), without the transport's length
/// prefix: the header (fixed part, sources, error) then the payload.
std::vector<uint8_t> serialize(const Message& msg);

/// The header part of serialize(msg) alone — every byte before the
/// payload, so serialize_header(msg) followed by msg.payload equals
/// serialize(msg). The TCP send path writes it and the payload with
/// one gather write instead of copying the payload into a frame.
std::vector<uint8_t> serialize_header(const Message& msg);

/// Section lengths a frame declares in its fixed header.
struct FrameLayout {
  size_t header_bytes = 0;   // fixed header + sources + error
  size_t payload_bytes = 0;
};

/// Reads the section lengths from the first kFixedHeaderBytes of
/// `fixed` and checks that they add up to `frame_len` (the whole frame,
/// without the length prefix). nullopt if `fixed` is too short or the
/// lengths do not add up — checked before anything is allocated.
std::optional<FrameLayout> frame_layout(std::span<const uint8_t> fixed,
                                        size_t frame_len);

/// Parses a frame's header: `header` holds exactly its header bytes
/// (frame_layout().header_bytes of them) and `frame_len` is the whole
/// frame's length. Returns the message with an empty payload, or
/// nullopt on malformed input (bad type or mode, lengths that do not
/// add up to frame_len). The caller fills the payload.
std::optional<Message> parse_header(std::span<const uint8_t> header,
                                    size_t frame_len);

/// Parses one message from `bytes` (the full frame, without the length
/// prefix): parse_header() plus a copy of the payload into a
/// pool-recycled buffer. Returns nullopt on malformed input.
std::optional<Message> deserialize(std::span<const uint8_t> bytes);

}  // namespace fastpr::net
