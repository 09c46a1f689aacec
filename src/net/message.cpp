#include "net/message.h"

#include <cstring>

namespace fastpr::net {

namespace {

/// Little-endian serializer cursor over a pre-sized buffer (callers size
/// it with header_size(), so no bounds tracking is needed here).
struct Writer {
  uint8_t* p;

  template <typename T>
  void put(T value) {
    std::memcpy(p, &value, sizeof(T));
    p += sizeof(T);
  }

  void put_bytes(const void* src, size_t len) {
    if (len != 0) std::memcpy(p, src, len);
    p += len;
  }
};

/// Cursor-based reader; all reads bounds-checked.
class Reader {
 public:
  explicit Reader(std::span<const uint8_t> bytes) : bytes_(bytes) {}

  template <typename T>
  bool read(T& value) {
    if (pos_ + sizeof(T) > bytes_.size()) return false;
    std::memcpy(&value, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }

  bool read_string(std::string& out, size_t len) {
    if (pos_ + len > bytes_.size()) return false;
    out.assign(reinterpret_cast<const char*>(bytes_.data() + pos_), len);
    pos_ += len;
    return true;
  }

  bool exhausted() const { return pos_ == bytes_.size(); }

 private:
  std::span<const uint8_t> bytes_;
  size_t pos_ = 0;
};

/// Per-enumerator wire validation. Deliberately a default-less switch:
/// -Wswitch (and the msgtype-exhaustive rule of tools/fastpr_analyze)
/// forces the deserializer to learn about every new MessageType instead
/// of silently accepting or rejecting it via a magic numeric range.
bool valid_message_type(uint8_t raw) {
  switch (static_cast<MessageType>(raw)) {
    case MessageType::kReconstructCmd:
    case MessageType::kMigrateCmd:
    case MessageType::kFetchRequest:
    case MessageType::kDataPacket:
    case MessageType::kTaskDone:
    case MessageType::kTaskFailed:
    case MessageType::kShutdown:
    case MessageType::kPing:
    case MessageType::kPong:
    case MessageType::kCancelTask:
    case MessageType::kChainCmd:
    case MessageType::kChainPacket:
    case MessageType::kLeaseGrant:
    case MessageType::kPressureReport:
      return true;
  }
  return false;
}

constexpr size_t kSourceBytes = 4 + 4 + 4 + 1;  // node, stripe, index, coeff

size_t header_size(const Message& msg) {
  return kFixedHeaderBytes + msg.sources.size() * kSourceBytes +
         msg.error.size();
}

}  // namespace

std::vector<uint8_t> serialize_header(const Message& msg) {
  std::vector<uint8_t> out(header_size(msg));
  Writer w{out.data()};
  w.put<uint8_t>(static_cast<uint8_t>(msg.type));
  w.put<int32_t>(msg.from);
  w.put<int32_t>(msg.to);
  w.put<uint64_t>(msg.task_id);
  w.put<uint32_t>(msg.attempt);
  w.put<uint64_t>(msg.trace.trace_id);
  w.put<uint64_t>(msg.trace.parent_span_id);
  w.put<int32_t>(msg.trace.origin_node);
  w.put<int64_t>(msg.trace.origin_ts_us);
  w.put<int32_t>(msg.chunk.stripe);
  w.put<int32_t>(msg.chunk.index);
  w.put<int32_t>(msg.dst);
  w.put<uint8_t>(static_cast<uint8_t>(msg.mode));
  w.put<uint8_t>(msg.coefficient);
  w.put<uint32_t>(msg.packet_index);
  w.put<uint32_t>(msg.total_packets);
  w.put<uint32_t>(msg.hop);
  w.put<uint64_t>(msg.chunk_bytes);
  w.put<uint64_t>(msg.packet_bytes);
  w.put<uint32_t>(static_cast<uint32_t>(msg.sources.size()));
  w.put<uint32_t>(static_cast<uint32_t>(msg.error.size()));
  w.put<uint32_t>(static_cast<uint32_t>(msg.payload.size()));
  for (const auto& s : msg.sources) {
    w.put<int32_t>(s.node);
    w.put<int32_t>(s.chunk.stripe);
    w.put<int32_t>(s.chunk.index);
    w.put<uint8_t>(s.coefficient);
  }
  w.put_bytes(msg.error.data(), msg.error.size());
  return out;
}

size_t Message::encoded_size() const {
  return header_size(*this) + payload.size();
}

Message Message::clone() const {
  Message copy;
  copy.type = type;
  copy.from = from;
  copy.to = to;
  copy.task_id = task_id;
  copy.attempt = attempt;
  copy.trace = trace;
  copy.chunk = chunk;
  copy.dst = dst;
  copy.mode = mode;
  copy.coefficient = coefficient;
  copy.packet_index = packet_index;
  copy.total_packets = total_packets;
  copy.hop = hop;
  copy.chunk_bytes = chunk_bytes;
  copy.packet_bytes = packet_bytes;
  copy.sources = sources;
  copy.error = error;
  copy.payload = payload.clone();
  return copy;
}

std::vector<uint8_t> serialize(const Message& msg) {
  std::vector<uint8_t> out = serialize_header(msg);
  out.insert(out.end(), msg.payload.begin(), msg.payload.end());
  return out;
}

std::optional<FrameLayout> frame_layout(std::span<const uint8_t> fixed,
                                        size_t frame_len) {
  if (fixed.size() < kFixedHeaderBytes) return std::nullopt;
  // The three section lengths close the fixed header.
  uint32_t num_sources = 0, error_len = 0, payload_len = 0;
  const uint8_t* lengths = fixed.data() + kFixedHeaderBytes - 12;
  std::memcpy(&num_sources, lengths, 4);
  std::memcpy(&error_len, lengths + 4, 4);
  std::memcpy(&payload_len, lengths + 8, 4);
  // 64-bit sum: corrupted counts must neither wrap nor trigger huge
  // resizes; they simply fail to match the frame length.
  const uint64_t header = kFixedHeaderBytes +
                          static_cast<uint64_t>(num_sources) * kSourceBytes +
                          error_len;
  if (header + payload_len != frame_len) return std::nullopt;
  return FrameLayout{static_cast<size_t>(header), payload_len};
}

std::optional<Message> parse_header(std::span<const uint8_t> header,
                                    size_t frame_len) {
  const auto layout = frame_layout(header, frame_len);
  if (!layout.has_value() || layout->header_bytes != header.size()) {
    return std::nullopt;
  }
  Reader reader(header);
  Message msg;
  uint8_t type = 0, mode = 0;
  uint32_t num_sources = 0, error_len = 0, payload_len = 0;
  if (!reader.read(type) || !reader.read(msg.from) || !reader.read(msg.to) ||
      !reader.read(msg.task_id) || !reader.read(msg.attempt) ||
      !reader.read(msg.trace.trace_id) ||
      !reader.read(msg.trace.parent_span_id) ||
      !reader.read(msg.trace.origin_node) ||
      !reader.read(msg.trace.origin_ts_us) ||
      !reader.read(msg.chunk.stripe) ||
      !reader.read(msg.chunk.index) || !reader.read(msg.dst) ||
      !reader.read(mode) || !reader.read(msg.coefficient) ||
      !reader.read(msg.packet_index) || !reader.read(msg.total_packets) ||
      !reader.read(msg.hop) ||
      !reader.read(msg.chunk_bytes) || !reader.read(msg.packet_bytes) ||
      !reader.read(num_sources) || !reader.read(error_len) ||
      !reader.read(payload_len)) {
    return std::nullopt;
  }
  if (!valid_message_type(type)) return std::nullopt;
  msg.type = static_cast<MessageType>(type);
  if (mode > 1) return std::nullopt;
  msg.mode = static_cast<TransferMode>(mode);

  msg.sources.resize(num_sources);
  for (auto& s : msg.sources) {
    if (!reader.read(s.node) || !reader.read(s.chunk.stripe) ||
        !reader.read(s.chunk.index) || !reader.read(s.coefficient)) {
      return std::nullopt;
    }
  }
  if (!reader.read_string(msg.error, error_len)) return std::nullopt;
  if (!reader.exhausted()) return std::nullopt;
  return msg;
}

std::optional<Message> deserialize(std::span<const uint8_t> bytes) {
  const auto layout = frame_layout(bytes, bytes.size());
  if (!layout.has_value()) return std::nullopt;
  auto msg = parse_header(bytes.first(layout->header_bytes), bytes.size());
  if (!msg.has_value()) return std::nullopt;
  msg->payload.assign(bytes.data() + layout->header_bytes,
                      layout->payload_bytes);
  return msg;
}

}  // namespace fastpr::net
