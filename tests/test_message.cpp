// Wire format: serialize/deserialize round-trips, size accounting,
// malformed-input rejection (fuzz-ish).
#include "net/message.h"

#include <gtest/gtest.h>

#include <random>

#include "util/units.h"

namespace fastpr::net {
namespace {

Message sample_message() {
  Message m;
  m.type = MessageType::kReconstructCmd;
  m.from = 3;
  m.to = 9;
  m.task_id = 0xDEADBEEFCAFEULL;
  m.attempt = 3;
  m.trace.trace_id = 0x1122334455667788ULL;
  m.trace.parent_span_id = 0x99AABBCCDDEEFF00ULL;
  m.trace.origin_node = 3;
  m.trace.origin_ts_us = 123456789;
  m.chunk = {42, 7};
  m.dst = 9;
  m.mode = TransferMode::kDecode;
  m.coefficient = 0x1D;
  m.packet_index = 5;
  m.total_packets = 16;
  m.hop = 2;
  m.chunk_bytes = 1 * kMiB;
  m.packet_bytes = 64 * kKiB;
  m.sources = {{1, {42, 0}, 10}, {2, {42, 1}, 20}, {4, {42, 3}, 0}};
  m.error = "nothing";
  m.payload = {0x00, 0xFF, 0x10, 0x20};
  return m;
}

bool equal(const Message& a, const Message& b) {
  if (a.type != b.type || a.from != b.from || a.to != b.to ||
      a.task_id != b.task_id || a.attempt != b.attempt ||
      a.trace.trace_id != b.trace.trace_id ||
      a.trace.parent_span_id != b.trace.parent_span_id ||
      a.trace.origin_node != b.trace.origin_node ||
      a.trace.origin_ts_us != b.trace.origin_ts_us ||
      !(a.chunk == b.chunk) || a.dst != b.dst ||
      a.mode != b.mode || a.coefficient != b.coefficient ||
      a.packet_index != b.packet_index ||
      a.total_packets != b.total_packets || a.hop != b.hop ||
      a.chunk_bytes != b.chunk_bytes || a.packet_bytes != b.packet_bytes ||
      a.error != b.error || a.payload != b.payload ||
      a.sources.size() != b.sources.size()) {
    return false;
  }
  for (size_t i = 0; i < a.sources.size(); ++i) {
    if (a.sources[i].node != b.sources[i].node ||
        !(a.sources[i].chunk == b.sources[i].chunk) ||
        a.sources[i].coefficient != b.sources[i].coefficient) {
      return false;
    }
  }
  return true;
}

TEST(Message, RoundTrip) {
  const Message m = sample_message();
  const auto bytes = serialize(m);
  EXPECT_EQ(bytes.size(), m.encoded_size());
  const auto parsed = deserialize(bytes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(equal(m, *parsed));
}

TEST(Message, RoundTripAllTypes) {
  for (int t = 1; t <= 12; ++t) {
    Message m = sample_message();
    m.type = static_cast<MessageType>(t);
    const auto parsed = deserialize(serialize(m));
    ASSERT_TRUE(parsed.has_value()) << "type " << t;
    EXPECT_TRUE(equal(m, *parsed));
  }
}

TEST(Message, DataPacketPredicate) {
  // The payload-bearing streaming types — and only those — are shaped
  // and pooled as data packets.
  for (int t = 1; t <= 12; ++t) {
    const auto type = static_cast<MessageType>(t);
    const bool expected = type == MessageType::kDataPacket ||
                          type == MessageType::kChainPacket;
    EXPECT_EQ(is_data_packet(type), expected) << "type " << t;
  }
}

TEST(Message, EmptyFieldsRoundTrip) {
  Message m;
  m.type = MessageType::kTaskDone;
  m.from = 0;
  m.to = 1;
  const auto parsed = deserialize(serialize(m));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(equal(m, *parsed));
}

TEST(Message, LargePayloadRoundTrip) {
  Message m = sample_message();
  m.payload.assign(1 << 20, 0xAB);
  const auto parsed = deserialize(serialize(m));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->payload.size(), m.payload.size());
  EXPECT_EQ(parsed->payload, m.payload);
}

TEST(Message, TruncatedInputRejected) {
  const auto bytes = serialize(sample_message());
  for (size_t len : {size_t{0}, size_t{1}, bytes.size() / 2,
                     bytes.size() - 1}) {
    std::vector<uint8_t> cut(bytes.begin(),
                             bytes.begin() + static_cast<ptrdiff_t>(len));
    EXPECT_FALSE(deserialize(cut).has_value()) << "len=" << len;
  }
}

TEST(Message, TrailingGarbageRejected) {
  auto bytes = serialize(sample_message());
  bytes.push_back(0x00);
  EXPECT_FALSE(deserialize(bytes).has_value());
}

TEST(Message, BadTypeOrModeRejected) {
  auto bytes = serialize(sample_message());
  bytes[0] = 0;  // type below range
  EXPECT_FALSE(deserialize(bytes).has_value());
  bytes = serialize(sample_message());
  bytes[0] = 99;  // type above range
  EXPECT_FALSE(deserialize(bytes).has_value());
}

TEST(Message, RandomMutationNeverCrashes) {
  // Property: arbitrary bit flips either parse to something or are
  // rejected — no exceptions, no UB (run under the normal test harness;
  // sanitizer jobs would catch memory errors).
  std::mt19937 rng(99);
  const auto pristine = serialize(sample_message());
  for (int trial = 0; trial < 2000; ++trial) {
    auto bytes = pristine;
    const int flips = 1 + static_cast<int>(rng() % 8);
    for (int f = 0; f < flips; ++f) {
      bytes[rng() % bytes.size()] ^=
          static_cast<uint8_t>(1u << (rng() % 8));
    }
    (void)deserialize(bytes);  // must not crash
  }
  // Random length truncation/extension too.
  for (int trial = 0; trial < 500; ++trial) {
    auto bytes = pristine;
    bytes.resize(rng() % (pristine.size() * 2));
    (void)deserialize(bytes);
  }
}

TEST(Message, EncodedSizeTracksFields) {
  Message m;
  m.type = MessageType::kTaskDone;
  const size_t base = m.encoded_size();
  m.payload.assign(100, 1);
  EXPECT_EQ(m.encoded_size(), base + 100);
  m.error = "xyz";
  EXPECT_EQ(m.encoded_size(), base + 103);
  m.sources.push_back({});
  EXPECT_EQ(m.encoded_size(), base + 103 + 13);
}

/// Messages that exercise every variable section: 0 and 3 sources, an
/// empty and a non-empty error, and payloads of 0, 1 and 256 KiB + 7
/// bytes.
std::vector<Message> variable_section_messages() {
  std::vector<Message> out;
  for (size_t payload : {size_t{0}, size_t{1}, size_t{256 * kKiB + 7}}) {
    for (bool with_sources : {false, true}) {
      Message m = sample_message();
      if (!with_sources) m.sources.clear();
      m.error = with_sources ? "read error on node 4" : "";
      m.payload.assign(payload, 0);
      for (size_t i = 0; i < payload; ++i) {
        m.payload[i] = static_cast<uint8_t>(i * 131 + 7);
      }
      out.push_back(std::move(m));
    }
  }
  return out;
}

TEST(Message, HeaderThenPayloadEqualsSerialize) {
  // The TCP send path writes serialize_header() and the payload with one
  // gather write; those bytes must be exactly serialize()'s.
  for (const Message& m : variable_section_messages()) {
    auto joined = serialize_header(m);
    EXPECT_EQ(joined.size(), m.encoded_size() - m.payload.size());
    joined.insert(joined.end(), m.payload.begin(), m.payload.end());
    EXPECT_EQ(joined, serialize(m)) << "payload " << m.payload.size()
                                    << ", sources " << m.sources.size();
  }
}

TEST(Message, HeaderParserSplitsFrame) {
  for (const Message& m : variable_section_messages()) {
    const auto bytes = serialize(m);
    const auto layout = frame_layout(bytes, bytes.size());
    ASSERT_TRUE(layout.has_value());
    EXPECT_EQ(layout->payload_bytes, m.payload.size());
    EXPECT_EQ(layout->header_bytes, bytes.size() - m.payload.size());
    auto parsed = parse_header(
        std::span<const uint8_t>(bytes).first(layout->header_bytes),
        bytes.size());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_TRUE(parsed->payload.empty());
    parsed->payload.assign(bytes.data() + layout->header_bytes,
                           layout->payload_bytes);
    EXPECT_TRUE(equal(m, *parsed));
  }
}

TEST(Message, HeaderParserRejectsPayloadLengthMismatch) {
  Message m = sample_message();
  m.payload.assign(100, 0x11);
  const auto header = serialize_header(m);
  const size_t frame_len = header.size() + m.payload.size();
  ASSERT_TRUE(parse_header(header, frame_len).has_value());
  // The declared payload length must account for exactly the frame's
  // bytes after the header.
  for (size_t wrong : {frame_len - 1, frame_len + 1, header.size()}) {
    EXPECT_FALSE(frame_layout(header, wrong).has_value()) << wrong;
    EXPECT_FALSE(parse_header(header, wrong).has_value()) << wrong;
  }
  // A header shorter or longer than the one it declares is rejected too.
  const std::span<const uint8_t> whole(header);
  EXPECT_FALSE(parse_header(whole.first(header.size() - 1), frame_len));
  auto longer = header;
  longer.push_back(0);
  EXPECT_FALSE(parse_header(longer, frame_len + 1).has_value());
  // Too short to hold the fixed header at all.
  EXPECT_FALSE(frame_layout(whole.first(kFixedHeaderBytes - 1), frame_len));
}

}  // namespace
}  // namespace fastpr::net
