// Transports: delivery, ordering, shutdown semantics, bandwidth shaping
// timing, and TCP-over-loopback equivalence.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <thread>

#include "net/inproc_transport.h"
#include "net/tcp_transport.h"
#include "util/units.h"

namespace fastpr::net {
namespace {

Message data_packet(int from, int to, size_t payload_bytes) {
  Message m;
  m.type = MessageType::kDataPacket;
  m.from = from;
  m.to = to;
  m.payload.assign(payload_bytes, 0x5A);
  return m;
}

Message control(int from, int to, MessageType type = MessageType::kTaskDone) {
  Message m;
  m.type = type;
  m.from = from;
  m.to = to;
  m.task_id = 7;
  return m;
}

template <typename T>
std::unique_ptr<Transport> make_transport(int nodes, double rate) {
  typename T::Options opts;
  opts.net_bytes_per_sec = rate;
  return std::make_unique<T>(nodes, opts);
}

class TransportTest : public ::testing::TestWithParam<const char*> {
 protected:
  std::unique_ptr<Transport> create(int nodes, double rate = 0) {
    if (std::string(GetParam()) == "tcp") {
      return make_transport<TcpTransport>(nodes, rate);
    }
    return make_transport<InprocTransport>(nodes, rate);
  }
};

TEST_P(TransportTest, DeliversToAddressee) {
  auto t = create(3);
  t->send(control(0, 2));
  const auto msg = t->recv(2, std::chrono::milliseconds(2000));
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->from, 0);
  EXPECT_EQ(msg->task_id, 7u);
  // Nothing for node 1.
  EXPECT_FALSE(t->recv(1, std::chrono::milliseconds(50)).has_value());
  t->shutdown();
}

TEST_P(TransportTest, PreservesPairwiseOrder) {
  auto t = create(2);
  for (uint64_t i = 0; i < 50; ++i) {
    auto m = control(0, 1);
    m.task_id = i;
    t->send(std::move(m));
  }
  for (uint64_t i = 0; i < 50; ++i) {
    const auto msg = t->recv(1, std::chrono::milliseconds(2000));
    ASSERT_TRUE(msg.has_value());
    EXPECT_EQ(msg->task_id, i);
  }
  t->shutdown();
}

TEST_P(TransportTest, PayloadIntegrity) {
  auto t = create(2);
  auto m = data_packet(0, 1, 100000);
  for (size_t i = 0; i < m.payload.size(); ++i) {
    m.payload[i] = static_cast<uint8_t>(i * 31);
  }
  const auto expected = m.payload.clone();
  t->send(std::move(m));
  const auto got = t->recv(1, std::chrono::milliseconds(2000));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->payload, expected);
  t->shutdown();
}

TEST_P(TransportTest, ShutdownUnblocksReceivers) {
  auto t = create(2);
  std::thread receiver([&] {
    const auto msg = t->recv(1, std::nullopt);
    EXPECT_FALSE(msg.has_value());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  t->shutdown();
  receiver.join();
}

TEST_P(TransportTest, ShapingSlowsDataPackets) {
  // 2 MB/s rate, ~2 MB transfer beyond burst: expect >= ~0.5 s.
  auto t = create(2, 2e6);
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 3; ++i) {
    t->send(data_packet(0, 1, 1'000'000));
  }
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(t->recv(1, std::chrono::milliseconds(10000)).has_value());
  }
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_GT(secs, 0.3);
  t->shutdown();
}

TEST_P(TransportTest, ControlMessagesRideFree) {
  auto t = create(2, 1000.0);  // 1 KB/s: data would crawl
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 20; ++i) t->send(control(0, 1));
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(t->recv(1, std::chrono::milliseconds(2000)).has_value());
  }
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_LT(secs, 1.0);
  t->shutdown();
}

INSTANTIATE_TEST_SUITE_P(Kinds, TransportTest,
                         ::testing::Values("inproc", "tcp"));

TEST(InprocTransport, TracksBytesSent) {
  InprocTransport::Options opts;
  InprocTransport t(2, opts);
  auto msg = control(0, 1);
  const auto size = msg.encoded_size();
  t.send(std::move(msg));
  EXPECT_EQ(t.total_bytes_sent(), static_cast<int64_t>(size));
  t.shutdown();
}

TEST(InprocTransport, PerNodeBandwidthOverride) {
  InprocTransport::Options opts;
  opts.net_bytes_per_sec = 0;  // unlimited default
  InprocTransport t(3, opts);
  t.set_node_bandwidth(1, MBps(1));  // throttle node 1 only
  // Node 0 → 2 stays fast.
  const auto start = std::chrono::steady_clock::now();
  t.send(data_packet(0, 2, 4'000'000));
  ASSERT_TRUE(t.recv(2, std::chrono::milliseconds(3000)).has_value());
  EXPECT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count(),
            0.5);
  t.shutdown();
}

TEST(TcpTransport, ManyNodesBootAndStop) {
  TcpTransport::Options opts;
  TcpTransport t(25, opts);
  t.send(control(24, 0));
  ASSERT_TRUE(t.recv(0, std::chrono::milliseconds(2000)).has_value());
  t.shutdown();
}

TEST(TcpTransport, VariableSectionsRoundTrip) {
  // The wire carries a gather-written header + payload and the reader
  // parses the header before reading the payload into its buffer: every
  // field must survive, including a 4 MiB + 3 byte payload that takes
  // several partial writev()/read() calls.
  std::vector<Message> sent;
  for (size_t payload : {size_t{0}, size_t{1}, size_t{256 * kKiB + 7},
                         size_t{4 * kMiB + 3}}) {
    for (bool with_sources : {false, true}) {
      Message m = control(0, 1, MessageType::kChainCmd);
      m.trace.trace_id = 0x1122334455667788ULL;
      m.chunk = {42, 7};
      m.hop = 2;
      if (with_sources) {
        m.sources = {{1, {42, 0}, 10}, {2, {42, 1}, 20}, {4, {42, 3}, 0}};
        m.error = "read error on node 4";
      }
      m.payload.assign(payload, 0);
      for (size_t i = 0; i < payload; ++i) {
        m.payload[i] = static_cast<uint8_t>(i * 131 + 7);
      }
      sent.push_back(std::move(m));
    }
  }
  TcpTransport::Options opts;
  TcpTransport t(2, opts);
  for (const Message& m : sent) t.send(m.clone());
  for (const Message& m : sent) {
    const auto got = t.recv(1, std::chrono::milliseconds(5000));
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(serialize(*got), serialize(m))
        << "payload " << m.payload.size() << ", sources "
        << m.sources.size();
  }
  t.shutdown();
}

TEST(TcpTransport, MalformedFramesDropWithoutDesync) {
  // Frames whose header fails its checks are read to their end and
  // dropped; the next well-formed frame on the same connection arrives
  // intact.
  TcpTransport::Options opts;
  TcpTransport t(2, opts);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(t.port(1));
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const auto write_frame = [&](const std::vector<uint8_t>& body) {
    const auto len = static_cast<uint32_t>(body.size());
    ASSERT_EQ(::write(fd, &len, sizeof(len)), ssize_t{sizeof(len)});
    ASSERT_EQ(::write(fd, body.data(), body.size()),
              static_cast<ssize_t>(body.size()));
  };

  Message good = data_packet(0, 1, 3000);
  good.task_id = 77;
  for (size_t i = 0; i < good.payload.size(); ++i) {
    good.payload[i] = static_cast<uint8_t>(i * 7);
  }
  auto bad_type = serialize(good);
  bad_type[0] = 99;
  write_frame(bad_type);
  auto short_payload = serialize(good);  // declares 3000, carries 2999
  short_payload.pop_back();
  write_frame(short_payload);
  write_frame(std::vector<uint8_t>(10, 0xAB));  // shorter than a header
  write_frame(serialize(good));

  const auto got = t.recv(1, std::chrono::milliseconds(2000));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(serialize(*got), serialize(good));
  EXPECT_FALSE(t.recv(1, std::chrono::milliseconds(50)).has_value());
  ::close(fd);
  t.shutdown();
}

}  // namespace
}  // namespace fastpr::net
