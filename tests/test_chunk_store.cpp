// ChunkStore: materialization, oracle fallback, throttling, failure
// injection, file-backed mode.
#include "agent/chunk_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>

#include "agent/testbed.h"
#include "ec/rs_code.h"
#include "util/check.h"
#include "util/units.h"

namespace fastpr::agent {
namespace {

using cluster::ChunkRef;

ChunkStore::Options unthrottled() {
  ChunkStore::Options opts;
  opts.disk_bytes_per_sec = 0;
  return opts;
}

TEST(ChunkStore, WriteReadRoundTrip) {
  ChunkStore store(unthrottled());
  const ChunkRef ref{1, 2};
  std::vector<uint8_t> data = {1, 2, 3, 4};
  store.write(ref, data);
  EXPECT_TRUE(store.contains(ref));
  EXPECT_TRUE(store.has_materialized(ref));
  const auto got = store.read(ref);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, data);
}

TEST(ChunkStore, MissingChunkReturnsNullopt) {
  ChunkStore store(unthrottled());
  EXPECT_FALSE(store.read({0, 0}).has_value());
  EXPECT_FALSE(store.contains({0, 0}));
}

TEST(ChunkStore, EraseRemoves) {
  ChunkStore store(unthrottled());
  store.write({1, 1}, {9});
  store.erase({1, 1});
  EXPECT_FALSE(store.read({1, 1}).has_value());
  EXPECT_EQ(store.materialized_count(), 0u);
}

TEST(ChunkStore, ReadErrorInjection) {
  ChunkStore store(unthrottled());
  store.write({2, 0}, {1, 2, 3});
  store.inject_read_error({2, 0});
  EXPECT_FALSE(store.read({2, 0}).has_value());
  EXPECT_FALSE(store.read_unthrottled({2, 0}).has_value());
  store.clear_read_errors();
  EXPECT_TRUE(store.read({2, 0}).has_value());
}

TEST(ChunkStore, OracleServesUnwrittenChunks) {
  const ec::RsCode code(5, 3);
  const SyntheticOracle oracle(code, 4096, /*num_stripes=*/10, /*seed=*/3);
  ChunkStore store(unthrottled(), &oracle);
  const auto data = store.read({0, 0});
  ASSERT_TRUE(data.has_value());
  EXPECT_EQ(data->size(), 4096u);
  EXPECT_TRUE(store.contains({0, 0}));
  EXPECT_FALSE(store.has_materialized({0, 0}));
  // Out-of-range chunks stay absent.
  EXPECT_FALSE(store.read({99, 0}).has_value());
  EXPECT_FALSE(store.read({0, 7}).has_value());
}

TEST(ChunkStore, MaterializedOverridesOracle) {
  const ec::RsCode code(5, 3);
  const SyntheticOracle oracle(code, 64, 10, 3);
  ChunkStore store(unthrottled(), &oracle);
  std::vector<uint8_t> mine(64, 0xEE);
  store.write({0, 0}, mine);
  EXPECT_EQ(*store.read({0, 0}), mine);
}

TEST(ChunkStore, OracleParityIsConsistentWithCode) {
  // Decoding k oracle chunks must reproduce the oracle's parity chunk —
  // the property the whole testbed verification relies on.
  const ec::RsCode code(5, 3);
  const SyntheticOracle oracle(code, 512, 4, 11);
  std::vector<std::vector<uint8_t>> data;
  for (int i = 0; i < 3; ++i) data.push_back(*oracle.generate({2, i}));
  std::vector<ec::ConstChunk> spans(data.begin(), data.end());
  std::vector<std::vector<uint8_t>> parity(2, std::vector<uint8_t>(512));
  std::vector<ec::MutChunk> pspans(parity.begin(), parity.end());
  code.encode(spans, pspans);
  EXPECT_EQ(parity[0], *oracle.generate({2, 3}));
  EXPECT_EQ(parity[1], *oracle.generate({2, 4}));
}

TEST(ChunkStore, ThrottleSlowsIo) {
  ChunkStore::Options opts;
  opts.disk_bytes_per_sec = 20e6;  // 20 MB/s
  ChunkStore store(opts);
  // 12 MB of I/O against a 4 MiB burst: at least ~8 MB must wait for
  // refill — about 0.4 s at 20 MB/s.
  std::vector<uint8_t> data(4 << 20, 0x11);
  const auto start = std::chrono::steady_clock::now();
  store.write({0, 0}, data);
  (void)store.read({0, 0});
  (void)store.read({0, 0});
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_GT(secs, 0.25);
}

TEST(ChunkStore, ChargeIoHonorsBucket) {
  ChunkStore::Options opts;
  opts.disk_bytes_per_sec = 4e6;
  ChunkStore store(opts);
  const auto start = std::chrono::steady_clock::now();
  store.charge_io(6'000'000);  // beyond burst: ~0.5+ s at 4 MB/s
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_GT(secs, 0.3);
}

TEST(ChunkStore, FileBackedPersistsAndReads) {
  const auto dir = std::filesystem::temp_directory_path() /
                   "fastpr_store_test";
  std::filesystem::remove_all(dir);
  ChunkStore::Options opts;
  opts.directory = dir;
  ChunkStore store(opts);
  std::vector<uint8_t> data(1000);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i);
  }
  store.write({7, 3}, data);
  EXPECT_TRUE(std::filesystem::exists(dir / "s7_i3.chunk"));
  const auto got = store.read({7, 3});
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, data);
  store.erase({7, 3});
  EXPECT_FALSE(std::filesystem::exists(dir / "s7_i3.chunk"));
  std::filesystem::remove_all(dir);
}

TEST(ChunkStore, ScrubCleanStoreFindsNothing) {
  ChunkStore store(unthrottled());
  store.write({0, 0}, std::vector<uint8_t>(100, 1));
  store.write({0, 1}, std::vector<uint8_t>(100, 2));
  EXPECT_TRUE(store.scrub().empty());
}

TEST(ChunkStore, ScrubDetectsSilentCorruption) {
  // A latent sector error flips a bit without any I/O error — exactly
  // what background scrubbing exists to find.
  ChunkStore store(unthrottled());
  store.write({3, 1}, std::vector<uint8_t>(4096, 0xAB));
  store.write({3, 2}, std::vector<uint8_t>(4096, 0xCD));
  store.corrupt({3, 1}, 1234);
  const auto damaged = store.scrub();
  ASSERT_EQ(damaged.size(), 1u);
  EXPECT_EQ(damaged[0], (ChunkRef{3, 1}));
  // Rewriting the chunk heals it.
  store.write({3, 1}, std::vector<uint8_t>(4096, 0xAB));
  EXPECT_TRUE(store.scrub().empty());
}

TEST(ChunkStore, CorruptRequiresMaterializedChunk) {
  ChunkStore store(unthrottled());
  EXPECT_THROW(store.corrupt({9, 9}, 0), CheckFailure);
}

// Slice reads: the agents' reader tasks stream chunks packet by packet
// through chunk_size() + read_range(), never holding a whole chunk.
constexpr uint64_t kPacket = 256 * kKiB;
constexpr uint64_t kSliceChunk = 3 * kPacket + 1000;  // short last packet

std::vector<uint8_t> patterned(size_t n, uint8_t salt) {
  std::vector<uint8_t> data(n);
  for (size_t i = 0; i < n; ++i) {
    data[i] = static_cast<uint8_t>(i * 131 + salt + (i >> 9));
  }
  return data;
}

/// Every packet-sized slice of `chunk`, at every packet boundary, must
/// equal the matching bytes of `whole`.
void expect_slices_match(const ChunkStore& store, ChunkRef chunk,
                         const std::vector<uint8_t>& whole) {
  const auto size = store.chunk_size(chunk);
  ASSERT_TRUE(size.has_value());
  ASSERT_EQ(*size, whole.size());
  for (uint64_t offset = 0; offset < *size; offset += kPacket) {
    const uint64_t len = std::min(kPacket, *size - offset);
    std::vector<uint8_t> slice(len, 0xCC);
    ASSERT_TRUE(store.read_range(chunk, offset, slice));
    EXPECT_TRUE(std::equal(slice.begin(), slice.end(),
                           whole.begin() + static_cast<ptrdiff_t>(offset)))
        << "chunk (" << chunk.stripe << ", " << chunk.index
        << ") offset " << offset;
  }
}

TEST(ChunkStore, OracleSlicesMatchWholeRead) {
  const ec::RsCode code(5, 3);
  const SyntheticOracle oracle(code, kSliceChunk, 4, 11);
  ChunkStore store(unthrottled(), &oracle);
  for (const ChunkRef chunk : {ChunkRef{1, 0}, ChunkRef{1, 2},   // data
                               ChunkRef{1, 3}, ChunkRef{3, 4}}) {  // parity
    const auto whole = store.read(chunk);
    ASSERT_TRUE(whole.has_value());
    EXPECT_EQ(*whole, *oracle.generate(chunk));
    expect_slices_match(store, chunk, *whole);
  }
  // Unknown chunks: no size and no slice.
  std::vector<uint8_t> slice(16);
  EXPECT_FALSE(store.chunk_size({9, 0}).has_value());
  EXPECT_FALSE(store.read_range({9, 0}, 0, slice));
  EXPECT_FALSE(store.read_range({0, 5}, 0, slice));
}

TEST(ChunkStore, MaterializedSlicesMatchWrittenBytes) {
  ChunkStore store(unthrottled());
  const auto data = patterned(kSliceChunk, 3);
  store.write({1, 1}, data);
  const auto whole = store.read({1, 1});
  ASSERT_TRUE(whole.has_value());
  EXPECT_EQ(*whole, data);
  expect_slices_match(store, {1, 1}, data);
}

TEST(ChunkStore, FileBackedSlicesMatchWrittenBytes) {
  const auto dir = std::filesystem::temp_directory_path() /
                   "fastpr_store_slice_test";
  std::filesystem::remove_all(dir);
  ChunkStore::Options opts;
  opts.directory = dir;
  ChunkStore store(opts);
  const auto data = patterned(kSliceChunk, 5);
  store.write({4, 2}, data);
  const auto whole = store.read({4, 2});
  ASSERT_TRUE(whole.has_value());
  EXPECT_EQ(*whole, data);
  expect_slices_match(store, {4, 2}, data);
  std::filesystem::remove_all(dir);
}

TEST(ChunkStore, ReadErrorFailsSizeQueryAndSlices) {
  const ec::RsCode code(5, 3);
  const SyntheticOracle oracle(code, kSliceChunk, 4, 11);
  ChunkStore store(unthrottled(), &oracle);
  store.write({0, 1}, patterned(kSliceChunk, 7));
  std::vector<uint8_t> slice(kPacket);
  for (const ChunkRef chunk : {ChunkRef{0, 1}, ChunkRef{2, 4}}) {
    // An error injected after the first slice fails the next one.
    ASSERT_TRUE(store.chunk_size(chunk).has_value());
    ASSERT_TRUE(store.read_range(chunk, 0, slice));
    store.inject_read_error(chunk);
    EXPECT_FALSE(store.read_range(chunk, kPacket, slice));
    EXPECT_FALSE(store.chunk_size(chunk).has_value());
    EXPECT_TRUE(store.contains(chunk));  // error injection aside
    store.clear_read_errors();
    EXPECT_TRUE(store.read_range(chunk, kPacket, slice));
  }
}

TEST(ChunkStore, OutOfRangeSliceFailsCheck) {
  const ec::RsCode code(5, 3);
  const SyntheticOracle oracle(code, kSliceChunk, 4, 11);
  const auto dir = std::filesystem::temp_directory_path() /
                   "fastpr_store_range_test";
  std::filesystem::remove_all(dir);
  ChunkStore::Options file_opts;
  file_opts.directory = dir;
  ChunkStore files(file_opts);
  files.write({0, 0}, patterned(kSliceChunk, 9));
  ChunkStore store(unthrottled(), &oracle);
  store.write({0, 0}, patterned(kSliceChunk, 9));

  std::vector<uint8_t> slice(kPacket);
  const std::span<uint8_t> tail(slice.data(), 1001);  // one byte too many
  const uint64_t last = 3 * kPacket;
  const std::pair<const ChunkStore*, ChunkRef> cases[] = {
      {&store, {0, 0}},  // materialized
      {&store, {1, 0}},  // oracle data
      {&store, {1, 4}},  // oracle parity
      {&files, {0, 0}},  // file-backed
  };
  for (const auto& [s, chunk] : cases) {
    EXPECT_TRUE(s->read_range(chunk, last, tail.first(1000)));
    EXPECT_THROW(s->read_range(chunk, last, tail), CheckFailure);
    EXPECT_THROW(s->read_range(chunk, kSliceChunk + 1, tail.first(0)),
                 CheckFailure);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace fastpr::agent
