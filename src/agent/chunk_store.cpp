#include "agent/chunk_store.h"

#include <cstring>
#include <fstream>
#include <sstream>

#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "util/check.h"
#include "util/crc32c.h"

namespace fastpr::agent {

std::optional<std::vector<uint8_t>> ChunkOracle::generate(
    cluster::ChunkRef chunk) const {
  const auto bytes = size(chunk);
  if (!bytes.has_value()) return std::nullopt;
  std::vector<uint8_t> data(*bytes);
  fill(chunk, 0, data);
  return data;
}

ChunkStore::ChunkStore(const Options& options, const ChunkOracle* oracle)
    : options_(options),
      oracle_(oracle),
      disk_(std::make_unique<TokenBucket>(options.disk_bytes_per_sec)) {
  if (options_.directory.has_value()) {
    std::filesystem::create_directories(*options_.directory);
  }
}

std::filesystem::path ChunkStore::path_for(cluster::ChunkRef chunk) const {
  std::ostringstream name;
  name << "s" << chunk.stripe << "_i" << chunk.index << ".chunk";
  return *options_.directory / name.str();
}

void ChunkStore::write(cluster::ChunkRef chunk, std::vector<uint8_t> data) {
  FASTPR_TRACE_SPAN("store.write", "store");
  charge_io(static_cast<int64_t>(data.size()));
  write_unthrottled(chunk, std::move(data));
}

std::optional<std::vector<uint8_t>> ChunkStore::read_unthrottled(
    cluster::ChunkRef chunk) const {
  const auto size = chunk_size(chunk);
  if (!size.has_value()) return std::nullopt;
  std::vector<uint8_t> data(*size);
  if (!read_range(chunk, 0, data)) return std::nullopt;
  return data;
}

std::optional<uint64_t> ChunkStore::chunk_size(cluster::ChunkRef chunk) const {
  bool on_disk = false;
  {
    MutexLock lock(mutex_);
    if (read_errors_.count(chunk) != 0) return std::nullopt;
    const auto it = chunks_.find(chunk);
    if (it != chunks_.end()) return it->second.size();
    on_disk = on_disk_.count(chunk) != 0;
  }
  if (on_disk) {
    std::error_code ec;
    const auto size = std::filesystem::file_size(path_for(chunk), ec);
    FASTPR_CHECK_MSG(!ec, "chunk file disappeared");
    return size;
  }
  if (oracle_ != nullptr) return oracle_->size(chunk);
  return std::nullopt;
}

bool ChunkStore::read_range(cluster::ChunkRef chunk, uint64_t offset,
                            std::span<uint8_t> out) const {
  const auto check_range = [&](uint64_t chunk_bytes) {
    FASTPR_CHECK_MSG(offset <= chunk_bytes &&
                         out.size() <= chunk_bytes - offset,
                     "slice [" << offset << ", +" << out.size()
                               << ") outside a " << chunk_bytes
                               << "-byte chunk");
  };
  bool on_disk = false;
  {
    MutexLock lock(mutex_);
    if (read_errors_.count(chunk) != 0) return false;
    const auto it = chunks_.find(chunk);
    if (it != chunks_.end()) {
      check_range(it->second.size());
      if (!out.empty()) {
        std::memcpy(out.data(), it->second.data() + offset, out.size());
      }
      return true;
    }
    on_disk = on_disk_.count(chunk) != 0;
  }
  if (on_disk) {
    std::ifstream in(path_for(chunk), std::ios::binary | std::ios::ate);
    FASTPR_CHECK_MSG(in.good(), "chunk file disappeared");
    check_range(static_cast<uint64_t>(in.tellg()));
    in.seekg(static_cast<std::streamoff>(offset));
    in.read(reinterpret_cast<char*>(out.data()),
            static_cast<std::streamsize>(out.size()));
    FASTPR_CHECK(in.good());
    return true;
  }
  if (oracle_ == nullptr) return false;
  const auto size = oracle_->size(chunk);
  if (!size.has_value()) return false;
  check_range(*size);
  oracle_->fill(chunk, offset, out);
  return true;
}

std::optional<std::vector<uint8_t>> ChunkStore::read(
    cluster::ChunkRef chunk) const {
  FASTPR_TRACE_SPAN("store.read", "store");
  auto data = read_unthrottled(chunk);
  if (data.has_value()) {
    charge_io(static_cast<int64_t>(data->size()));
  }
  return data;
}

void ChunkStore::write_unthrottled(cluster::ChunkRef chunk,
                                   std::vector<uint8_t> data) {
  const uint32_t checksum = crc32c(data);
  {
    MutexLock lock(mutex_);
    checksums_[chunk] = checksum;
  }
  if (options_.directory.has_value()) {
    std::ofstream out(path_for(chunk), std::ios::binary | std::ios::trunc);
    FASTPR_CHECK_MSG(out.good(), "cannot open chunk file for write");
    out.write(reinterpret_cast<const char*>(data.data()),
              static_cast<std::streamsize>(data.size()));
    FASTPR_CHECK(out.good());
    MutexLock lock(mutex_);
    on_disk_.insert(chunk);
    return;
  }
  MutexLock lock(mutex_);
  chunks_[chunk] = std::move(data);
}

void ChunkStore::charge_io(int64_t bytes) const {
  // The span exposes disk pacing: its duration is the time this packet
  // spent waiting on the token bucket.
  FASTPR_TRACE_SPAN("store.charge_io", "store", bytes, "bytes");
  disk_->acquire(bytes);
  static telemetry::Counter& io_bytes =
      telemetry::MetricsRegistry::global().counter("store.io_bytes");
  io_bytes.add(bytes);
}

bool ChunkStore::has_materialized(cluster::ChunkRef chunk) const {
  MutexLock lock(mutex_);
  return chunks_.count(chunk) != 0 || on_disk_.count(chunk) != 0;
}

bool ChunkStore::contains(cluster::ChunkRef chunk) const {
  {
    MutexLock lock(mutex_);
    if (chunks_.count(chunk) != 0 || on_disk_.count(chunk) != 0) return true;
  }
  return oracle_ != nullptr && oracle_->size(chunk).has_value();
}

void ChunkStore::erase(cluster::ChunkRef chunk) {
  MutexLock lock(mutex_);
  chunks_.erase(chunk);
  checksums_.erase(chunk);
  if (on_disk_.erase(chunk) != 0) {
    std::filesystem::remove(path_for(chunk));
  }
}

void ChunkStore::inject_read_error(cluster::ChunkRef chunk) {
  MutexLock lock(mutex_);
  read_errors_.insert(chunk);
}

void ChunkStore::clear_read_errors() {
  MutexLock lock(mutex_);
  read_errors_.clear();
}

void ChunkStore::corrupt(cluster::ChunkRef chunk, size_t byte_index) {
  MutexLock lock(mutex_);
  const auto it = chunks_.find(chunk);
  FASTPR_CHECK_MSG(it != chunks_.end(),
                   "can only corrupt an in-memory materialized chunk");
  FASTPR_CHECK(byte_index < it->second.size());
  it->second[byte_index] ^= 0x01;
}

std::vector<cluster::ChunkRef> ChunkStore::scrub() const {
  std::vector<cluster::ChunkRef> damaged;
  MutexLock lock(mutex_);
  for (const auto& [ref, data] : chunks_) {
    const auto it = checksums_.find(ref);
    if (it == checksums_.end() || crc32c(data) != it->second) {
      damaged.push_back(ref);
    }
  }
  return damaged;
}

size_t ChunkStore::materialized_count() const {
  MutexLock lock(mutex_);
  return chunks_.size() + on_disk_.size();
}

}  // namespace fastpr::agent
