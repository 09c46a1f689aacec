// CRC-32C (Castagnoli) — the checksum storage systems use for on-disk
// chunk integrity (latent sector errors are a core motivation of
// predictive repair: disks go bad gradually, not atomically).
//
// crc32c() runs the SSE4.2 `crc32` instruction when the CPU has it
// (checked once, at first use) and the portable 8-way slicing-table
// code otherwise. Both give identical results; the portable one stays
// callable as the reference.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace fastpr {

/// CRC-32C of `data`, seeded by `crc` (pass 0 for a fresh checksum;
/// chain calls to checksum streamed data).
uint32_t crc32c(std::span<const uint8_t> data, uint32_t crc = 0);

/// The slicing-by-8 software CRC-32C — crc32c()'s fallback, and the
/// reference its hardware path is tested against.
uint32_t crc32c_portable(std::span<const uint8_t> data, uint32_t crc = 0);

/// True when crc32c() runs the SSE4.2 instruction on this host.
bool crc32c_hardware();

}  // namespace fastpr
