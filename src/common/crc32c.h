/// \file crc32c.h
/// \brief CRC-32C (Castagnoli, polynomial 0x1EDC6F41, reflected) checksums.
///
/// Used to make broadcast blocks self-verifying: a client that receives a
/// block over a corrupting channel recomputes the checksum and discards the
/// block on mismatch. CRC-32C guarantees detection of any single error
/// burst of at most 32 bits; longer random corruption escapes with
/// probability 2^-32. The store also checks its superblock and catalog
/// with it.
///
/// Verification sits on the served path: the block store re-verifies every
/// block it reads, and every ReconstructingClient::OfferEx verifies the
/// block it is offered — so the checksum runs over every payload byte at
/// least twice per served datagram. Crc32cExtend therefore dispatches, once
/// per process, to the fastest implementation the CPU supports:
///
///   - "sse42": the SSE4.2 `crc32q` instruction, 8 bytes per step (x86-64;
///     built with a per-file -msse4.2, reached only after a CPUID probe);
///   - "armv8": the ARMv8 CRC32 `crc32cx` instruction, compiled in when the
///     toolchain targets the CRC extension (mandatory from ARMv8.1);
///   - "portable": slicing-by-8 tables, on every host.
///
/// CRC-32C is fixed by its polynomial, so every implementation returns the
/// same value for the same bytes; the choice affects throughput only.
/// There is no override knob: tests reach each implementation through
/// internal::Crc32cImpls() (common/crc32c_impl.h).

#ifndef BDISK_COMMON_CRC32C_H_
#define BDISK_COMMON_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace bdisk {

/// \brief Extends a running CRC-32C with `len` bytes. Start with crc = 0.
std::uint32_t Crc32cExtend(std::uint32_t crc, const void* data,
                           std::size_t len);

/// \brief CRC-32C of one buffer.
inline std::uint32_t Crc32c(const void* data, std::size_t len) {
  return Crc32cExtend(0, data, len);
}

}  // namespace bdisk

#endif  // BDISK_COMMON_CRC32C_H_
