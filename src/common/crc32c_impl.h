/// \file crc32c_impl.h
/// \brief Internal registry of CRC-32C implementations (see crc32c.h).
///
/// Library code calls Crc32cExtend, which routes to the probed best entry
/// of Crc32cImpls(). Tests reach every implementation the host can run
/// through the same list.

#ifndef BDISK_COMMON_CRC32C_IMPL_H_
#define BDISK_COMMON_CRC32C_IMPL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace bdisk::internal {

/// One CRC-32C implementation. `extend` has exactly the contract of
/// Crc32cExtend (pre- and post-inversion included).
struct Crc32cImpl {
  /// Stable lowercase identifier: "portable", "sse42" or "armv8".
  const char* name;
  std::uint32_t (*extend)(std::uint32_t crc, const void* data,
                          std::size_t len);
};

/// The SSE4.2 implementation, or nullptr when the binary does not target
/// x86-64 (crc32c_sse42.cc). Callers must still probe the CPU.
const Crc32cImpl* Sse42Crc32c();

/// The ARMv8 CRC32 implementation, or nullptr unless the binary targets
/// AArch64 with the CRC extension (crc32c_armv8.cc). Needs no probe.
const Crc32cImpl* Armv8Crc32c();

/// Every implementation this host can execute: "portable" (slicing-by-8,
/// every host) first, the one Crc32cExtend uses last. Probed once;
/// thread-safe.
const std::vector<const Crc32cImpl*>& Crc32cImpls();

}  // namespace bdisk::internal

#endif  // BDISK_COMMON_CRC32C_IMPL_H_
