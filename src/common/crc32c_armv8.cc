/// \file crc32c_armv8.cc
/// \brief ARMv8 CRC-32C: one `crc32cx` per 8 input bytes.
///
/// Compiled in only when the toolchain targets the ARMv8 CRC extension
/// (__ARM_FEATURE_CRC32, e.g. -march=armv8.1-a, where it is mandatory), so
/// every CPU the binary runs on has the instruction and no runtime probe is
/// needed. Otherwise this file compiles to a stub and the portable tables
/// serve AArch64.

#include "common/crc32c_impl.h"

#if defined(__aarch64__) && defined(__ARM_FEATURE_CRC32)

#include <arm_acle.h>

#include <cstring>

namespace bdisk::internal {

namespace {

std::uint32_t Armv8Extend(std::uint32_t crc, const void* data,
                          std::size_t len) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  crc = ~crc;
  for (; len >= 8; p += 8, len -= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    crc = __crc32cd(crc, word);
  }
  for (; len > 0; ++p, --len) crc = __crc32cb(crc, *p);
  return ~crc;
}

constexpr Crc32cImpl kArmv8{"armv8", &Armv8Extend};

}  // namespace

const Crc32cImpl* Armv8Crc32c() { return &kArmv8; }

}  // namespace bdisk::internal

#else

namespace bdisk::internal {

const Crc32cImpl* Armv8Crc32c() { return nullptr; }

}  // namespace bdisk::internal

#endif
