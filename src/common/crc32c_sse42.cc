/// \file crc32c_sse42.cc
/// \brief SSE4.2 CRC-32C: one `crc32q` per 8 input bytes.
///
/// Compiled with -msse4.2 on x86 (CMake sets it per-file so the rest of the
/// binary stays portable); reached only through Crc32cImpls() after a
/// CPUID probe. The CRC32 instruction implements exactly the reflected
/// Castagnoli polynomial, so the result equals the portable tables'.

#include "common/crc32c_impl.h"

#if defined(__x86_64__) && defined(__SSE4_2__)

#include <nmmintrin.h>

#include <cstring>

namespace bdisk::internal {

namespace {

std::uint32_t Sse42Extend(std::uint32_t crc, const void* data,
                          std::size_t len) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint64_t c = static_cast<std::uint32_t>(~crc);
  for (; len >= 8; p += 8, len -= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    c = _mm_crc32_u64(c, word);
  }
  auto c32 = static_cast<std::uint32_t>(c);
  for (; len > 0; ++p, --len) c32 = _mm_crc32_u8(c32, *p);
  return ~c32;
}

constexpr Crc32cImpl kSse42{"sse42", &Sse42Extend};

}  // namespace

const Crc32cImpl* Sse42Crc32c() { return &kSse42; }

}  // namespace bdisk::internal

#else

namespace bdisk::internal {

const Crc32cImpl* Sse42Crc32c() { return nullptr; }

}  // namespace bdisk::internal

#endif
