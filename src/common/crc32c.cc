#include "common/crc32c.h"

#include <array>

#include "common/crc32c_impl.h"

namespace bdisk {
namespace internal {
namespace {

// Slicing-by-8 tables for the reflected Castagnoli polynomial (0x82F63B78).
// kTables[0] is the classic byte table; kTables[k][b] is the CRC of byte b
// followed by k zero bytes, so one step folds 8 input bytes with 8 lookups.
using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr Tables MakeTables() {
  Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int k = 0; k < 8; ++k) {
      crc = (crc >> 1) ^ ((crc & 1) ? 0x82F63B78u : 0u);
    }
    t[0][i] = crc;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = t[k - 1][i];
      t[k][i] = (prev >> 8) ^ t[0][prev & 0xFFu];
    }
  }
  return t;
}

constexpr Tables kTables = MakeTables();

// Little-endian load by bytes: endian-neutral, and folded into one load on
// little-endian targets.
inline std::uint32_t LoadLe32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

std::uint32_t PortableExtend(std::uint32_t crc, const void* data,
                             std::size_t len) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  crc = ~crc;
  for (; len >= 8; p += 8, len -= 8) {
    const std::uint32_t lo = LoadLe32(p) ^ crc;
    const std::uint32_t hi = LoadLe32(p + 4);
    crc = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
          kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
          kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
          kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
  }
  for (; len > 0; ++p, --len) {
    crc = (crc >> 8) ^ kTables[0][(crc ^ *p) & 0xFFu];
  }
  return ~crc;
}

constexpr Crc32cImpl kPortable{"portable", &PortableExtend};

#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
bool CpuHasSse42() {
  // The probe may run before main (a static initializer that checksums).
  __builtin_cpu_init();
  return __builtin_cpu_supports("sse4.2") != 0;
}
#else
bool CpuHasSse42() { return false; }
#endif

std::vector<const Crc32cImpl*> BuildImpls() {
  std::vector<const Crc32cImpl*> out{&kPortable};
  if (const Crc32cImpl* impl = Sse42Crc32c();
      impl != nullptr && CpuHasSse42()) {
    out.push_back(impl);
  }
  if (const Crc32cImpl* impl = Armv8Crc32c(); impl != nullptr) {
    out.push_back(impl);
  }
  return out;
}

}  // namespace

const std::vector<const Crc32cImpl*>& Crc32cImpls() {
  static const std::vector<const Crc32cImpl*> kImpls = BuildImpls();
  return kImpls;
}

}  // namespace internal

std::uint32_t Crc32cExtend(std::uint32_t crc, const void* data,
                           std::size_t len) {
  static const auto kExtend = internal::Crc32cImpls().back()->extend;
  return kExtend(crc, data, len);
}

}  // namespace bdisk
