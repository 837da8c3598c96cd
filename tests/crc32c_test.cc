// Tests for CRC-32C: the published check values, and every implementation
// the host can run (the portable slicing-by-8 tables always among them)
// against a bit-at-a-time reference at every length, offset and split.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/crc32c.h"
#include "common/crc32c_impl.h"
#include "common/random.h"

namespace bdisk {
namespace {

using internal::Crc32cImpl;

// The polynomial, straight from its definition: one byte per call, one
// bit per step. `state` is the register before the final inversion.
std::uint32_t ReferenceStep(std::uint32_t state, std::uint8_t byte) {
  state ^= byte;
  for (int k = 0; k < 8; ++k) {
    state = (state >> 1) ^ ((state & 1) ? 0x82F63B78u : 0u);
  }
  return state;
}

std::uint32_t ReferenceCrc32c(const std::uint8_t* p, std::size_t len) {
  std::uint32_t state = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < len; ++i) state = ReferenceStep(state, p[i]);
  return ~state;
}

std::vector<std::uint8_t> RandomBytes(std::size_t size, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> out(size);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.Uniform(256));
  return out;
}

std::string ImplName(const testing::TestParamInfo<const Crc32cImpl*>& info) {
  return info.param->name;
}

class Crc32cImplTest : public testing::TestWithParam<const Crc32cImpl*> {};

TEST_P(Crc32cImplTest, Rfc3720Vectors) {
  const auto crc = [](const std::vector<std::uint8_t>& bytes) {
    return GetParam()->extend(0, bytes.data(), bytes.size());
  };
  // RFC 3720 section B.4.
  EXPECT_EQ(crc(std::vector<std::uint8_t>(32, 0x00)), 0x8A9136AAu);
  EXPECT_EQ(crc(std::vector<std::uint8_t>(32, 0xFF)), 0x62A8AB43u);
  std::vector<std::uint8_t> ascending(32);
  std::vector<std::uint8_t> descending(32);
  for (std::size_t i = 0; i < 32; ++i) {
    ascending[i] = static_cast<std::uint8_t>(i);
    descending[i] = static_cast<std::uint8_t>(31 - i);
  }
  EXPECT_EQ(crc(ascending), 0x46DD794Eu);
  EXPECT_EQ(crc(descending), 0x113FDB5Cu);
  const std::vector<std::uint8_t> iscsi_read{
      0x01, 0xC0, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x14, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00,
      0x00, 0x00, 0x00, 0x14, 0x00, 0x00, 0x00, 0x18, 0x28, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00};
  EXPECT_EQ(crc(iscsi_read), 0xD9963A56u);
  // The catalogue check value.
  const char* check = "123456789";
  EXPECT_EQ(GetParam()->extend(0, check, std::strlen(check)), 0xE3069283u);
  EXPECT_EQ(GetParam()->extend(0, nullptr, 0), 0u);
}

TEST_P(Crc32cImplTest, MatchesReferenceAtEveryLengthAndMisalignment) {
  // 32 KiB + 24 is one served block: the identity header plus the payload.
  constexpr std::size_t kLarge = 32 * 1024 + 24;
  const auto bytes = RandomBytes(kLarge + 8, 1);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    const std::uint8_t* p = bytes.data() + offset;
    // The reference register after `len` bytes, advanced one byte a step.
    std::uint32_t state = 0xFFFFFFFFu;
    for (std::size_t len = 0; len <= 4096; ++len) {
      ASSERT_EQ(GetParam()->extend(0, p, len), ~state)
          << "offset " << offset << " length " << len;
      state = ReferenceStep(state, p[len]);
    }
    ASSERT_EQ(GetParam()->extend(0, p, kLarge), ReferenceCrc32c(p, kLarge))
        << "offset " << offset;
  }
}

TEST_P(Crc32cImplTest, ExtendIsSplitInvariant) {
  const auto bytes = RandomBytes(300, 2);
  const std::uint32_t whole = ReferenceCrc32c(bytes.data(), bytes.size());
  for (std::size_t split = 0; split <= bytes.size(); ++split) {
    const std::uint32_t head = GetParam()->extend(0, bytes.data(), split);
    EXPECT_EQ(GetParam()->extend(head, bytes.data() + split,
                                 bytes.size() - split),
              whole)
        << "split " << split;
  }
}

INSTANTIATE_TEST_SUITE_P(Supported, Crc32cImplTest,
                         testing::ValuesIn(internal::Crc32cImpls()),
                         ImplName);

TEST(Crc32cDispatchTest, PortableIsAlwaysSupportedAndListedFirst) {
  const auto& impls = internal::Crc32cImpls();
  ASSERT_FALSE(impls.empty());
  EXPECT_STREQ(impls.front()->name, "portable");
}

TEST(Crc32cDispatchTest, PublicEntryPointsMatchReference) {
  const auto bytes = RandomBytes(300, 3);
  const std::uint32_t whole = ReferenceCrc32c(bytes.data(), bytes.size());
  EXPECT_EQ(Crc32c(bytes.data(), bytes.size()), whole);
  for (std::size_t split = 0; split <= bytes.size(); ++split) {
    EXPECT_EQ(Crc32cExtend(Crc32c(bytes.data(), split), bytes.data() + split,
                           bytes.size() - split),
              whole)
        << "split " << split;
  }
}

}  // namespace
}  // namespace bdisk
