// CRC-32 kernels: known answers, and every kernel against a bit-at-a-time
// reference over every length 0..4096 at every alignment 0..15 (crossing
// the 16 B and 64 B fold boundaries and every tail length).

#include "common/crc32.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace streamline {
namespace {

// The bit-at-a-time reference: advances the CRC register over one byte.
uint32_t BitwiseStep(uint32_t crc, unsigned char byte) {
  crc ^= byte;
  for (int k = 0; k < 8; ++k) {
    crc = (crc & 1) ? (crc >> 1) ^ 0xEDB88320u : crc >> 1;
  }
  return crc;
}

// Every kernel this CPU can run, with its name for failure messages.
std::vector<std::pair<const char*, internal::Crc32Kernel>> Kernels() {
  std::vector<std::pair<const char*, internal::Crc32Kernel>> kernels = {
      {"Crc32", [](const void* d, size_t n) { return Crc32(d, n); }},
      {"portable", &internal::Crc32Portable}};
#if defined(__x86_64__)
  if (internal::Crc32FoldSupported()) {
    kernels.emplace_back("fold", &internal::Crc32Fold);
  }
#endif
  return kernels;
}

TEST(Crc32Test, KnownAnswers) {
  const std::string zeros(32, '\0');
  const std::string ones(32, '\xFF');
  for (const auto& [name, kernel] : Kernels()) {
    SCOPED_TRACE(name);
    EXPECT_EQ(kernel("", 0), 0x00000000u);
    EXPECT_EQ(kernel("123456789", 9), 0xCBF43926u);
    EXPECT_EQ(kernel(zeros.data(), zeros.size()), 0x190A55ADu);
    EXPECT_EQ(kernel(ones.data(), ones.size()), 0xFF6CAB0Bu);
    const std::string fox = "The quick brown fox jumps over the lazy dog";
    EXPECT_EQ(kernel(fox.data(), fox.size()), 0x414FA339u);
  }
}

TEST(Crc32Test, EveryLengthAndAlignmentMatchesBitwiseReference) {
  constexpr size_t kMaxLen = 4096;
  constexpr size_t kAlignments = 16;
  // A buffer aligned to 64 B, so offset `a` starts exactly `a` bytes past
  // a 16 B boundary.
  std::vector<unsigned char> storage(kMaxLen + kAlignments + 64);
  auto* base = storage.data() +
               (64 - reinterpret_cast<uintptr_t>(storage.data()) % 64) % 64;
  uint64_t x = 0x9E3779B97F4A7C15ull;
  for (size_t i = 0; i < kMaxLen + kAlignments; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    base[i] = static_cast<unsigned char>(x);
  }
  const auto kernels = Kernels();
  for (size_t a = 0; a < kAlignments; ++a) {
    uint32_t reg = 0xFFFFFFFFu;  // the reference over base[a, a + len)
    for (size_t len = 0; len <= kMaxLen; ++len) {
      if (len > 0) reg = BitwiseStep(reg, base[a + len - 1]);
      const uint32_t want = reg ^ 0xFFFFFFFFu;
      for (const auto& [name, kernel] : kernels) {
        const uint32_t got = kernel(base + a, len);
        if (got != want) {
          ADD_FAILURE() << name << " at offset " << a << ", length " << len
                        << ": got " << std::hex << got << ", want " << want;
          return;
        }
      }
    }
  }
}

TEST(Crc32Test, DispatchPicksFoldingKernelWhenCpuHasPclmul) {
#if defined(__x86_64__)
  if (internal::Crc32FoldSupported()) {
    EXPECT_EQ(internal::SelectedCrc32Kernel(), &internal::Crc32Fold);
    return;
  }
#endif
  EXPECT_EQ(internal::SelectedCrc32Kernel(), &internal::Crc32Portable);
}

}  // namespace
}  // namespace streamline
