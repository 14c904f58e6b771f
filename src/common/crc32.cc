#include "common/crc32.h"

#include <array>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace streamline {

namespace {

using Crc32Tables = std::array<std::array<uint32_t, 256>, 8>;

// tables[0] is the bytewise table of the reflected polynomial; tables[k][b]
// advances it over byte b followed by k zero bytes, so eight lookups fold
// eight input bytes at once.
constexpr Crc32Tables BuildCrc32Tables() {
  Crc32Tables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (size_t k = 1; k < t.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr Crc32Tables kCrc32Tables = BuildCrc32Tables();

uint32_t LoadLe32(const unsigned char* p) {
  return uint32_t{p[0]} | uint32_t{p[1]} << 8 | uint32_t{p[2]} << 16 |
         uint32_t{p[3]} << 24;
}

// Advances a running CRC (the register before the final xor) over `len`
// bytes, eight at a time, then bytewise over the tail.
uint32_t Crc32Update(uint32_t crc, const unsigned char* p, size_t len) {
  const Crc32Tables& t = kCrc32Tables;
  for (; len >= 8; p += 8, len -= 8) {
    const uint32_t lo = LoadLe32(p) ^ crc;
    const uint32_t hi = LoadLe32(p + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; len > 0; ++p, --len) {
    crc = t[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  }
  return crc;
}

#if defined(__x86_64__)
#define STREAMLINE_CRC32_FOLD_TARGET __attribute__((target("pclmul,sse4.1")))

STREAMLINE_CRC32_FOLD_TARGET __m128i Load128(const unsigned char* at) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
}

// Multiplies the 128-bit remainder `x` by the fold constants `k` (x^n mod P
// for its two halves) and adds the next block.
STREAMLINE_CRC32_FOLD_TARGET __m128i Fold(__m128i x, __m128i k,
                                          __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(hi, lo), next);
}

// Advances a running CRC over `len` bytes, len >= 64 and a multiple of 16.
// The constants are the bit-reflected x^n mod P from Gopal et al. (the ones
// Chromium zlib's crc32_simd.c and Linux's crc32-pclmul use): k1/k2 fold a
// lane 512 bits ahead, k3/k4 fold 128 bits ahead, k5 folds 64 bits, and
// the last pair is P and the Barrett quotient floor(x^64 / P).
STREAMLINE_CRC32_FOLD_TARGET uint32_t FoldBlocks(uint32_t crc,
                                              const unsigned char* p,
                                              size_t len) {
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i x1 =
      _mm_xor_si128(Load128(p), _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x2 = Load128(p + 16);
  __m128i x3 = Load128(p + 32);
  __m128i x4 = Load128(p + 48);
  p += 64;
  len -= 64;
  for (; len >= 64; p += 64, len -= 64) {
    x1 = Fold(x1, k1k2, Load128(p));
    x2 = Fold(x2, k1k2, Load128(p + 16));
    x3 = Fold(x3, k1k2, Load128(p + 32));
    x4 = Fold(x4, k1k2, Load128(p + 48));
  }

  // Four lanes to one, then the remaining 16 B blocks.
  x1 = Fold(x1, k3k4, x2);
  x1 = Fold(x1, k3k4, x3);
  x1 = Fold(x1, k3k4, x4);
  for (; len >= 16; p += 16, len -= 16) {
    x1 = Fold(x1, k3k4, Load128(p));
  }

  // 128 bits to 64.
  __m128i x = _mm_xor_si128(_mm_srli_si128(x1, 8),
                            _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x = _mm_xor_si128(_mm_srli_si128(x, 4),
                    _mm_clmulepi64_si128(_mm_and_si128(x, low32), k5, 0x00));

  // Barrett reduction to 32 bits.
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x, low32), poly, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), poly, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x, q), 1));
}
#undef STREAMLINE_CRC32_FOLD_TARGET
#endif

}  // namespace

namespace internal {

uint32_t Crc32Portable(const void* data, size_t len) {
  return Crc32Update(0xFFFFFFFFu, static_cast<const unsigned char*>(data),
                     len) ^
         0xFFFFFFFFu;
}

#if defined(__x86_64__)
uint32_t Crc32Fold(const void* data, size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t crc = 0xFFFFFFFFu;
  if (len >= 64) {
    const size_t folded = len & ~size_t{15};
    crc = FoldBlocks(crc, p, folded);
    p += folded;
    len -= folded;
  }
  return Crc32Update(crc, p, len) ^ 0xFFFFFFFFu;
}

bool Crc32FoldSupported() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
}
#endif

Crc32Kernel SelectedCrc32Kernel() {
  // A function-local static: initialized once, thread-safe.
  static const Crc32Kernel kernel = []() -> Crc32Kernel {
#if defined(__x86_64__)
    if (Crc32FoldSupported()) return &Crc32Fold;
#endif
    return &Crc32Portable;
  }();
  return kernel;
}

}  // namespace internal

uint32_t Crc32(const void* data, size_t len) {
  return internal::SelectedCrc32Kernel()(data, len);
}

}  // namespace streamline
