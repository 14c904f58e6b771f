#ifndef STREAMLINE_COMMON_CRC32_H_
#define STREAMLINE_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace streamline {

/// CRC-32 (IEEE 802.3 polynomial, the zlib/PNG variant: reflected
/// 0xEDB88320, init and xorout 0xFFFFFFFF) over a byte range. Guards every
/// wire frame, WAL frame and snapshot envelope. Runs the carry-less-multiply
/// folding kernel on x86-64 CPUs with PCLMULQDQ and the slicing-by-8 kernel
/// elsewhere; both produce the same value.
uint32_t Crc32(const void* data, size_t len);
inline uint32_t Crc32(std::string_view bytes) {
  return Crc32(bytes.data(), bytes.size());
}

namespace internal {

using Crc32Kernel = uint32_t (*)(const void* data, size_t len);

/// Slicing-by-8 over a compile-time table; any length, any CPU.
uint32_t Crc32Portable(const void* data, size_t len);

#if defined(__x86_64__)
/// Folds 64 B per step in four 128-bit lanes with PCLMULQDQ, then finishes
/// with a Barrett reduction (Gopal et al., "Fast CRC Computation for Generic
/// Polynomials Using PCLMULQDQ Instruction", Intel, 2009). Inputs under
/// 64 B and the tail past the last 16 B block go to the portable kernel.
/// Callable only when Crc32FoldSupported() is true.
uint32_t Crc32Fold(const void* data, size_t len);
bool Crc32FoldSupported();
#endif

/// The kernel Crc32 dispatches to, chosen once per process.
Crc32Kernel SelectedCrc32Kernel();

}  // namespace internal

}  // namespace streamline

#endif  // STREAMLINE_COMMON_CRC32_H_
