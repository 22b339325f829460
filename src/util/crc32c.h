#ifndef FIVM_UTIL_CRC32C_H_
#define FIVM_UTIL_CRC32C_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>

namespace fivm::util {

/// CRC-32C (Castagnoli, polynomial 0x1EDC6F41, reflected 0x82F63B78) — the
/// iSCSI/ext4/LevelDB checksum, and the one x86 implements in hardware
/// (SSE4.2 CRC32 instruction). The durability layer stamps it on every WAL
/// frame and checkpoint image; recovery treats a mismatch as a torn tail.
///
/// Running form: `crc = Crc32c(p, n, crc)` chains across buffers, with 0 as
/// the empty-prefix seed. The conventional init/final bit inversions are
/// internal, so chaining just feeds the previous return value back in and
/// `Crc32c(buf, n)` over a whole buffer equals any split of it.
///
/// Dispatch follows src/util/simd.h exactly, one rung down (SSE4.2 instead
/// of AVX2):
///  1. Build: non-x86-64 targets, or a compiler that lacks -msse4.2 (CMake
///     then defines FIVM_CRC32C_NO_SSE42), drop the hardware arm; every call
///     takes the slice-by-8 table fallback.
///  2. CPU: the hardware arm runs only when __builtin_cpu_supports("sse4.2").
///  3. Environment: FIVM_DISABLE_HWCRC=1 pins the table path at startup.
///  4. SetHardwareCrcActive(false/true): tests and benches toggle arms at
///     runtime (clamped to what build + CPU support). Both arms compute the
///     same function bit-for-bit; tests/crc32c_test.cc fuzzes them against
///     each other and against a bitwise reference.

#if (defined(__x86_64__) || defined(_M_X64)) && \
    (defined(__GNUC__) || defined(__clang__)) && !defined(FIVM_CRC32C_NO_SSE42)
#define FIVM_CRC32C_SSE42_BUILD 1
#endif

namespace detail {

#if defined(FIVM_CRC32C_SSE42_BUILD)
// The SSE4.2 arm, defined in src/util/crc32c_sse42.cc (the only TU built
// with -msse4.2). `state` is the pre-inverted running remainder.
uint32_t Crc32cSse42(uint32_t state, const uint8_t* p, size_t n);
#endif

// Slice-by-8 table arm, defined in src/util/crc32c.cc.
uint32_t Crc32cTable(uint32_t state, const uint8_t* p, size_t n);

inline bool CpuSupportsSse42Crc() {
#if defined(FIVM_CRC32C_SSE42_BUILD)
  return __builtin_cpu_supports("sse4.2") != 0;
#else
  return false;
#endif
}

inline bool HwCrcStartupDefault() {
  if (!CpuSupportsSse42Crc()) return false;
  const char* env = std::getenv("FIVM_DISABLE_HWCRC");
  return env == nullptr || env[0] == '\0' || env[0] == '0';
}

inline std::atomic<bool>& HwCrcActiveFlag() {
  static std::atomic<bool> active{HwCrcStartupDefault()};
  return active;
}

}  // namespace detail

/// True when this binary contains the SSE4.2 arm at all.
constexpr bool HardwareCrcCompiledIn() {
#if defined(FIVM_CRC32C_SSE42_BUILD)
  return true;
#else
  return false;
#endif
}

/// True when the hardware arm could run here (build + CPU), regardless of
/// the current dispatch pin.
inline bool HardwareCrcSupported() { return detail::CpuSupportsSse42Crc(); }

/// The arm the next Crc32c call will take.
inline bool HardwareCrcActive() {
  return detail::HwCrcActiveFlag().load(std::memory_order_relaxed);
}

/// Pins dispatch (tests, differential fuzz). Enabling is clamped to
/// HardwareCrcSupported(); returns the previous state.
inline bool SetHardwareCrcActive(bool on) {
  return detail::HwCrcActiveFlag().exchange(on && HardwareCrcSupported(),
                                            std::memory_order_relaxed);
}

/// CRC-32C of `n` bytes at `data`, chained onto `crc` (0 = fresh).
inline uint32_t Crc32c(const void* data, size_t n, uint32_t crc = 0) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t state = crc ^ 0xFFFFFFFFu;
#if defined(FIVM_CRC32C_SSE42_BUILD)
  if (HardwareCrcActive()) {
    return detail::Crc32cSse42(state, p, n) ^ 0xFFFFFFFFu;
  }
#endif
  return detail::Crc32cTable(state, p, n) ^ 0xFFFFFFFFu;
}

}  // namespace fivm::util

#endif  // FIVM_UTIL_CRC32C_H_
