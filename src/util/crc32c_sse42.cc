// The SSE4.2 hardware CRC-32C arm. This is the only translation unit built
// with -msse4.2 (see the -msse4.2 probe in CMakeLists.txt), mirroring how
// src/util/simd_avx2.cc isolates -mavx2: the rest of the engine never emits
// an instruction the baseline target does not have, and runtime dispatch in
// crc32c.h decides per-process whether this arm is reachable.

#include "src/util/crc32c.h"

#if defined(FIVM_CRC32C_SSE42_BUILD)

#include <nmmintrin.h>

#include <cstring>

namespace fivm::util::detail {

uint32_t Crc32cSse42(uint32_t state, const uint8_t* p, size_t n) {
  while (n > 0 && (reinterpret_cast<uintptr_t>(p) & 7) != 0) {
    state = _mm_crc32_u8(state, *p++);
    --n;
  }
  uint64_t s64 = state;
  while (n >= 8) {
    uint64_t w;
    std::memcpy(&w, p, 8);
    s64 = _mm_crc32_u64(s64, w);
    p += 8;
    n -= 8;
  }
  state = static_cast<uint32_t>(s64);
  while (n > 0) {
    state = _mm_crc32_u8(state, *p++);
    --n;
  }
  return state;
}

}  // namespace fivm::util::detail

#endif  // FIVM_CRC32C_SSE42_BUILD
