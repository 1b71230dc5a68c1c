// The CRC-32 and chunk-layout loops start on 32-byte boundaries, so their
// timing does not move with the size of earlier translation units (see
// kernels/serial/serial_backend.cpp).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC optimize("align-loops=32")
#endif

#include "checkpoint/chunk.hpp"

#include <array>
#include <cstring>

#include "common/check.hpp"

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#define ADCC_X86 1
#else
#define ADCC_X86 0
#endif

namespace adcc::checkpoint {

std::size_t total_bytes(std::span<const ObjectView> objs) {
  std::size_t n = 0;
  for (const ObjectView& o : objs) n += o.bytes;
  return n;
}

namespace {

using CrcTables = std::array<std::array<std::uint32_t, 256>, 4>;

CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1u)));
    t[0][i] = c;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    t[1][i] = (t[0][i] >> 8) ^ t[0][t[0][i] & 0xFFu];
    t[2][i] = (t[1][i] >> 8) ^ t[0][t[1][i] & 0xFFu];
    t[3][i] = (t[2][i] >> 8) ^ t[0][t[2][i] & 0xFFu];
  }
  return t;
}

/// Slicing-by-4 over the raw (pre-inverted) CRC register `c`.
std::uint32_t crc32_table(const unsigned char* p, std::size_t bytes, std::uint32_t c) {
  static const CrcTables t = make_crc_tables();
  while (bytes >= 4) {
    c ^= static_cast<std::uint32_t>(p[0]) | static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 | static_cast<std::uint32_t>(p[3]) << 24;
    c = t[3][c & 0xFFu] ^ t[2][(c >> 8) & 0xFFu] ^ t[1][(c >> 16) & 0xFFu] ^ t[0][c >> 24];
    p += 4;
    bytes -= 4;
  }
  while (bytes-- > 0) c = (c >> 8) ^ t[0][(c ^ *p++) & 0xFFu];
  return c;
}

#if ADCC_X86
/// True if the CPU has PCLMULQDQ (CPUID leaf 1, ECX bit 1); probed once.
bool use_pclmul() {
  static const bool has = [] {
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    return __get_cpuid(1, &eax, &ebx, &ecx, &edx) && (ecx & bit_PCLMUL) != 0;
  }();
  return has;
}

inline __m128i load128(const unsigned char* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// One 128-bit fold step: a.lo * k.lo ^ a.hi * k.hi ^ b.
__attribute__((target("pclmul"))) inline __m128i fold128(__m128i a, __m128i k, __m128i b) {
  return _mm_xor_si128(
      _mm_xor_si128(_mm_clmulepi64_si128(a, k, 0x00), _mm_clmulepi64_si128(a, k, 0x11)), b);
}

/// Carry-less-multiply folding (Gopal et al., "Fast CRC Computation for
/// Generic Polynomials Using PCLMULQDQ Instruction", Intel 2009) over the raw
/// CRC register `c`: four 128-bit lanes fold 64 bytes per step, then collapse
/// to one lane, fold the remaining 16-byte blocks, and Barrett-reduce to 32
/// bits. `bytes` must be a multiple of 16 and at least 64. The constants are
/// that method's fold and Barrett constants for the bit-reflected CRC-32
/// polynomial P(x) = 0x104C11DB7.
__attribute__((target("pclmul"))) std::uint32_t crc32_pclmul(const unsigned char* p,
                                                             std::size_t bytes, std::uint32_t c) {
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);  // 64-byte fold
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);  // 16-byte fold
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);               // 64 -> 32 bits
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);  // Barrett: mu, P
  const __m128i mask32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i x1 = _mm_xor_si128(load128(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x2 = load128(p + 16);
  __m128i x3 = load128(p + 32);
  __m128i x4 = load128(p + 48);
  p += 64;
  bytes -= 64;
  for (; bytes >= 64; p += 64, bytes -= 64) {
    x1 = fold128(x1, k1k2, load128(p));
    x2 = fold128(x2, k1k2, load128(p + 16));
    x3 = fold128(x3, k1k2, load128(p + 32));
    x4 = fold128(x4, k1k2, load128(p + 48));
  }
  x1 = fold128(x1, k3k4, x2);
  x1 = fold128(x1, k3k4, x3);
  x1 = fold128(x1, k3k4, x4);
  for (; bytes >= 16; p += 16, bytes -= 16) x1 = fold128(x1, k3k4, load128(p));

  // 128 -> 64 bits, then 64 -> 32 bits with the k5 fold.
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), k5, 0x00));
  // Barrett reduction.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, mask32), poly, 0x00);
  return static_cast<std::uint32_t>(_mm_cvtsi128_si32(_mm_srli_si128(_mm_xor_si128(x1, t), 4)));
}
#endif

}  // namespace

const char* crc32_kernel() {
#if ADCC_X86
  if (use_pclmul()) return "pclmul";
#endif
  return "table";
}

std::uint32_t crc32(const void* data, std::size_t bytes, std::uint32_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = ~seed;
#if ADCC_X86
  if (bytes >= 64 && use_pclmul()) {
    const std::size_t folded = bytes & ~std::size_t{15};
    c = crc32_pclmul(p, folded, c);
    p += folded;
    bytes -= folded;
  }
#endif
  return ~crc32_table(p, bytes, c);
}

std::uint32_t slot_header_crc(const SlotHeader& h) {
  SlotHeader copy = h;
  copy.header_crc = 0;
  return crc32(&copy, sizeof(copy));
}

std::uint32_t chunk_header_crc(const ChunkHeader& h) {
  ChunkHeader copy = h;
  copy.header_crc = 0;
  return crc32(&copy, sizeof(copy));
}

ChunkLayout ChunkLayout::make(std::span<const ObjectView> objs, std::size_t chunk_bytes) {
  ADCC_CHECK(chunk_bytes > 0, "chunk size must be positive");
  ChunkLayout layout;
  layout.object_bytes.reserve(objs.size());
  std::size_t off = sizeof(SlotHeader) + objs.size() * sizeof(std::uint64_t);
  layout.header_bytes = off;
  for (std::size_t oi = 0; oi < objs.size(); ++oi) {
    const ObjectView& o = objs[oi];
    layout.object_bytes.push_back(o.bytes);
    layout.payload_bytes += o.bytes;
    for (std::size_t pos = 0; pos < o.bytes; pos += chunk_bytes) {
      Chunk c;
      c.object = static_cast<std::uint32_t>(oi);
      c.index = static_cast<std::uint32_t>(pos / chunk_bytes);
      c.object_offset = pos;
      c.payload_bytes = static_cast<std::uint32_t>(std::min(chunk_bytes, o.bytes - pos));
      c.image_offset = off;
      off += sizeof(ChunkHeader) + c.payload_bytes;
      layout.chunks.push_back(c);
    }
  }
  layout.image_bytes = off;
  return layout;
}

std::size_t checkpoint_image_bytes(std::span<const ObjectView> objs, std::size_t chunk_bytes) {
  return ChunkLayout::make(objs, chunk_bytes).image_bytes;
}

}  // namespace adcc::checkpoint
