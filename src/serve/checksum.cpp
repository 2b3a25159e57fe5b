// serve::output_checksum: FNV-1a 64 over the output doubles' bytes. Its bits
// are part of the wire protocol; the byte-serial loop defines them and stays
// as the fallback and the test oracle. Where the CPU allows, an AVX-512 path
// computes the same bits about seven times faster.
//
// Why a byte-serial hash vectorizes exactly. One FNV-1a step is
// h' = (h ^ b) * P with P = 2^40 + 0x1b3, and only the state's low byte lo is
// nonlinear: lo' = M(lo ^ b) with M(v) = v * 0xb3 mod 256. Since 0xb3 is odd,
// bit j of M(v) is bit j of v XOR bit j of M(v mod 2^j). So in the stream
// x_i = lo_i ^ b_i, bit plane j obeys
//
//   x_{i+1,j} = x_{i,j} ^ b_{i+1,j} ^ m_{i,j},  m_i = M(x_i mod 2^j),
//
// one prefix-XOR once the planes below j are known. With every x_i known the
// rest is linear: h ^ b = h + d with d = x - lo, so
// h_N = h_0 P^N + sum_i d_i P^(N-i) (mod 2^64).

#include <cstring>
#include <utility>

#include "serve/wire.hpp"

#if defined(__x86_64__) && !defined(NUP_DISABLE_AVX2)
#define NUP_HAVE_AVX512_CHECKSUM 1
#include <immintrin.h>
#else
#define NUP_HAVE_AVX512_CHECKSUM 0
#endif

namespace nup::serve {

namespace {

constexpr std::uint64_t kOffsetBasis = 1469598103934665603ull;
constexpr std::uint64_t kPrime = 1099511628211ull;

#if NUP_HAVE_AVX512_CHECKSUM

// The vector path works bit-sliced. A group is 8 blocks of 64 bytes; its
// plane j is one register whose qword q holds bit j of block q's 64 bytes,
// the block's first byte in the top bit. Planes run over every group of a
// chunk before the next plane starts, so the groups' dependency chains
// overlap; from block to block only a carry bit per plane passes.
constexpr int kGroups = 4;
constexpr int kBlocks = 8 * kGroups;
constexpr std::size_t kChunkBytes = 64 * kBlocks;

/// Constants of the vector path, built once.
struct Tables {
  /// Byte gathers around a per-qword 8x8 bit transpose (gf2p8affine):
  /// bytes -> planes of one block (qword j = plane j, reversed) and back.
  alignas(64) std::uint8_t to_planes[64];
  alignas(64) std::uint8_t from_planes[64];
  /// Qword index pairs of the three butterfly stages of an 8x8 transpose.
  alignas(64) std::uint64_t swap_low[3][8];
  alignas(64) std::uint64_t swap_high[3][8];
  /// The Horner weight P^(kChunkBytes - k) of chunk byte k as four signed
  /// 16-bit limbs (exact mod 2^64): [block][byte parity][limb][word lane]
  /// for k = 64 * block + 2 * lane + parity.
  alignas(64) std::int16_t weight[kBlocks][2][4][32];
  /// P^kChunkBytes: folds one chunk into the running state.
  std::uint64_t chunk_power = 1;

  Tables() {
    for (int j = 0; j < 8; ++j) {
      for (int r = 0; r < 8; ++r) {
        to_planes[8 * j + r] = static_cast<std::uint8_t>(8 * (7 - r) + j);
        from_planes[8 * r + j] = static_cast<std::uint8_t>(8 * (7 - j) + 7 - r);
      }
    }
    for (int stage = 0; stage < 3; ++stage) {
      const int d = 1 << stage;
      for (int q = 0; q < 8; ++q) {
        swap_low[stage][q] = (q & d) == 0 ? q : 8 + q - d;
        swap_high[stage][q] = (q & d) == 0 ? q + d : 8 + q;
      }
    }
    std::uint64_t power = 1;  // P^(kChunkBytes - k), from the last byte back
    for (int k = static_cast<int>(kChunkBytes) - 1; k >= 0; --k) {
      power *= kPrime;
      std::uint64_t rest = power;
      for (int limb = 0; limb < 4; ++limb) {
        const auto w = static_cast<std::int16_t>(rest & 0xffffu);
        weight[k / 64][k % 2][limb][(k % 64) / 2] = w;
        rest = (rest - static_cast<std::uint64_t>(std::int64_t{w})) >> 16;
      }
    }
    chunk_power = power;
  }
};

const Tables& tables() {
  static const Tables t;
  return t;
}

// GCC 12's AVX-512 headers fill don't-care lanes from self-initialized
// locals (_mm512_undefined_*), which -Wall reports once they are inlined.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

#define NUP_CHECKSUM_TARGET                                             \
  __attribute__((target("avx512f,avx512bw,avx512dq,avx512vbmi,"         \
                        "avx512vnni,gfni,vpclmulqdq")))

/// Transposes 8x8 qwords in place: v[i].qword[q] <-> v[q].qword[i].
NUP_CHECKSUM_TARGET inline void transpose8(__m512i* v, const Tables& t) {
  for (int stage = 0; stage < 3; ++stage) {
    const int d = 1 << stage;
    const __m512i low = _mm512_load_si512(t.swap_low[stage]);
    const __m512i high = _mm512_load_si512(t.swap_high[stage]);
    for (int i = 0; i < 8; ++i) {
      if ((i & d) != 0) continue;
      const __m512i a = v[i];
      v[i] = _mm512_permutex2var_epi64(a, low, v[i + d]);
      v[i + d] = _mm512_permutex2var_epi64(a, high, v[i + d]);
    }
  }
}

/// Solves plane J of x in every group. m[g][J] holds bit J of M(x mod 2^J)
/// (planes >= J of M of the planes solved so far); carry is lo's bit J
/// before the chunk (0 or 0xff) and leaves as lo's bit J after it. Adding
/// x_J * (0xb3 << J) to m then makes m ready for the next plane.
template <int J>
NUP_CHECKSUM_TARGET inline void solve_plane(const __m512i (&b)[kGroups][8],
                                            __m512i (&m)[kGroups][8],
                                            __m512i (&x)[kGroups][8],
                                            unsigned* carry) {
  const __m512i ones = _mm512_set1_epi64(-1);
  for (int g = 0; g < kGroups; ++g) {
    // lo's plane flips after every byte where b ^ m is set. The high half
    // of flips * ~0 (carry-less) is, at each bit, the XOR of all higher
    // bits -- the bytes before it; the low half's top bit is the block's
    // parity.
    const __m512i flips = _mm512_xor_si512(b[g][J], m[g][J]);
    const __m512i even = _mm512_clmulepi64_epi128(flips, ones, 0x00);
    const __m512i odd = _mm512_clmulepi64_epi128(flips, ones, 0x01);
    const __m512i before = _mm512_unpackhi_epi64(even, odd);
    const unsigned parity = _cvtmask8_u32(
        _mm512_movepi64_mask(_mm512_unpacklo_epi64(even, odd)));
    unsigned through = parity;  // bit q: parity of blocks 0..q
    through ^= through << 1;
    through ^= through << 2;
    through ^= through << 4;
    const unsigned inverted = ((through << 1) ^ *carry) & 0xffu;
    *carry ^= (through & 0x80u) != 0 ? 0xffu : 0u;
    // x = lo ^ b, lo = carry ^ flips before.
    const __m512i lo_b = _mm512_xor_si512(before, b[g][J]);
    const __m512i xj = _mm512_mask_ternarylogic_epi64(
        lo_b, _cvtu32_mask8(inverted), lo_b, lo_b, 0x0f);  // ~a
    x[g][J] = xj;
    // m += xj * (0xb3 << J), ripple-carry from bit J up; bit J itself is
    // no longer needed.
    __m512i c = _mm512_and_si512(m[g][J], xj);
#pragma GCC unroll 8
    for (int p = J + 1; p < 8; ++p) {
      const __m512i mp = m[g][p];
      if (((0xb3 >> (p - J)) & 1) != 0) {
        m[g][p] = _mm512_ternarylogic_epi64(mp, xj, c, 0x96);  // a ^ b ^ c
        c = _mm512_ternarylogic_epi64(mp, xj, c, 0xe8);        // majority
      } else {
        m[g][p] = _mm512_xor_si512(mp, c);
        c = _mm512_and_si512(mp, c);
      }
    }
  }
}

NUP_CHECKSUM_TARGET std::uint64_t checksum_avx512(const std::uint8_t* bytes,
                                                  std::size_t size) {
  const Tables& t = tables();
  // gf2p8affine(unit, data) transposes each qword's 8x8 bit matrix;
  // reversed_unit does it with the byte order flipped.
  const __m512i unit = _mm512_set1_epi64(0x8040201008040201ll);
  const __m512i reversed_unit = _mm512_set1_epi64(0x0102040810204080ll);
  const __m512i to_planes = _mm512_load_si512(t.to_planes);
  const __m512i from_planes = _mm512_load_si512(t.from_planes);
  const __m512i low_bytes = _mm512_set1_epi16(0xff);

  std::uint64_t h = kOffsetBasis;
  unsigned carry[8];
  for (int j = 0; j < 8; ++j) carry[j] = ((h >> j) & 1u) != 0 ? 0xffu : 0u;
  const std::size_t chunks = size / kChunkBytes;
  for (std::size_t chunk = 0; chunk < chunks; ++chunk) {
    const std::uint8_t* base = bytes + chunk * kChunkBytes;
    __m512i b[kGroups][8];
    __m512i m[kGroups][8];
    __m512i x[kGroups][8];
    for (int g = 0; g < kGroups; ++g) {
      for (int q = 0; q < 8; ++q) {
        const __m512i data = _mm512_loadu_si512(base + 64 * (8 * g + q));
        b[g][q] = _mm512_permutexvar_epi8(
            to_planes, _mm512_gf2p8affine_epi64_epi8(unit, data, 0));
        m[g][q] = _mm512_setzero_si512();
      }
      transpose8(b[g], t);
    }
    [&]<int... J>(std::integer_sequence<int, J...>) {
      (solve_plane<J>(b, m, x, &carry[J]), ...);
    }(std::make_integer_sequence<int, 8>());

    // S = sum_k d_k P^(kChunkBytes - k), one int32 accumulator per weight
    // limb: |lane| <= kBlocks * 2 parities * 2 pairs * 255 * 2^15 < 2^31.
    __m512i acc[4] = {_mm512_setzero_si512(), _mm512_setzero_si512(),
                      _mm512_setzero_si512(), _mm512_setzero_si512()};
    for (int g = 0; g < kGroups; ++g) {
      transpose8(x[g], t);
      for (int q = 0; q < 8; ++q) {
        const int block = 8 * g + q;
        const __m512i xb = _mm512_gf2p8affine_epi64_epi8(
            reversed_unit, _mm512_permutexvar_epi8(from_planes, x[g][q]), 0);
        const __m512i lo = _mm512_xor_si512(
            xb, _mm512_loadu_si512(base + 64 * block));
        const __m512i d[2] = {
            _mm512_sub_epi16(_mm512_and_si512(xb, low_bytes),
                             _mm512_and_si512(lo, low_bytes)),
            _mm512_sub_epi16(_mm512_srli_epi16(xb, 8),
                             _mm512_srli_epi16(lo, 8))};
        for (int parity = 0; parity < 2; ++parity) {
          for (int limb = 0; limb < 4; ++limb) {
            acc[limb] = _mm512_dpwssd_epi32(
                acc[limb], d[parity],
                _mm512_load_si512(t.weight[block][parity][limb]));
          }
        }
      }
    }
    std::uint64_t sum = 0;
    for (int limb = 0; limb < 4; ++limb) {
      const __m512i wide = _mm512_add_epi64(
          _mm512_cvtepi32_epi64(_mm512_castsi512_si256(acc[limb])),
          _mm512_cvtepi32_epi64(_mm512_extracti64x4_epi64(acc[limb], 1)));
      sum += static_cast<std::uint64_t>(_mm512_reduce_add_epi64(wide))
             << (16 * limb);
    }
    h = h * t.chunk_power + sum;
  }
  // h's low byte now equals the carries, so the tail continues serially.
  for (std::size_t i = chunks * kChunkBytes; i < size; ++i) {
    h ^= bytes[i];
    h *= kPrime;
  }
  return h;
}

#undef NUP_CHECKSUM_TARGET

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

#endif  // NUP_HAVE_AVX512_CHECKSUM

}  // namespace

namespace detail {

std::uint64_t output_checksum_serial(const double* values,
                                     std::size_t count) {
  std::uint64_t h = kOffsetBasis;  // FNV-1a offset basis
  for (std::size_t i = 0; i < count; ++i) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &values[i], sizeof(bits));
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (bits >> (byte * 8)) & 0xffu;
      h *= kPrime;  // FNV prime
    }
  }
  return h;
}

bool output_checksum_vector_supported() {
#if NUP_HAVE_AVX512_CHECKSUM
  static const bool supported = __builtin_cpu_supports("avx512f") &&
                                __builtin_cpu_supports("avx512bw") &&
                                __builtin_cpu_supports("avx512dq") &&
                                __builtin_cpu_supports("avx512vbmi") &&
                                __builtin_cpu_supports("avx512vnni") &&
                                __builtin_cpu_supports("gfni") &&
                                __builtin_cpu_supports("vpclmulqdq");
  return supported;
#else
  return false;
#endif
}

std::uint64_t output_checksum_vector(const double* values,
                                     std::size_t count) {
#if NUP_HAVE_AVX512_CHECKSUM
  // x86 is little-endian: memory byte order is the oracle's byte order.
  return checksum_avx512(reinterpret_cast<const std::uint8_t*>(values),
                         count * sizeof(double));
#else
  return output_checksum_serial(values, count);
#endif
}

}  // namespace detail

std::uint64_t output_checksum(const std::vector<double>& outputs) {
  return detail::output_checksum_vector_supported()
             ? detail::output_checksum_vector(outputs.data(), outputs.size())
             : detail::output_checksum_serial(outputs.data(), outputs.size());
}

}  // namespace nup::serve
