#include "tensor/gemm_kernel_int8.h"

#include <algorithm>
#include <cstring>

#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
#define DHGCN_INT8_X86 1
#include <immintrin.h>
#else
#define DHGCN_INT8_X86 0
#endif

namespace dhgcn {
namespace detail {
namespace {

// Mirrors the fp32 kernel's inlining discipline (gemm_kernel.cc): the
// AVX2 helpers are always_inline so the whole nest is code-generated
// under the one target-attributed entry point.
#define DHGCN_INT8_INLINE inline __attribute__((always_inline))

static_assert(kInt8NR == 16, "micro-kernels assume two 8-column vectors");
static_assert(kInt8KStep == 8, "packed groups hold two 4-deep halves");
static_assert(kInt8KC % kInt8KStep == 0, "KC must be whole groups");

/// Bytes in one packed kInt8KStep-deep group of a kInt8NR-wide panel.
constexpr int64_t kGroupBytes = 2 * kInt8NR * 4;

// ---------------------------------------------------------------------------
// Scalar reference nest. Integer arithmetic is exact, so this is
// bit-identical to the AVX2 clone by construction (the clone's
// saturating int16 ops never saturate for |w| <= kInt8WeightMax; see
// the header contract). Reads the same packed layout so zero padding
// is handled identically.
// ---------------------------------------------------------------------------

template <int kRows>
DHGCN_INT8_INLINE void Int8TileScalar(const uint8_t* a, int64_t lda,
                                      const int8_t* bp, int64_t groups,
                                      int32_t* c, int64_t ldc,
                                      int64_t cols) {
  int32_t acc[kRows][kInt8NR] = {};
  for (int64_t g = 0; g < groups; ++g) {
    const int8_t* grp = bp + g * kGroupBytes;
    for (int r = 0; r < kRows; ++r) {
      const uint8_t* ar = a + r * lda + g * kInt8KStep;
      for (int64_t j = 0; j < kInt8NR; ++j) {
        const int8_t* lo = grp + j * 4;
        const int8_t* hi = grp + kInt8NR * 4 + j * 4;
        int32_t sum = 0;
        for (int t = 0; t < 4; ++t) {
          sum += static_cast<int32_t>(ar[t]) * static_cast<int32_t>(lo[t]);
          sum += static_cast<int32_t>(ar[4 + t]) * static_cast<int32_t>(hi[t]);
        }
        acc[r][j] += sum;
      }
    }
  }
  for (int r = 0; r < kRows; ++r) {
    int32_t* crow = c + r * ldc;
    for (int64_t j = 0; j < cols; ++j) crow[j] += acc[r][j];
  }
}

DHGCN_INT8_INLINE void Int8BlockedScalar(const uint8_t* a, int64_t lda,
                                         const int8_t* bp, int32_t* c,
                                         int64_t m, int64_t k_pad,
                                         int64_t n) {
  const int64_t groups_total = k_pad / kInt8KStep;
  const int64_t groups_kc = kInt8KC / kInt8KStep;
  const int64_t panels = (n + kInt8NR - 1) / kInt8NR;
  const int64_t panel_stride = groups_total * kGroupBytes;
  for (int64_t g0 = 0; g0 < groups_total; g0 += groups_kc) {
    const int64_t gc = std::min(groups_kc, groups_total - g0);
    for (int64_t panel = 0; panel < panels; ++panel) {
      const int64_t j0 = panel * kInt8NR;
      const int64_t cols = std::min(kInt8NR, n - j0);
      const int8_t* bpk = bp + panel * panel_stride + g0 * kGroupBytes;
      for (int64_t i = 0; i < m; i += kInt8MR) {
        const int64_t rows = std::min(kInt8MR, m - i);
        const uint8_t* ai = a + i * lda + g0 * kInt8KStep;
        int32_t* ci = c + i * n + j0;
        switch (rows) {
          case 4:
            Int8TileScalar<4>(ai, lda, bpk, gc, ci, n, cols);
            break;
          case 3:
            Int8TileScalar<3>(ai, lda, bpk, gc, ci, n, cols);
            break;
          case 2:
            Int8TileScalar<2>(ai, lda, bpk, gc, ci, n, cols);
            break;
          default:
            Int8TileScalar<1>(ai, lda, bpk, gc, ci, n, cols);
            break;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// AVX2 nest. Compiled only on x86/GNU toolchains; when AVX2 is not the
// build baseline every function carries target("avx2") and is selected
// at runtime (the gemm_kernel.cc dispatch pattern). Per packed group g
// and 8-column vector: two vpmaddubsw (u8 activations x s8 weights, 2
// k-steps per int16 lane), one vpaddsw joining the low/high halves (4
// k-steps per lane, <= 32640 so never saturating), one vpmaddwd against
// ones collapsing to int32 per column, one vpaddd into the accumulator.
// ---------------------------------------------------------------------------

#if DHGCN_INT8_X86
#if defined(__AVX2__)
#define DHGCN_INT8_TARGET
#define DHGCN_INT8_DISPATCH 0
#else
#define DHGCN_INT8_TARGET __attribute__((target("avx2")))
#define DHGCN_INT8_DISPATCH 1
#endif

/// Broadcast 4 consecutive activation bytes into every 32-bit lane
/// (each lane of packed B holds the matching 4 weight bytes of one
/// column).
DHGCN_INT8_TARGET DHGCN_INT8_INLINE __m256i Int8Broadcast4(
    const uint8_t* p) {
  int32_t bits;
  std::memcpy(&bits, p, sizeof(bits));
  return _mm256_set1_epi32(bits);
}

/// One row's contribution for one 8-column vector of the group.
DHGCN_INT8_TARGET DHGCN_INT8_INLINE __m256i Int8DotGroup(
    __m256i a_lo, __m256i a_hi, __m256i b_lo, __m256i b_hi,
    __m256i ones, __m256i acc) {
  const __m256i t = _mm256_maddubs_epi16(a_lo, b_lo);
  const __m256i u = _mm256_maddubs_epi16(a_hi, b_hi);
  const __m256i s = _mm256_adds_epi16(t, u);
  return _mm256_add_epi32(acc, _mm256_madd_epi16(s, ones));
}

// Register tile: kRows x kInt8NR int32 accumulators as NAMED __m256i
// variables (same rationale as the fp32 kernel: an indexed array spills
// to the stack). Budget at kRows = 4: 8 accumulators + 4 B vectors +
// ones + 2 transient A broadcasts = 15 of 16 ymm.
template <int kRows>
DHGCN_INT8_TARGET DHGCN_INT8_INLINE void Int8TileAvx2(
    const uint8_t* a, int64_t lda, const int8_t* bp, int64_t groups,
    int32_t* c, int64_t ldc, int64_t cols) {
  const __m256i ones = _mm256_set1_epi16(1);
  __m256i c00 = _mm256_setzero_si256();
  __m256i c01 = _mm256_setzero_si256();
  __m256i c10 = _mm256_setzero_si256();
  __m256i c11 = _mm256_setzero_si256();
  __m256i c20 = _mm256_setzero_si256();
  __m256i c21 = _mm256_setzero_si256();
  __m256i c30 = _mm256_setzero_si256();
  __m256i c31 = _mm256_setzero_si256();
  for (int64_t g = 0; g < groups; ++g) {
    const int8_t* grp = bp + g * kGroupBytes;
    const __m256i b0_lo =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(grp));
    const __m256i b1_lo =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(grp + 32));
    const __m256i b0_hi =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(grp + 64));
    const __m256i b1_hi =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(grp + 96));
    {
      const uint8_t* ar = a + g * kInt8KStep;
      const __m256i a_lo = Int8Broadcast4(ar);
      const __m256i a_hi = Int8Broadcast4(ar + 4);
      c00 = Int8DotGroup(a_lo, a_hi, b0_lo, b0_hi, ones, c00);
      c01 = Int8DotGroup(a_lo, a_hi, b1_lo, b1_hi, ones, c01);
    }
    if constexpr (kRows > 1) {
      const uint8_t* ar = a + lda + g * kInt8KStep;
      const __m256i a_lo = Int8Broadcast4(ar);
      const __m256i a_hi = Int8Broadcast4(ar + 4);
      c10 = Int8DotGroup(a_lo, a_hi, b0_lo, b0_hi, ones, c10);
      c11 = Int8DotGroup(a_lo, a_hi, b1_lo, b1_hi, ones, c11);
    }
    if constexpr (kRows > 2) {
      const uint8_t* ar = a + 2 * lda + g * kInt8KStep;
      const __m256i a_lo = Int8Broadcast4(ar);
      const __m256i a_hi = Int8Broadcast4(ar + 4);
      c20 = Int8DotGroup(a_lo, a_hi, b0_lo, b0_hi, ones, c20);
      c21 = Int8DotGroup(a_lo, a_hi, b1_lo, b1_hi, ones, c21);
    }
    if constexpr (kRows > 3) {
      const uint8_t* ar = a + 3 * lda + g * kInt8KStep;
      const __m256i a_lo = Int8Broadcast4(ar);
      const __m256i a_hi = Int8Broadcast4(ar + 4);
      c30 = Int8DotGroup(a_lo, a_hi, b0_lo, b0_hi, ones, c30);
      c31 = Int8DotGroup(a_lo, a_hi, b1_lo, b1_hi, ones, c31);
    }
  }
  if (cols == kInt8NR) {
    // Full panel: read-modify-write C directly.
    __m256i* crow = reinterpret_cast<__m256i*>(c);
    _mm256_storeu_si256(
        crow, _mm256_add_epi32(_mm256_loadu_si256(crow), c00));
    _mm256_storeu_si256(
        crow + 1, _mm256_add_epi32(_mm256_loadu_si256(crow + 1), c01));
    if constexpr (kRows > 1) {
      crow = reinterpret_cast<__m256i*>(c + ldc);
      _mm256_storeu_si256(
          crow, _mm256_add_epi32(_mm256_loadu_si256(crow), c10));
      _mm256_storeu_si256(
          crow + 1, _mm256_add_epi32(_mm256_loadu_si256(crow + 1), c11));
    }
    if constexpr (kRows > 2) {
      crow = reinterpret_cast<__m256i*>(c + 2 * ldc);
      _mm256_storeu_si256(
          crow, _mm256_add_epi32(_mm256_loadu_si256(crow), c20));
      _mm256_storeu_si256(
          crow + 1, _mm256_add_epi32(_mm256_loadu_si256(crow + 1), c21));
    }
    if constexpr (kRows > 3) {
      crow = reinterpret_cast<__m256i*>(c + 3 * ldc);
      _mm256_storeu_si256(
          crow, _mm256_add_epi32(_mm256_loadu_si256(crow), c30));
      _mm256_storeu_si256(
          crow + 1, _mm256_add_epi32(_mm256_loadu_si256(crow + 1), c31));
    }
    return;
  }
  // Edge panel (B columns are zero-padded, so the full-width compute
  // above is exact): bounce through a stack tile to avoid writing past
  // the live columns of C.
  alignas(32) int32_t tmp[kRows][kInt8NR];
  _mm256_store_si256(reinterpret_cast<__m256i*>(&tmp[0][0]), c00);
  _mm256_store_si256(reinterpret_cast<__m256i*>(&tmp[0][8]), c01);
  if constexpr (kRows > 1) {
    _mm256_store_si256(reinterpret_cast<__m256i*>(&tmp[1][0]), c10);
    _mm256_store_si256(reinterpret_cast<__m256i*>(&tmp[1][8]), c11);
  }
  if constexpr (kRows > 2) {
    _mm256_store_si256(reinterpret_cast<__m256i*>(&tmp[2][0]), c20);
    _mm256_store_si256(reinterpret_cast<__m256i*>(&tmp[2][8]), c21);
  }
  if constexpr (kRows > 3) {
    _mm256_store_si256(reinterpret_cast<__m256i*>(&tmp[3][0]), c30);
    _mm256_store_si256(reinterpret_cast<__m256i*>(&tmp[3][8]), c31);
  }
  for (int r = 0; r < kRows; ++r) {
    int32_t* crow = c + r * ldc;
    for (int64_t j = 0; j < cols; ++j) crow[j] += tmp[r][j];
  }
}

DHGCN_INT8_TARGET void Int8BlockedAvx2(const uint8_t* a, int64_t lda,
                                       const int8_t* bp, int32_t* c,
                                       int64_t m, int64_t k_pad,
                                       int64_t n) {
  const int64_t groups_total = k_pad / kInt8KStep;
  const int64_t groups_kc = kInt8KC / kInt8KStep;
  const int64_t panels = (n + kInt8NR - 1) / kInt8NR;
  const int64_t panel_stride = groups_total * kGroupBytes;
  for (int64_t g0 = 0; g0 < groups_total; g0 += groups_kc) {
    const int64_t gc = std::min(groups_kc, groups_total - g0);
    for (int64_t panel = 0; panel < panels; ++panel) {
      const int64_t j0 = panel * kInt8NR;
      const int64_t cols = std::min(kInt8NR, n - j0);
      const int8_t* bpk = bp + panel * panel_stride + g0 * kGroupBytes;
      for (int64_t i = 0; i < m; i += kInt8MR) {
        const int64_t rows = std::min(kInt8MR, m - i);
        const uint8_t* ai = a + i * lda + g0 * kInt8KStep;
        int32_t* ci = c + i * n + j0;
        switch (rows) {
          case 4:
            Int8TileAvx2<4>(ai, lda, bpk, gc, ci, n, cols);
            break;
          case 3:
            Int8TileAvx2<3>(ai, lda, bpk, gc, ci, n, cols);
            break;
          case 2:
            Int8TileAvx2<2>(ai, lda, bpk, gc, ci, n, cols);
            break;
          default:
            Int8TileAvx2<1>(ai, lda, bpk, gc, ci, n, cols);
            break;
        }
      }
    }
  }
}

#if DHGCN_INT8_DISPATCH
// Resolved during static initialization (single-threaded), so tasks
// calling the kernel never touch a function-local init guard.
const bool kHaveAvx2 = __builtin_cpu_supports("avx2");
#else
constexpr bool kHaveAvx2 = true;
#endif
#endif  // DHGCN_INT8_X86

// ---------------------------------------------------------------------------
// Activation quantization (the u8 feeder of the GEMM). Adding 2^23 +
// 2^22 to a float in clamp range forces the significand to integer
// granularity with the FPU's round-to-nearest-even, and the rounded
// integer sits in the low significand bits; subtracting the magic
// constant's bit pattern (pre-biased by -128 so the zero point comes
// for free) recovers q directly. Both paths run the identical
// elementwise op sequence, so scalar and AVX2 agree bit for bit.
// ---------------------------------------------------------------------------

constexpr float kRoundMagic = 12582912.0f;  // 2^23 + 2^22
// bit_cast(r + magic) == bit_cast(magic) + round(r) for |r| < 2^21, so
// subtracting (bit_cast(magic) - 128) yields round(r) + 128 in one op.
const int32_t kQuantBias = [] {
  int32_t bits;
  std::memcpy(&bits, &kRoundMagic, sizeof(bits));
  return bits - 128;
}();

void Int8QuantizeRowScalar(const float* x, int64_t n, float inv,
                           uint8_t* q) {
  for (int64_t i = 0; i < n; ++i) {
    float r = x[i] * inv;
    // Clamps in exact vmaxps/vminps operand order: NaN fails the first
    // compare and clamps low, matching the AVX2 clone.
    r = (r > -127.0f) ? r : -127.0f;
    r = (r < 127.0f) ? r : 127.0f;
    const float biased = r + kRoundMagic;
    int32_t bits;
    std::memcpy(&bits, &biased, sizeof(bits));
    q[i] = static_cast<uint8_t>(bits - kQuantBias);
  }
}

#if DHGCN_INT8_X86
DHGCN_INT8_TARGET void Int8QuantizeRowAvx2(const float* x, int64_t n,
                                           float inv, uint8_t* q) {
  const __m256 vinv = _mm256_set1_ps(inv);
  const __m256 vlo = _mm256_set1_ps(-127.0f);
  const __m256 vhi = _mm256_set1_ps(127.0f);
  const __m256 vmagic = _mm256_set1_ps(kRoundMagic);
  const __m256i vbias = _mm256_set1_epi32(kQuantBias);
  // Undo the lane-crossing of the two pack steps below.
  const __m256i order = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
  int64_t i = 0;
  for (; i + 32 <= n; i += 32) {
    __m256i w[4];
    for (int t = 0; t < 4; ++t) {
      __m256 r = _mm256_mul_ps(_mm256_loadu_ps(x + i + 8 * t), vinv);
      r = _mm256_max_ps(r, vlo);  // NaN -> -127 (vmaxps returns src2)
      r = _mm256_min_ps(r, vhi);
      r = _mm256_add_ps(r, vmagic);
      w[t] = _mm256_sub_epi32(_mm256_castps_si256(r), vbias);
    }
    // q values are in [1, 255]: two unsigned-saturating packs narrow
    // int32 -> u8 without clipping, then one permute fixes dword order.
    const __m256i p01 = _mm256_packus_epi32(w[0], w[1]);
    const __m256i p23 = _mm256_packus_epi32(w[2], w[3]);
    __m256i p = _mm256_packus_epi16(p01, p23);
    p = _mm256_permutevar8x32_epi32(p, order);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(q + i), p);
  }
  if (i < n) Int8QuantizeRowScalar(x + i, n - i, inv, q + i);
}
#endif  // DHGCN_INT8_X86

// ---------------------------------------------------------------------------
// Blocked u8 transpose (the im2col feeder of width-1 conv kernels).
// SSE2 is x86-64 baseline, so the 16x16 tile needs no runtime dispatch:
// four perfect-shuffle stages (epi8/16/32/64 unpacks with doubling pair
// distance) leave the transposed rows in bit-reversed order, undone by
// the store index table.
// ---------------------------------------------------------------------------

void Int8TransposeScalarBlock(const uint8_t* src, int64_t src_stride,
                              uint8_t* dst, int64_t dst_stride,
                              int64_t rows, int64_t cols) {
  for (int64_t i = 0; i < rows; ++i) {
    const uint8_t* srow = src + i * src_stride;
    for (int64_t j = 0; j < cols; ++j) {
      dst[j * dst_stride + i] = srow[j];
    }
  }
}

#if DHGCN_INT8_X86
DHGCN_INT8_INLINE void Int8TransposeTile16(const uint8_t* src, int64_t ss,
                                           uint8_t* dst, int64_t ds) {
  __m128i v[16], t[16];
  for (int i = 0; i < 16; ++i) {
    v[i] = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i * ss));
  }
  for (int g = 0; g < 16; g += 2) {  // d=1, bytes
    t[g] = _mm_unpacklo_epi8(v[g], v[g + 1]);
    t[g + 1] = _mm_unpackhi_epi8(v[g], v[g + 1]);
  }
  for (int g = 0; g < 16; g += 4) {  // d=2, words
    for (int j = 0; j < 2; ++j) {
      v[g + j] = _mm_unpacklo_epi16(t[g + j], t[g + j + 2]);
      v[g + j + 2] = _mm_unpackhi_epi16(t[g + j], t[g + j + 2]);
    }
  }
  for (int g = 0; g < 16; g += 8) {  // d=4, dwords
    for (int j = 0; j < 4; ++j) {
      t[g + j] = _mm_unpacklo_epi32(v[g + j], v[g + j + 4]);
      t[g + j + 4] = _mm_unpackhi_epi32(v[g + j], v[g + j + 4]);
    }
  }
  for (int j = 0; j < 8; ++j) {  // d=8, qwords
    v[j] = _mm_unpacklo_epi64(t[j], t[j + 8]);
    v[j + 8] = _mm_unpackhi_epi64(t[j], t[j + 8]);
  }
  static constexpr int kRev[16] = {0, 8, 4, 12, 2, 10, 6, 14,
                                   1, 9, 5, 13, 3, 11, 7, 15};
  for (int i = 0; i < 16; ++i) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + kRev[i] * ds), v[i]);
  }
}
#endif  // DHGCN_INT8_X86

}  // namespace

int64_t Int8PackedBCount(int64_t k, int64_t n) {
  return (n + kInt8NR - 1) / kInt8NR * kInt8NR * Int8KPad(k);
}

void Int8PackB(const int8_t* b, int64_t k, int64_t n, int8_t* bp) {
  const int64_t k_pad = Int8KPad(k);
  const int64_t groups = k_pad / kInt8KStep;
  const int64_t panels = (n + kInt8NR - 1) / kInt8NR;
  for (int64_t panel = 0; panel < panels; ++panel) {
    const int64_t j0 = panel * kInt8NR;
    const int64_t cols = std::min(kInt8NR, n - j0);
    int8_t* dst = bp + panel * groups * kGroupBytes;
    for (int64_t g = 0; g < groups; ++g) {
      int8_t* grp = dst + g * kGroupBytes;
      for (int half = 0; half < 2; ++half) {
        for (int64_t j = 0; j < kInt8NR; ++j) {
          for (int64_t t = 0; t < 4; ++t) {
            const int64_t kk = g * kInt8KStep + half * 4 + t;
            grp[half * kInt8NR * 4 + j * 4 + t] =
                (j < cols && kk < k) ? b[kk * n + j0 + j] : int8_t{0};
          }
        }
      }
    }
  }
}

void Int8PackColumnSums(const int8_t* b, int64_t k, int64_t n,
                        int32_t* sums) {
  for (int64_t j = 0; j < n; ++j) sums[j] = 0;
  for (int64_t p = 0; p < k; ++p) {
    const int8_t* row = b + p * n;
    for (int64_t j = 0; j < n; ++j) sums[j] += row[j];
  }
}

void Int8GemmPackedB(const uint8_t* a, int64_t lda, const int8_t* bp,
                     int32_t* c, int64_t m, int64_t k_pad, int64_t n) {
  std::fill(c, c + m * n, 0);
#if DHGCN_INT8_X86
  if (kHaveAvx2) {
    Int8BlockedAvx2(a, lda, bp, c, m, k_pad, n);
    return;
  }
#endif
  Int8BlockedScalar(a, lda, bp, c, m, k_pad, n);
}

bool Int8GemmHasAvx2() {
#if DHGCN_INT8_X86
  return kHaveAvx2;
#else
  return false;
#endif
}

void Int8QuantizeRow(const float* x, int64_t n, float inv_scale,
                     uint8_t* q) {
#if DHGCN_INT8_X86
  if (kHaveAvx2) {
    Int8QuantizeRowAvx2(x, n, inv_scale, q);
    return;
  }
#endif
  Int8QuantizeRowScalar(x, n, inv_scale, q);
}

void Int8TransposeU8(const uint8_t* src, int64_t src_stride, int64_t rows,
                     int64_t cols, uint8_t* dst, int64_t dst_stride) {
#if DHGCN_INT8_X86
  int64_t i = 0;
  for (; i + 16 <= rows; i += 16) {
    const uint8_t* sblk = src + i * src_stride;
    int64_t j = 0;
    for (; j + 16 <= cols; j += 16) {
      Int8TransposeTile16(sblk + j, src_stride, dst + j * dst_stride + i,
                          dst_stride);
    }
    if (j < cols) {
      Int8TransposeScalarBlock(sblk + j, src_stride, dst + j * dst_stride + i,
                               dst_stride, 16, cols - j);
    }
  }
  if (i < rows) {
    Int8TransposeScalarBlock(src + i * src_stride, src_stride, dst + i,
                             dst_stride, rows - i, cols);
  }
#else
  Int8TransposeScalarBlock(src, src_stride, dst, dst_stride, rows, cols);
#endif
}

}  // namespace detail
}  // namespace dhgcn
