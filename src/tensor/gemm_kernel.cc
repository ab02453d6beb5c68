#include "tensor/gemm_kernel.h"

#include <algorithm>

namespace dhgcn {
namespace detail {
namespace {

// The blocked loop nest below is compiled twice on x86 — once with the
// build's baseline ISA and once (via the `target` attribute) with
// AVX+FMA codegen, selected at runtime. `always_inline` forces the whole
// nest, micro-kernel included, into each wrapper so it is re-vectorized
// under that wrapper's target options; an out-of-line copy would silently
// keep baseline codegen.
#if !defined(__GNUC__)
#error "the GEMM kernels need GNU vector extensions (GCC or Clang)"
#endif
#define DHGCN_GEMM_INLINE inline __attribute__((always_inline))

// GNU vector extension for the accumulator tile. This is deliberate: the
// auto-vectorizer alone refuses to register-allocate a kGemmMR x kGemmNR
// float array (it spills the tile to the stack and the kernel runs at
// scalar speed), while vector-typed values are register candidates like
// any other scalar. The types lower to whatever the active target
// provides — SSE pairs in baseline builds, ymm registers in the AVX+FMA
// clone — so no ISA is hard-coded.
// Vectors never cross a (non-inlined) function boundary — passing or
// returning one from baseline-ISA code would change ABI (-Wpsabi).
typedef float V8f __attribute__((vector_size(32), aligned(4), may_alias));

static_assert(kGemmNR == 16, "micro-kernels assume two 8-wide columns");
static_assert(kGemmMR <= 4, "micro-kernels have at most four rows");

// Full-panel register tile: kRows x kGemmNR accumulators held in vector
// registers across the kc-deep reduction slice. `a` is unpacked
// row-major with leading dimension `lda`; `bp` points at the packed
// panel slice for this k block (kGemmNR floats per k step, 64-byte
// aligned rows); `c` is row-major with leading dimension `ldc`. Each C
// row's arithmetic is independent of the other rows in the tile, so the
// per-element rounding sequence depends only on (k, n) — never on how
// callers group rows into tiles or tasks.
// The accumulators are NAMED variables, not an array: GCC's
// scalar-replacement pass runs before loop unrolling, so a
// variable-indexed acc[r][j] tile stays addressable and every FMA gets
// bracketed by a stack spill/reload. Named vectors guarded by
// `if constexpr` are plain register candidates.
template <int kRows>
DHGCN_GEMM_INLINE void MicroKernelTileFull(const float* a, int64_t lda,
                                           const float* bp, int64_t kc,
                                           float* c, int64_t ldc) {
  V8f c00{}, c01{}, c10{}, c11{}, c20{}, c21{}, c30{}, c31{};
  for (int64_t p = 0; p < kc; ++p) {
    const V8f* brow = reinterpret_cast<const V8f*>(bp + p * kGemmNR);
    const V8f b0 = brow[0];
    const V8f b1 = brow[1];
    const float a0 = a[p];  // broadcast by scalar-vector mul
    c00 += b0 * a0;
    c01 += b1 * a0;
    if constexpr (kRows > 1) {
      const float a1 = a[lda + p];
      c10 += b0 * a1;
      c11 += b1 * a1;
    }
    if constexpr (kRows > 2) {
      const float a2 = a[2 * lda + p];
      c20 += b0 * a2;
      c21 += b1 * a2;
    }
    if constexpr (kRows > 3) {
      const float a3 = a[3 * lda + p];
      c30 += b0 * a3;
      c31 += b1 * a3;
    }
  }
  // Explicit stores (a helper taking V8f parameters would re-raise the
  // vector-ABI warning in baseline-ISA code).
  V8f* crow = reinterpret_cast<V8f*>(c);
  crow[0] += c00;
  crow[1] += c01;
  if constexpr (kRows > 1) {
    crow = reinterpret_cast<V8f*>(c + ldc);
    crow[0] += c10;
    crow[1] += c11;
  }
  if constexpr (kRows > 2) {
    crow = reinterpret_cast<V8f*>(c + 2 * ldc);
    crow[0] += c20;
    crow[1] += c21;
  }
  if constexpr (kRows > 3) {
    crow = reinterpret_cast<V8f*>(c + 3 * ldc);
    crow[0] += c30;
    crow[1] += c31;
  }
}

// Partial-panel tile: same loop structure with a column guard on the
// stores. Only the final, zero-padded panel of a product ever takes this
// path, so its (shape-pure) different rounding costs nothing in
// throughput.
template <int kRows>
DHGCN_GEMM_INLINE void MicroKernelTileEdge(const float* a, int64_t lda,
                                           const float* bp, int64_t kc,
                                           float* c, int64_t ldc,
                                           int64_t cols) {
  float acc[kRows][kGemmNR] = {};
  for (int64_t p = 0; p < kc; ++p) {
    const float* brow = bp + p * kGemmNR;
    for (int r = 0; r < kRows; ++r) {
      const float av = a[r * lda + p];
      for (int64_t j = 0; j < kGemmNR; ++j) acc[r][j] += av * brow[j];
    }
  }
  for (int r = 0; r < kRows; ++r) {
    float* crow = c + r * ldc;
    for (int64_t j = 0; j < cols; ++j) crow[j] += acc[r][j];
  }
}

template <int kRows>
DHGCN_GEMM_INLINE void MicroKernelTile(const float* a, int64_t lda,
                                       const float* bp, int64_t kc, float* c,
                                       int64_t ldc, int64_t cols) {
  if (cols == kGemmNR) {
    MicroKernelTileFull<kRows>(a, lda, bp, kc, c, ldc);
    return;
  }
  MicroKernelTileEdge<kRows>(a, lda, bp, kc, c, ldc, cols);
}

// Full blocked nest: k blocks outermost (one packed panel k-slice stays
// L1-resident across the whole row sweep), then panels, then kGemmMR row
// tiles. Every C element receives its k-block partials in ascending-k
// order regardless of the panel/row iteration, so splitting m across
// ParallelFor tasks cannot change any element's accumulation order.
DHGCN_GEMM_INLINE void GemmBlockedImpl(const float* a, const float* bp,
                                       float* c, int64_t m, int64_t k,
                                       int64_t n) {
  const int64_t panels = (n + kGemmNR - 1) / kGemmNR;
  for (int64_t k0 = 0; k0 < k; k0 += kGemmKC) {
    const int64_t kc = std::min(kGemmKC, k - k0);
    for (int64_t panel = 0; panel < panels; ++panel) {
      const int64_t j0 = panel * kGemmNR;
      const int64_t cols = std::min(kGemmNR, n - j0);
      const float* bpk = bp + (panel * k + k0) * kGemmNR;
      for (int64_t i = 0; i < m; i += kGemmMR) {
        const int64_t rows = std::min(kGemmMR, m - i);
        const float* ai = a + i * k + k0;
        float* ci = c + i * n + j0;
        switch (rows) {
          case 4:
            MicroKernelTile<4>(ai, k, bpk, kc, ci, n, cols);
            break;
          case 3:
            MicroKernelTile<3>(ai, k, bpk, kc, ci, n, cols);
            break;
          case 2:
            MicroKernelTile<2>(ai, k, bpk, kc, ci, n, cols);
            break;
          default:
            MicroKernelTile<1>(ai, k, bpk, kc, ci, n, cols);
            break;
        }
      }
    }
  }
}

#if (defined(__x86_64__) || defined(__i386__)) && \
    !(defined(__AVX__) && defined(__FMA__))
#define DHGCN_GEMM_DISPATCH 1
#else
#define DHGCN_GEMM_DISPATCH 0
#endif

#if DHGCN_GEMM_DISPATCH
// Second compilation of the nest with AVX+FMA codegen for baseline-ISA
// builds running on capable CPUs. Which clone runs is fixed per process
// (and both are pure functions of shape), so the determinism contract —
// bit-identical results across thread counts — is unaffected; only
// cross-machine bit-compat varies, which was never promised (the
// baseline build already lets the compiler contract a*b+c per ISA).
__attribute__((target("avx,fma"))) void GemmBlockedAvxFma(const float* a,
                                                          const float* bp,
                                                          float* c, int64_t m,
                                                          int64_t k,
                                                          int64_t n) {
  GemmBlockedImpl(a, bp, c, m, k, n);
}

// Resolved during static initialization (single-threaded), so tasks
// calling the kernel never touch a function-local init guard.
const bool kHaveAvxFma =
    __builtin_cpu_supports("avx") && __builtin_cpu_supports("fma");
#endif

// Vertex mixing, with the GEMM tile's recipe: named accumulators,
// inlined into one wrapper per target. Every block is kMixBlock lanes
// wide; lanes past v meet zero padding and are dropped. Each lane does
// what the scalar loop does to its element, so the bits do not depend
// on the target. Forward, a double lane adds float×float products,
// which are exact in double, so an FMA rounds the same sum as a
// multiply and an add. Backward, a float lane adds rounded float
// products, which must not be fused: that clone enables AVX without
// FMA, because GCC contracts a*b+c whenever the target has FMA.
typedef double V4d __attribute__((vector_size(32), aligned(8), may_alias));

// Packs M as T lanes: block j0 / kMixBlock, at lane j0 * v, holds v rows
// k of kMixBlock lanes j0 + j, set to M[j0 + j, k] when `transpose`,
// else M[k, j0 + j], and zero past v.
template <typename T>
const T* MixPack(const float* m, int64_t v, bool transpose, float* packed) {
  T* p = reinterpret_cast<T*>(packed);
  for (int64_t j0 = 0; j0 < v; j0 += kMixBlock) {
    for (int64_t k = 0; k < v; ++k) {
      for (int64_t j = j0; j < j0 + kMixBlock; ++j) {
        *p++ = j >= v ? T{0} : transpose ? m[j * v + k] : m[k * v + j];
      }
    }
  }
  return reinterpret_cast<const T*>(packed);
}

DHGCN_GEMM_INLINE void MixForwardImpl(const double* mt, const float* x,
                                      float* y, int64_t v, int64_t rows,
                                      int64_t ld) {
  for (int64_t r = 0; r < rows; ++r) {
    const float* xr = x + r * ld;
    for (int64_t j0 = 0; j0 < v; j0 += kMixBlock) {
      const double* mb = mt + j0 * v;
      V4d a0{}, a1{}, a2{}, a3{}, a4{}, a5{}, a6{}, a7{};
      for (int64_t u = 0; u < v; ++u) {
        const V4d* m = reinterpret_cast<const V4d*>(mb + u * kMixBlock);
        const double xu = xr[u];
        a0 += m[0] * xu;
        a1 += m[1] * xu;
        a2 += m[2] * xu;
        a3 += m[3] * xu;
        a4 += m[4] * xu;
        a5 += m[5] * xu;
        a6 += m[6] * xu;
        a7 += m[7] * xu;
      }
      const V4d acc[] = {a0, a1, a2, a3, a4, a5, a6, a7};
      const double* lanes = reinterpret_cast<const double*>(acc);
      float* yr = y + r * ld + j0;
      for (int64_t j = 0; j < std::min(kMixBlock, v - j0); ++j) {
        yr[j] = static_cast<float>(lanes[j]);
      }
    }
  }
}

DHGCN_GEMM_INLINE void MixBackwardImpl(const float* mp, const float* g,
                                       float* gx, int64_t v, int64_t rows,
                                       int64_t ld) {
  for (int64_t r = 0; r < rows; ++r) {
    const float* gr = g + r * ld;
    for (int64_t j0 = 0; j0 < v; j0 += kMixBlock) {
      const float* mb = mp + j0 * v;
      V8f a0{}, a1{}, a2{}, a3{};
      for (int64_t i = 0; i < v; ++i) {
        const float gi = gr[i];
        if (gi == 0.0f) continue;
        const V8f* m = reinterpret_cast<const V8f*>(mb + i * kMixBlock);
        a0 += m[0] * gi;
        a1 += m[1] * gi;
        a2 += m[2] * gi;
        a3 += m[3] * gi;
      }
      const V8f acc[] = {a0, a1, a2, a3};
      const float* lanes = reinterpret_cast<const float*>(acc);
      float* gxr = gx + r * ld + j0;
      for (int64_t j = 0; j < std::min(kMixBlock, v - j0); ++j) {
        gxr[j] = lanes[j];
      }
    }
  }
}

#if DHGCN_GEMM_DISPATCH
__attribute__((target("avx,fma"))) void MixForwardAvxFma(
    const double* mt, const float* x, float* y, int64_t v, int64_t rows,
    int64_t ld) {
  MixForwardImpl(mt, x, y, v, rows, ld);
}

__attribute__((target("avx"))) void MixBackwardAvx(const float* mp,
                                                   const float* g, float* gx,
                                                   int64_t v, int64_t rows,
                                                   int64_t ld) {
  MixBackwardImpl(mp, g, gx, v, rows, ld);
}
#endif

}  // namespace

bool GemmUseBlocked(int64_t m, int64_t k, int64_t n) {
  return m >= kGemmMR && n >= kGemmNR / 2 &&
         m * k * n >= kGemmBlockedMinFlops;
}

int64_t GemmPackedBCount(int64_t k, int64_t n) {
  return (n + kGemmNR - 1) / kGemmNR * kGemmNR * k;
}

void GemmPackB(const float* b, int64_t k, int64_t n, float* bp) {
  const int64_t panels = (n + kGemmNR - 1) / kGemmNR;
  for (int64_t panel = 0; panel < panels; ++panel) {
    const int64_t j0 = panel * kGemmNR;
    const int64_t cols = std::min(kGemmNR, n - j0);
    float* dst = bp + panel * k * kGemmNR;
    for (int64_t p = 0; p < k; ++p) {
      const float* src = b + p * n + j0;
      float* out = dst + p * kGemmNR;
      for (int64_t j = 0; j < cols; ++j) out[j] = src[j];
      for (int64_t j = cols; j < kGemmNR; ++j) out[j] = 0.0f;
    }
  }
}

void GemmPackBTransposed(const float* b, int64_t n, int64_t k, float* bp) {
  const int64_t panels = (n + kGemmNR - 1) / kGemmNR;
  for (int64_t panel = 0; panel < panels; ++panel) {
    const int64_t j0 = panel * kGemmNR;
    const int64_t cols = std::min(kGemmNR, n - j0);
    const float* src = b + j0 * k;
    float* dst = bp + panel * k * kGemmNR;
    // The panel's rows of B stream in step, one cache line each.
    for (int64_t p = 0; p < k; ++p) {
      float* out = dst + p * kGemmNR;
      for (int64_t j = 0; j < cols; ++j) out[j] = src[j * k + p];
      for (int64_t j = cols; j < kGemmNR; ++j) out[j] = 0.0f;
    }
  }
}

void GemmPackTransposed(const float* a, int64_t k, int64_t m, float* at) {
  // Square tiles keep both the strided reads and the contiguous writes
  // cache-resident; the write side (at) is the one the kernel streams.
  constexpr int64_t kBlock = 32;
  for (int64_t i0 = 0; i0 < m; i0 += kBlock) {
    const int64_t i1 = std::min(m, i0 + kBlock);
    for (int64_t p0 = 0; p0 < k; p0 += kBlock) {
      const int64_t p1 = std::min(k, p0 + kBlock);
      for (int64_t i = i0; i < i1; ++i) {
        for (int64_t p = p0; p < p1; ++p) at[i * k + p] = a[p * m + i];
      }
    }
  }
}

void GemmBlockedPackedB(const float* a, const float* bp, float* c, int64_t m,
                        int64_t k, int64_t n) {
#if DHGCN_GEMM_DISPATCH
  if (kHaveAvxFma) {
    GemmBlockedAvxFma(a, bp, c, m, k, n);
    return;
  }
#endif
  GemmBlockedImpl(a, bp, c, m, k, n);
}

void MixForward(const float* m, const float* x, float* y, int64_t v,
                int64_t rows, int64_t ld, float* packed) {
  const double* mt = MixPack<double>(m, v, /*transpose=*/true, packed);
#if DHGCN_GEMM_DISPATCH
  if (kHaveAvxFma) {
    MixForwardAvxFma(mt, x, y, v, rows, ld);
    return;
  }
#endif
  MixForwardImpl(mt, x, y, v, rows, ld);
}

void MixBackward(const float* m, const float* g, float* gx, int64_t v,
                 int64_t rows, int64_t ld, float* packed) {
  const float* mp = MixPack<float>(m, v, /*transpose=*/false, packed);
#if DHGCN_GEMM_DISPATCH
  // Gated with the other clones; every CPU with FMA has AVX.
  if (kHaveAvxFma) {
    MixBackwardAvx(mp, g, gx, v, rows, ld);
    return;
  }
#endif
  MixBackwardImpl(mp, g, gx, v, rows, ld);
}

Workspace& GemmPackScratch() {
  thread_local Workspace scratch;
  return scratch;
}

Workspace& KernelOpScratch() {
  thread_local Workspace scratch;
  return scratch;
}

}  // namespace detail
}  // namespace dhgcn
