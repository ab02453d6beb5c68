#include "nn/conv2d.h"

#include <algorithm>

#include "base/string_util.h"
#include "base/thread_pool.h"
#include "nn/initializer.h"
#include "plan/plan_builder.h"
#include "tensor/gemm_kernel.h"
#include "tensor/linalg.h"
#include "tensor/tensor_ops.h"
#include "tensor/workspace.h"

namespace dhgcn {

namespace {

using detail::kGemmMR;

/// Lowers one batch's (C, H, W) input into the (C*KH*KW, OH*OW) column
/// matrix: row r = (ic, ky, kx) holds that tap's value for every output
/// position, with out-of-bounds (padding) taps written as zero. Rows are
/// independent, so the parallel split is trivially deterministic.
void Im2Col(const float* x, int64_t h, int64_t w, const Conv2dOptions& o,
            int64_t in_channels, int64_t oh, int64_t ow, float* col) {
  const int64_t kk = o.kernel_h * o.kernel_w;
  const int64_t out_plane = oh * ow;
  ThreadPool::Get().ParallelFor(
      0, in_channels * kk, GrainForFlops(out_plane),
      [&](int64_t r0, int64_t r1) {
        for (int64_t r = r0; r < r1; ++r) {
          const int64_t ic = r / kk;
          const int64_t ky = (r % kk) / o.kernel_w;
          const int64_t kx = r % o.kernel_w;
          const float* xplane = x + ic * h * w;
          float* crow = col + r * out_plane;
          for (int64_t oy = 0; oy < oh; ++oy) {
            const int64_t iy = oy * o.stride_h - o.pad_h + ky * o.dilation_h;
            float* cout = crow + oy * ow;
            if (iy < 0 || iy >= h) {
              for (int64_t ox = 0; ox < ow; ++ox) cout[ox] = 0.0f;
              continue;
            }
            const float* xrow = xplane + iy * w;
            for (int64_t ox = 0; ox < ow; ++ox) {
              const int64_t ix = ox * o.stride_w - o.pad_w + kx * o.dilation_w;
              cout[ox] = (ix < 0 || ix >= w) ? 0.0f : xrow[ix];
            }
          }
        }
      });
}

/// Adjoint of Im2Col: scatters the (C*KH*KW, OH*OW) column gradient back
/// into the (C, H, W) input gradient with `+=`. Parallel over input
/// channels — each channel's kk rows and (h, w) plane belong to exactly
/// one chunk, and taps are applied in ascending (ky, kx, oy, ox) order,
/// so the result is bit-identical for every thread count.
void Col2Im(const float* col, int64_t h, int64_t w, const Conv2dOptions& o,
            int64_t in_channels, int64_t oh, int64_t ow, float* gx) {
  const int64_t kk = o.kernel_h * o.kernel_w;
  const int64_t out_plane = oh * ow;
  ThreadPool::Get().ParallelFor(
      0, in_channels, GrainForFlops(kk * out_plane),
      [&](int64_t c0, int64_t c1) {
        for (int64_t ic = c0; ic < c1; ++ic) {
          float* gplane = gx + ic * h * w;
          for (int64_t ky = 0; ky < o.kernel_h; ++ky) {
            for (int64_t kx = 0; kx < o.kernel_w; ++kx) {
              const float* crow =
                  col + ((ic * o.kernel_h + ky) * o.kernel_w + kx) * out_plane;
              for (int64_t oy = 0; oy < oh; ++oy) {
                const int64_t iy =
                    oy * o.stride_h - o.pad_h + ky * o.dilation_h;
                if (iy < 0 || iy >= h) continue;
                float* grow = gplane + iy * w;
                const float* cin = crow + oy * ow;
                for (int64_t ox = 0; ox < ow; ++ox) {
                  const int64_t ix =
                      ox * o.stride_w - o.pad_w + kx * o.dilation_w;
                  if (ix < 0 || ix >= w) continue;
                  grow[ix] += cin[ox];
                }
              }
            }
          }
        }
      });
}

/// out_rows (rows m0..m1 of an (m, n) product) = bias ⊕ A B for packed
/// B: initializes each owned row to its bias (or zero) and lets the
/// blocked kernel accumulate on top. Used inside a ParallelFor over
/// kGemmMR-aligned row blocks.
void BiasedBlockedRows(const float* a, const float* bp, const float* bias,
                       float* c, int64_t m0, int64_t m1, int64_t k,
                       int64_t n) {
  for (int64_t r = m0; r < m1; ++r) {
    const float bias_v = bias != nullptr ? bias[r] : 0.0f;
    float* crow = c + r * n;
    for (int64_t j = 0; j < n; ++j) crow[j] = bias_v;
  }
  detail::GemmBlockedPackedB(a + m0 * k, bp, c + m0 * n, m1 - m0, k, n);
}

}  // namespace

Conv2d::Conv2d(int64_t in_channels, int64_t out_channels,
               const Conv2dOptions& options, Rng& rng)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      options_(options),
      weight_({out_channels, in_channels, options.kernel_h, options.kernel_w}),
      weight_grad_(weight_.shape()),
      bias_({out_channels}),
      bias_grad_({out_channels}) {
  DHGCN_CHECK_GT(in_channels, 0);
  DHGCN_CHECK_GT(out_channels, 0);
  DHGCN_CHECK_GT(options.kernel_h, 0);
  DHGCN_CHECK_GT(options.kernel_w, 0);
  DHGCN_CHECK_GT(options.stride_h, 0);
  DHGCN_CHECK_GT(options.stride_w, 0);
  DHGCN_CHECK_GT(options.dilation_h, 0);
  DHGCN_CHECK_GT(options.dilation_w, 0);
  int64_t fan_in = in_channels * options.kernel_h * options.kernel_w;
  KaimingUniform(weight_, fan_in, rng);
  if (options.has_bias) BiasUniform(bias_, fan_in, rng);
}

int64_t Conv2d::OutputDim(int64_t in, int64_t kernel, int64_t stride,
                          int64_t pad, int64_t dilation) {
  int64_t effective = dilation * (kernel - 1) + 1;
  int64_t out = (in + 2 * pad - effective) / stride + 1;
  DHGCN_CHECK_GT(out, 0);
  return out;
}

bool Conv2d::IsPointwise() const {
  const Conv2dOptions& o = options_;
  return o.kernel_h == 1 && o.kernel_w == 1 && o.stride_h == 1 &&
         o.stride_w == 1 && o.pad_h == 0 && o.pad_w == 0;
}

Tensor Conv2d::ForwardImpl(const Tensor& input, Workspace* ws) {
  DHGCN_CHECK_EQ(input.ndim(), 4);
  DHGCN_CHECK_EQ(input.dim(1), in_channels_);
  cached_input_ = input;
  const Conv2dOptions& o = options_;
  int64_t n = input.dim(0), h = input.dim(2), w = input.dim(3);
  int64_t oh = OutputDim(h, o.kernel_h, o.stride_h, o.pad_h, o.dilation_h);
  int64_t ow = OutputDim(w, o.kernel_w, o.stride_w, o.pad_w, o.dilation_w);
  Tensor out = NewTensor(ws, {n, out_channels_, oh, ow});
  RunForward(input, weight_.data(), o.has_bias ? bias_.data() : nullptr, oh,
             ow, &out);
  return out;
}

void Conv2d::ForwardPlan(const Tensor& input, const Tensor* weight,
                         const Tensor* bias, Tensor* out) const {
  DHGCN_CHECK(out != nullptr);
  DHGCN_CHECK_EQ(input.ndim(), 4);
  DHGCN_CHECK_EQ(input.dim(1), in_channels_);
  const Conv2dOptions& o = options_;
  int64_t oh = OutputDim(input.dim(2), o.kernel_h, o.stride_h, o.pad_h,
                         o.dilation_h);
  int64_t ow = OutputDim(input.dim(3), o.kernel_w, o.stride_w, o.pad_w,
                         o.dilation_w);
  DHGCN_CHECK(ShapesEqual(out->shape(),
                          Shape{input.dim(0), out_channels_, oh, ow}));
  const float* pw = weight != nullptr ? weight->data() : weight_.data();
  const float* pb = nullptr;
  if (bias != nullptr) {
    pb = bias->data();
  } else if (o.has_bias) {
    pb = bias_.data();
  }
  RunForward(input, pw, pb, oh, ow, out);
}

void Conv2d::RunForward(const Tensor& input, const float* pw,
                        const float* pb, int64_t oh, int64_t ow,
                        Tensor* out) const {
  if (IsPointwise()) {
    RunPointwise(input, pw, pb, out);
    return;
  }
  RunIm2col(input, pw, pb, oh, ow, out);
}

void Conv2d::RunPointwise(const Tensor& input, const float* pw,
                          const float* pb, Tensor* out) const {
  const float* px = input.data();
  int64_t n = input.dim(0);
  int64_t plane = input.dim(2) * input.dim(3);
  float* po = out->data();
  if (detail::GemmUseBlocked(out_channels_, in_channels_, plane)) {
    // out_b = bias ⊕ W x_b through the blocked kernel: pack each
    // batch's (C_in, HW) activation once, then hand out kGemmMR
    // out-channel tiles. Batches run serially (ascending), so chunk
    // boundaries stay a pure function of shape.
    Workspace& scratch = detail::KernelOpScratch();
    Tensor xp =
        scratch.Acquire({detail::GemmPackedBCount(in_channels_, plane)});
    float* pxp = xp.data();
    const int64_t row_blocks = (out_channels_ + kGemmMR - 1) / kGemmMR;
    for (int64_t b = 0; b < n; ++b) {
      detail::GemmPackB(px + b * in_channels_ * plane, in_channels_, plane,
                        pxp);
      float* pob = po + b * out_channels_ * plane;
      ThreadPool::Get().ParallelFor(
          0, row_blocks,
          GrainForFlopsTarget(kGemmMR * in_channels_ * plane,
                              detail::kGemmChunkFlops),
          [&](int64_t t0, int64_t t1) {
            const int64_t r0 = t0 * kGemmMR;
            const int64_t r1 = std::min(out_channels_, t1 * kGemmMR);
            BiasedBlockedRows(pw, pxp, pb, pob, r0, r1, in_channels_,
                              plane);
          });
    }
    scratch.Reset();
    return;
  }
  // out_b (C_out, HW) = W (C_out, C_in) x_b (C_in, HW), per batch.
  // Parallel over the n * C_out output rows: each row is zeroed, then
  // one serial Gemm row (ascending ic) plus its bias add, so the
  // per-element accumulation order matches the serial per-batch Gemm.
  ThreadPool::Get().ParallelFor(
      0, n * out_channels_, GrainForFlops(in_channels_ * plane),
      [&](int64_t r0, int64_t r1) {
        for (int64_t r = r0; r < r1; ++r) {
          int64_t b = r / out_channels_;
          int64_t oc = r % out_channels_;
          float* orow = po + r * plane;
          for (int64_t i = 0; i < plane; ++i) orow[i] = 0.0f;
          detail::GemmAccumulate(pw + oc * in_channels_,
                                 px + b * in_channels_ * plane, orow, 1,
                                 in_channels_, plane);
          if (pb != nullptr) {
            float bias_v = pb[oc];
            for (int64_t i = 0; i < plane; ++i) orow[i] += bias_v;
          }
        }
      });
}

void Conv2d::RunIm2col(const Tensor& input, const float* pw, const float* pb,
                       int64_t oh, int64_t ow, Tensor* out) const {
  const Conv2dOptions& o = options_;
  int64_t n = input.dim(0), h = input.dim(2), w = input.dim(3);
  const int64_t out_plane = oh * ow;
  const int64_t ckk = in_channels_ * o.kernel_h * o.kernel_w;
  const float* px = input.data();
  float* po = out->data();
  Workspace& scratch = detail::KernelOpScratch();
  Tensor col = scratch.Acquire({ckk, out_plane});
  Tensor colp = scratch.Acquire({detail::GemmPackedBCount(ckk, out_plane)});
  float* pcol = col.data();
  float* pcolp = colp.data();
  const int64_t row_blocks = (out_channels_ + kGemmMR - 1) / kGemmMR;
  for (int64_t b = 0; b < n; ++b) {
    Im2Col(px + b * in_channels_ * h * w, h, w, o, in_channels_, oh, ow,
           pcol);
    detail::GemmPackB(pcol, ckk, out_plane, pcolp);
    float* pob = po + b * out_channels_ * out_plane;
    ThreadPool::Get().ParallelFor(
        0, row_blocks,
        GrainForFlopsTarget(kGemmMR * ckk * out_plane,
                            detail::kGemmChunkFlops),
        [&](int64_t t0, int64_t t1) {
          const int64_t r0 = t0 * kGemmMR;
          const int64_t r1 = std::min(out_channels_, t1 * kGemmMR);
          BiasedBlockedRows(pw, pcolp, pb, pob, r0, r1, ckk, out_plane);
        });
  }
  scratch.Reset();
}

Tensor Conv2d::BackwardImpl(const Tensor& grad_output, Workspace* ws) {
  const Conv2dOptions& o = options_;
  const Tensor& input = cached_input_;
  int64_t n = input.dim(0), h = input.dim(2), w = input.dim(3);
  DHGCN_CHECK(ShapesEqual(
      grad_output.shape(),
      Shape{n, out_channels_,
            OutputDim(h, o.kernel_h, o.stride_h, o.pad_h, o.dilation_h),
            OutputDim(w, o.kernel_w, o.stride_w, o.pad_w, o.dilation_w)}));

  if (IsPointwise()) {
    // dX_b = W^T g_b; dW += g_b x_b^T (per batch, transposed GEMMs — no
    // scratch product tensors). Each phase's chunks write disjoint
    // outputs: grad_input is in-channel- or batch-parallel, the weight
    // gradient takes out-channel row blocks of the blocked kernel, one
    // batch at a time in ascending order, and the bias gradient is
    // out-channel-parallel.
    Tensor grad_input = NewZeroedTensor(ws, input.shape());
    const float* px = input.data();
    const float* pg = grad_output.data();
    float* pgi = grad_input.data();
    int64_t plane = h * w;
    Tensor weight_2d = weight_.Reshape({out_channels_, in_channels_});
    const float* pw2 = weight_2d.data();
    if (detail::GemmUseBlocked(in_channels_, out_channels_, plane)) {
      // dX_b = W^T g_b through the blocked kernel: transpose-pack W once,
      // pack each batch's gradient, tile over in-channels. grad_input is
      // zero-initialized, so the accumulate-only kernel lands the result
      // directly.
      Workspace& scratch = detail::KernelOpScratch();
      Tensor wt = scratch.Acquire({in_channels_, out_channels_});
      Tensor gp =
          scratch.Acquire({detail::GemmPackedBCount(out_channels_, plane)});
      float* pwt = wt.data();
      float* pgp = gp.data();
      detail::GemmPackTransposed(pw2, out_channels_, in_channels_, pwt);
      const int64_t row_blocks = (in_channels_ + kGemmMR - 1) / kGemmMR;
      for (int64_t b = 0; b < n; ++b) {
        detail::GemmPackB(pg + b * out_channels_ * plane, out_channels_,
                          plane, pgp);
        float* pgib = pgi + b * in_channels_ * plane;
        ThreadPool::Get().ParallelFor(
            0, row_blocks,
            GrainForFlopsTarget(kGemmMR * out_channels_ * plane,
                                detail::kGemmChunkFlops),
            [&](int64_t t0, int64_t t1) {
              const int64_t r0 = t0 * kGemmMR;
              const int64_t r1 = std::min(in_channels_, t1 * kGemmMR);
              detail::GemmBlockedPackedB(pwt + r0 * out_channels_, pgp,
                                         pgib + r0 * plane, r1 - r0,
                                         out_channels_, plane);
            });
      }
      scratch.Reset();
    } else {
      ThreadPool::Get().ParallelFor(
          0, n, GrainForFlops(out_channels_ * in_channels_ * plane),
          [&](int64_t b0, int64_t b1) {
            for (int64_t b = b0; b < b1; ++b) {
              detail::GemmTransposedAAccumulate(
                  pw2, pg + b * out_channels_ * plane,
                  pgi + b * in_channels_ * plane, out_channels_, in_channels_,
                  plane);
            }
          });
    }
    for (int64_t b = 0; b < n; ++b) {
      detail::GemmTransposedBBlocked(
          pg + b * out_channels_ * plane, px + b * in_channels_ * plane,
          weight_grad_.data(), out_channels_, plane, in_channels_);
    }
    if (o.has_bias) {
      float* pbg = bias_grad_.data();
      ThreadPool::Get().ParallelFor(
          0, out_channels_, GrainForFlops(n * plane),
          [&](int64_t o0, int64_t o1) {
            for (int64_t oc = o0; oc < o1; ++oc) {
              double acc = 0.0;
              for (int64_t b = 0; b < n; ++b) {
                const float* gplane = pg + (b * out_channels_ + oc) * plane;
                for (int64_t i = 0; i < plane; ++i) acc += gplane[i];
              }
              pbg[oc] += static_cast<float>(acc);
            }
          });
    }
    return grad_input;
  }

  return BackwardIm2col(grad_output, ws);
}

Tensor Conv2d::BackwardIm2col(const Tensor& grad_output, Workspace* ws) {
  const Conv2dOptions& o = options_;
  const Tensor& input = cached_input_;
  int64_t n = input.dim(0), h = input.dim(2), w = input.dim(3);
  int64_t oh = grad_output.dim(2), ow = grad_output.dim(3);
  const int64_t out_plane = oh * ow;
  const int64_t ckk = in_channels_ * o.kernel_h * o.kernel_w;
  Tensor grad_input = NewZeroedTensor(ws, input.shape());
  const float* px = input.data();
  const float* pw = weight_.data();  // (C_out, ckk) row-major
  const float* pg = grad_output.data();
  float* pgi = grad_input.data();
  float* pgw = weight_grad_.data();

  Workspace& scratch = detail::KernelOpScratch();
  Tensor col = scratch.Acquire({ckk, out_plane});
  Tensor dcol = scratch.Acquire({ckk, out_plane});
  Tensor wt = scratch.Acquire({ckk, out_channels_});
  Tensor gp =
      scratch.Acquire({detail::GemmPackedBCount(out_channels_, out_plane)});
  float* pcol = col.data();
  float* pdcol = dcol.data();
  float* pwt = wt.data();
  float* pgp = gp.data();
  detail::GemmPackTransposed(pw, out_channels_, ckk, pwt);

  const int64_t row_blocks = (ckk + kGemmMR - 1) / kGemmMR;
  for (int64_t b = 0; b < n; ++b) {
    const float* pgb = pg + b * out_channels_ * out_plane;
    // dW += g_b col_b^T: recompute the column matrix (cheaper than
    // caching n of them) and run the blocked kernel on out-channel row
    // blocks, batches ascending — the same per-element order at every
    // thread count.
    Im2Col(px + b * in_channels_ * h * w, h, w, o, in_channels_, oh, ow,
           pcol);
    detail::GemmTransposedBBlocked(pgb, pcol, pgw, out_channels_, out_plane,
                                   ckk);
    // dcol = W^T g_b via the blocked kernel, then scatter back to the
    // input gradient.
    detail::GemmPackB(pgb, out_channels_, out_plane, pgp);
    ThreadPool::Get().ParallelFor(
        0, row_blocks,
        GrainForFlopsTarget(kGemmMR * out_channels_ * out_plane,
                            detail::kGemmChunkFlops),
        [&](int64_t t0, int64_t t1) {
          const int64_t r0 = t0 * kGemmMR;
          const int64_t r1 = std::min(ckk, t1 * kGemmMR);
          float* rows = pdcol + r0 * out_plane;
          for (int64_t i = 0; i < (r1 - r0) * out_plane; ++i) rows[i] = 0.0f;
          detail::GemmBlockedPackedB(pwt + r0 * out_channels_, pgp, rows,
                                     r1 - r0, out_channels_, out_plane);
        });
    Col2Im(pdcol, h, w, o, in_channels_, oh, ow,
           pgi + b * in_channels_ * h * w);
  }
  if (o.has_bias) {
    float* pbg = bias_grad_.data();
    ThreadPool::Get().ParallelFor(
        0, out_channels_, GrainForFlops(n * out_plane),
        [&](int64_t o0, int64_t o1) {
          for (int64_t oc = o0; oc < o1; ++oc) {
            double acc = 0.0;
            for (int64_t b = 0; b < n; ++b) {
              const float* gplane =
                  pg + (b * out_channels_ + oc) * out_plane;
              for (int64_t i = 0; i < out_plane; ++i) acc += gplane[i];
            }
            pbg[oc] += static_cast<float>(acc);
          }
        });
  }
  scratch.Reset();
  return grad_input;
}

std::vector<ParamRef> Conv2d::Params() {
  std::vector<ParamRef> params = {{"weight", &weight_, &weight_grad_}};
  if (options_.has_bias) params.push_back({"bias", &bias_, &bias_grad_});
  return params;
}

std::string Conv2d::name() const {
  return StrCat("Conv2d(", in_channels_, "->", out_channels_, ", ",
                options_.kernel_h, "x", options_.kernel_w, ")");
}

int64_t Conv2d::Record(PlanBuilder& builder, int64_t in) {
  const Shape& s = builder.slot_shape(in);
  if (s.size() != 4 || s[1] != in_channels_) return -1;
  const Conv2dOptions& o = options_;
  int64_t oh = OutputDim(s[2], o.kernel_h, o.stride_h, o.pad_h, o.dilation_h);
  int64_t ow = OutputDim(s[3], o.kernel_w, o.stride_w, o.pad_w, o.dilation_w);
  PlanOp op;
  op.kind = PlanOpKind::kConv2d;
  op.in0 = in;
  op.out = builder.AddSlot({s[0], out_channels_, oh, ow});
  op.conv = this;
  int64_t out = op.out;
  builder.AddOp(std::move(op));
  return out;
}

}  // namespace dhgcn
