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

/// Lowers one clip's (C, H, W) input into the (C*KH*KW, OH*OW) column
/// matrix: row r = (ic, ky, kx) holds that tap's value for every output
/// position, with out-of-bounds (padding) taps written as zero. Serial:
/// the clip-parallel passes below call it from their tasks.
void Im2Col(const float* x, int64_t h, int64_t w, const Conv2dOptions& o,
            int64_t in_channels, int64_t oh, int64_t ow, float* col) {
  const int64_t kk = o.kernel_h * o.kernel_w;
  const int64_t out_plane = oh * ow;
  for (int64_t r = 0; r < in_channels * kk; ++r) {
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
}

/// Adjoint of Im2Col: scatters the (C*KH*KW, OH*OW) column gradient back
/// into the (C, H, W) input gradient with `+=`, taps in ascending
/// (ic, ky, kx, oy, ox) order. Serial, like Im2Col.
void Col2Im(const float* col, int64_t h, int64_t w, const Conv2dOptions& o,
            int64_t in_channels, int64_t oh, int64_t ow, float* gx) {
  const int64_t out_plane = oh * ow;
  for (int64_t ic = 0; ic < in_channels; ++ic) {
    float* gplane = gx + ic * h * w;
    for (int64_t ky = 0; ky < o.kernel_h; ++ky) {
      for (int64_t kx = 0; kx < o.kernel_w; ++kx) {
        const float* crow =
            col + ((ic * o.kernel_h + ky) * o.kernel_w + kx) * out_plane;
        for (int64_t oy = 0; oy < oh; ++oy) {
          const int64_t iy = oy * o.stride_h - o.pad_h + ky * o.dilation_h;
          if (iy < 0 || iy >= h) continue;
          float* grow = gplane + iy * w;
          const float* cin = crow + oy * ow;
          for (int64_t ox = 0; ox < ow; ++ox) {
            const int64_t ix = ox * o.stride_w - o.pad_w + kx * o.dilation_w;
            if (ix < 0 || ix >= w) continue;
            grow[ix] += cin[ox];
          }
        }
      }
    }
  }
}

/// Clips per chunk of a clip-parallel pass that does `clip_macs`
/// multiply-accumulates per clip: a function of the shape alone.
int64_t ClipGrain(int64_t clip_macs) {
  return GrainForFlopsTarget(clip_macs, detail::kGemmChunkFlops);
}

/// c (m, n) = bias ⊕ A B for packed B: sets each row to its bias (or
/// zero), then lets the blocked kernel accumulate all m rows in one
/// call, so every row lands in the tile a serial run gives it.
void BiasedBlocked(const float* a, const float* bp, const float* bias,
                   float* c, int64_t m, int64_t k, int64_t n) {
  for (int64_t r = 0; r < m; ++r) {
    const float bias_v = bias != nullptr ? bias[r] : 0.0f;
    float* crow = c + r * n;
    for (int64_t j = 0; j < n; ++j) crow[j] = bias_v;
  }
  detail::GemmBlockedPackedB(a, bp, c, m, k, n);
}

/// dW (m, cols) += g_b (m, k) B_b^T for every clip b, where `slots`
/// holds each clip's B^T panels (GemmPackBTransposed, GemmPackedBCount(k,
/// cols) floats apart), packed by the caller's clip-parallel pass. One
/// ParallelFor over kGemmMR-row blocks of dW; each block adds the clips
/// in ascending order, so every element gets the same partials in the
/// same order as one blocked product per clip, at any thread count.
void AccumulateWeightGrad(const float* g, const float* slots, int64_t clips,
                          int64_t m, int64_t k, int64_t cols, float* dw) {
  const int64_t slot = detail::GemmPackedBCount(k, cols);
  const int64_t row_blocks = (m + kGemmMR - 1) / kGemmMR;
  ThreadPool::Get().ParallelFor(
      0, row_blocks,
      GrainForFlopsTarget(clips * kGemmMR * k * cols,
                          detail::kGemmChunkFlops),
      [&](int64_t t0, int64_t t1) {
        const int64_t r0 = t0 * kGemmMR;
        const int64_t r1 = std::min(m, t1 * kGemmMR);
        for (int64_t b = 0; b < clips; ++b) {
          detail::GemmBlockedPackedB(g + (b * m + r0) * k, slots + b * slot,
                                     dw + r0 * cols, r1 - r0, k, cols);
        }
      });
}

/// db[oc] += the sum over every clip of g's (oc) plane, accumulated in
/// double and added once; out-channel-parallel.
void AccumulateBiasGrad(const float* g, int64_t clips, int64_t channels,
                        int64_t plane, float* db) {
  ThreadPool::Get().ParallelFor(
      0, channels, GrainForFlops(clips * plane), [&](int64_t o0, int64_t o1) {
        for (int64_t oc = o0; oc < o1; ++oc) {
          double acc = 0.0;
          for (int64_t b = 0; b < clips; ++b) {
            const float* gplane = g + (b * channels + oc) * plane;
            for (int64_t i = 0; i < plane; ++i) acc += gplane[i];
          }
          db[oc] += static_cast<float>(acc);
        }
      });
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
    // out_b = bias ⊕ W x_b through the blocked kernel, clips in
    // parallel: each chunk packs its clips' (C_in, HW) activations into
    // its own scratch slice and runs all C_out rows in one call.
    const int64_t grain = ClipGrain(out_channels_ * in_channels_ * plane);
    const int64_t count = detail::GemmPackedBCount(in_channels_, plane);
    Workspace& scratch = detail::KernelOpScratch();
    Tensor xp = scratch.Acquire({(n + grain - 1) / grain, count});
    float* pxp = xp.data();
    ThreadPool::Get().ParallelFor(0, n, grain, [&](int64_t b0, int64_t b1) {
      float* slice = pxp + b0 / grain * count;
      for (int64_t b = b0; b < b1; ++b) {
        detail::GemmPackB(px + b * in_channels_ * plane, in_channels_, plane,
                          slice);
        BiasedBlocked(pw, slice, pb, po + b * out_channels_ * plane,
                      out_channels_, in_channels_, plane);
      }
    });
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
  // Clips in parallel: each chunk lowers its clips into its own column
  // and packed-panel slices and runs all C_out rows in one call.
  const int64_t grain = ClipGrain(out_channels_ * ckk * out_plane);
  const int64_t chunks = (n + grain - 1) / grain;
  const int64_t col_count = ckk * out_plane;
  const int64_t colp_count = detail::GemmPackedBCount(ckk, out_plane);
  Workspace& scratch = detail::KernelOpScratch();
  Tensor col = scratch.Acquire({chunks, col_count});
  Tensor colp = scratch.Acquire({chunks, colp_count});
  float* pcol = col.data();
  float* pcolp = colp.data();
  ThreadPool::Get().ParallelFor(0, n, grain, [&](int64_t b0, int64_t b1) {
    const int64_t chunk = b0 / grain;
    float* cslice = pcol + chunk * col_count;
    float* pslice = pcolp + chunk * colp_count;
    for (int64_t b = b0; b < b1; ++b) {
      Im2Col(px + b * in_channels_ * h * w, h, w, o, in_channels_, oh, ow,
             cslice);
      detail::GemmPackB(cslice, ckk, out_plane, pslice);
      BiasedBlocked(pw, pslice, pb, po + b * out_channels_ * out_plane,
                    out_channels_, ckk, out_plane);
    }
  });
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
  if (!IsPointwise()) return BackwardIm2col(grad_output, ws);

  // dX_b = W^T g_b and dW += g_b x_b^T for every clip b. One clip pass
  // writes each clip's input gradient and packs its x_b^T panels into
  // the clip's dW slot; then the weight and bias gradients.
  Tensor grad_input = NewZeroedTensor(ws, input.shape());
  const float* px = input.data();
  const float* pg = grad_output.data();
  const float* pw = weight_.data();  // (C_out, C_in) row-major
  float* pgi = grad_input.data();
  const int64_t plane = h * w;
  const int64_t slot = detail::GemmPackedBCount(plane, in_channels_);
  Workspace& scratch = detail::KernelOpScratch();
  Tensor slots = scratch.Acquire({n, slot});
  float* pslots = slots.data();
  auto pack_x = [&](int64_t b) {
    detail::GemmPackBTransposed(px + b * in_channels_ * plane, in_channels_,
                                plane, pslots + b * slot);
  };
  if (detail::GemmUseBlocked(in_channels_, out_channels_, plane)) {
    // dX_b = W^T g_b through the blocked kernel: W^T is packed once
    // here, each chunk packs its clips' gradients into its own slice
    // and adds all C_in rows into the zeroed grad_input in one call.
    const int64_t grain = ClipGrain(in_channels_ * out_channels_ * plane);
    const int64_t count = detail::GemmPackedBCount(out_channels_, plane);
    Tensor wt = scratch.Acquire({in_channels_, out_channels_});
    Tensor gp = scratch.Acquire({(n + grain - 1) / grain, count});
    float* pwt = wt.data();
    float* pgp = gp.data();
    detail::GemmPackTransposed(pw, out_channels_, in_channels_, pwt);
    ThreadPool::Get().ParallelFor(0, n, grain, [&](int64_t b0, int64_t b1) {
      float* slice = pgp + b0 / grain * count;
      for (int64_t b = b0; b < b1; ++b) {
        pack_x(b);
        detail::GemmPackB(pg + b * out_channels_ * plane, out_channels_,
                          plane, slice);
        detail::GemmBlockedPackedB(pwt, slice, pgi + b * in_channels_ * plane,
                                   in_channels_, out_channels_, plane);
      }
    });
  } else {
    ThreadPool::Get().ParallelFor(
        0, n, GrainForFlops(out_channels_ * in_channels_ * plane),
        [&](int64_t b0, int64_t b1) {
          for (int64_t b = b0; b < b1; ++b) {
            pack_x(b);
            detail::GemmTransposedAAccumulate(
                pw, pg + b * out_channels_ * plane,
                pgi + b * in_channels_ * plane, out_channels_, in_channels_,
                plane);
          }
        });
  }
  AccumulateWeightGrad(pg, pslots, n, out_channels_, plane, in_channels_,
                       weight_grad_.data());
  if (o.has_bias) {
    AccumulateBiasGrad(pg, n, out_channels_, plane, bias_grad_.data());
  }
  scratch.Reset();
  return grad_input;
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

  // Clips in parallel. Per clip: recompute the column matrix (cheaper
  // than caching n of them) and pack its transpose into the clip's dW
  // slot; dcol = W^T g_b through the blocked kernel, all ckk rows in one
  // call; scatter dcol back into the clip's input gradient.
  const int64_t grain = ClipGrain(ckk * out_channels_ * out_plane);
  const int64_t chunks = (n + grain - 1) / grain;
  const int64_t col_count = ckk * out_plane;
  const int64_t gp_count = detail::GemmPackedBCount(out_channels_, out_plane);
  const int64_t slot = detail::GemmPackedBCount(out_plane, ckk);
  Workspace& scratch = detail::KernelOpScratch();
  Tensor wt = scratch.Acquire({ckk, out_channels_});
  Tensor slots = scratch.Acquire({n, slot});
  Tensor col = scratch.Acquire({chunks, col_count});
  Tensor dcol = scratch.Acquire({chunks, col_count});
  Tensor gp = scratch.Acquire({chunks, gp_count});
  float* pwt = wt.data();
  float* pslots = slots.data();
  float* pcol = col.data();
  float* pdcol = dcol.data();
  float* pgp = gp.data();
  detail::GemmPackTransposed(pw, out_channels_, ckk, pwt);
  ThreadPool::Get().ParallelFor(0, n, grain, [&](int64_t b0, int64_t b1) {
    const int64_t chunk = b0 / grain;
    float* cslice = pcol + chunk * col_count;
    float* dslice = pdcol + chunk * col_count;
    float* gslice = pgp + chunk * gp_count;
    for (int64_t b = b0; b < b1; ++b) {
      Im2Col(px + b * in_channels_ * h * w, h, w, o, in_channels_, oh, ow,
             cslice);
      detail::GemmPackBTransposed(cslice, ckk, out_plane, pslots + b * slot);
      detail::GemmPackB(pg + b * out_channels_ * out_plane, out_channels_,
                        out_plane, gslice);
      std::fill(dslice, dslice + col_count, 0.0f);
      detail::GemmBlockedPackedB(pwt, gslice, dslice, ckk, out_channels_,
                                 out_plane);
      Col2Im(dslice, h, w, o, in_channels_, oh, ow,
             pgi + b * in_channels_ * h * w);
    }
  });
  AccumulateWeightGrad(pg, pslots, n, out_channels_, out_plane, ckk,
                       weight_grad_.data());
  if (o.has_bias) {
    AccumulateBiasGrad(pg, n, out_channels_, out_plane, bias_grad_.data());
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
