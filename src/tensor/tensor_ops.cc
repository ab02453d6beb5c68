#include "tensor/tensor_ops.h"

#include <algorithm>
#include <cmath>

namespace dhgcn {

namespace detail {

std::vector<int64_t> BroadcastStrides(const Shape& shape, size_t out_rank,
                                      const Shape& out_shape) {
  std::vector<int64_t> strides(out_rank, 0);
  int64_t running = 1;
  // Compute contiguous strides of `shape` from the right.
  std::vector<int64_t> own(shape.size(), 0);
  for (size_t i = shape.size(); i-- > 0;) {
    own[i] = running;
    running *= shape[i];
  }
  size_t offset = out_rank - shape.size();
  for (size_t i = 0; i < shape.size(); ++i) {
    if (shape[i] == 1 && out_shape[offset + i] != 1) {
      strides[offset + i] = 0;  // broadcast axis
    } else {
      strides[offset + i] = own[i];
    }
  }
  return strides;
}

}  // namespace detail

bool CanBroadcast(const Shape& a, const Shape& b) {
  size_t rank = std::max(a.size(), b.size());
  for (size_t i = 0; i < rank; ++i) {
    int64_t da = i < rank - a.size() ? 1 : a[i - (rank - a.size())];
    int64_t db = i < rank - b.size() ? 1 : b[i - (rank - b.size())];
    if (da != db && da != 1 && db != 1) return false;
  }
  return true;
}

Shape BroadcastShapes(const Shape& a, const Shape& b) {
  DHGCN_CHECK(CanBroadcast(a, b));
  size_t rank = std::max(a.size(), b.size());
  Shape out(rank);
  for (size_t i = 0; i < rank; ++i) {
    int64_t da = i < rank - a.size() ? 1 : a[i - (rank - a.size())];
    int64_t db = i < rank - b.size() ? 1 : b[i - (rank - b.size())];
    out[i] = std::max(da, db);
  }
  return out;
}

namespace {

struct AddOp {
  float operator()(float x, float y) const { return x + y; }
};
struct SubOp {
  float operator()(float x, float y) const { return x - y; }
};
struct MulOp {
  float operator()(float x, float y) const { return x * y; }
};

}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) { return BinaryOpT(a, b, AddOp{}); }
Tensor Sub(const Tensor& a, const Tensor& b) { return BinaryOpT(a, b, SubOp{}); }
Tensor Mul(const Tensor& a, const Tensor& b) { return BinaryOpT(a, b, MulOp{}); }

void AddInPlace(Tensor& a, const Tensor& b) {
  DHGCN_CHECK(ShapesEqual(a.shape(), b.shape()));
  float* pa = a.data();
  const float* pb = b.data();
  for (int64_t i = 0; i < a.numel(); ++i) pa[i] += pb[i];
}

Tensor AddScalar(const Tensor& a, float s) {
  return UnaryOpT(a, [s](float x) { return x + s; });
}
Tensor MulScalar(const Tensor& a, float s) {
  return UnaryOpT(a, [s](float x) { return x * s; });
}
void MulScalarInPlace(Tensor& a, float s) {
  float* pa = a.data();
  for (int64_t i = 0; i < a.numel(); ++i) pa[i] *= s;
}

Tensor Neg(const Tensor& a) {
  return UnaryOpT(a, [](float x) { return -x; });
}
Tensor Exp(const Tensor& a) {
  return UnaryOpT(a, [](float x) { return std::exp(x); });
}
Tensor Abs(const Tensor& a) {
  return UnaryOpT(a, [](float x) { return std::fabs(x); });
}

void ExpInto(const Tensor& a, Tensor* out) {
  UnaryOpInto(a, [](float x) { return std::exp(x); }, out);
}

float SumAll(const Tensor& a) {
  double total = 0.0;  // accumulate in double for stability
  const float* pa = a.data();
  for (int64_t i = 0; i < a.numel(); ++i) total += pa[i];
  return static_cast<float>(total);
}

float MaxAll(const Tensor& a) {
  DHGCN_CHECK_GT(a.numel(), 0);
  float best = a.flat(0);
  for (int64_t i = 1; i < a.numel(); ++i) best = std::max(best, a.flat(i));
  return best;
}

namespace {

int64_t NormalizeAxis(int64_t axis, int64_t ndim) {
  if (axis < 0) axis += ndim;
  DHGCN_CHECK(axis >= 0 && axis < ndim);
  return axis;
}

// Splits a shape into (outer, axis_size, inner) around `axis` so the
// reduction loops are simple strided scans.
struct AxisSplit {
  int64_t outer;
  int64_t size;
  int64_t inner;
};

AxisSplit SplitAtAxis(const Shape& shape, int64_t axis) {
  AxisSplit s{1, shape[static_cast<size_t>(axis)], 1};
  for (int64_t i = 0; i < axis; ++i) s.outer *= shape[static_cast<size_t>(i)];
  for (size_t i = static_cast<size_t>(axis) + 1; i < shape.size(); ++i) {
    s.inner *= shape[i];
  }
  return s;
}

Shape DropOrKeepAxis(const Shape& shape, int64_t axis, bool keepdim) {
  Shape out = shape;
  if (keepdim) {
    out[static_cast<size_t>(axis)] = 1;
  } else {
    out.erase(out.begin() + axis);
  }
  return out;
}

// Statically-dispatched reduction core writing into `*out`.
template <typename Init, typename Fold, typename Finish>
void ReduceAxisInto(const Tensor& a, int64_t axis, bool keepdim, Init init,
                    Fold fold, Finish finish, Tensor* out) {
  DHGCN_CHECK(out != nullptr);
  axis = NormalizeAxis(axis, a.ndim());
  AxisSplit s = SplitAtAxis(a.shape(), axis);
  DHGCN_CHECK(
      ShapesEqual(out->shape(), DropOrKeepAxis(a.shape(), axis, keepdim)));
  const float* pa = a.data();
  float* po = out->data();
  for (int64_t o = 0; o < s.outer; ++o) {
    for (int64_t in = 0; in < s.inner; ++in) {
      auto acc = init();
      const float* base = pa + (o * s.size) * s.inner + in;
      for (int64_t k = 0; k < s.size; ++k) acc = fold(acc, base[k * s.inner]);
      po[o * s.inner + in] = finish(acc, s.size);
    }
  }
}

template <typename Init, typename Fold, typename Finish>
Tensor ReduceAxis(const Tensor& a, int64_t axis, bool keepdim, Init init,
                  Fold fold, Finish finish) {
  int64_t norm = NormalizeAxis(axis, a.ndim());
  Tensor out(DropOrKeepAxis(a.shape(), norm, keepdim));
  ReduceAxisInto(a, norm, keepdim, init, fold, finish, &out);
  return out;
}

struct SumInit {
  double operator()() const { return 0.0; }
};
struct SumFold {
  double operator()(double acc, float x) const { return acc + x; }
};
struct SumFinish {
  float operator()(double acc, int64_t) const {
    return static_cast<float>(acc);
  }
};

}  // namespace

Tensor ReduceSum(const Tensor& a, int64_t axis, bool keepdim) {
  return ReduceAxis(a, axis, keepdim, SumInit{}, SumFold{}, SumFinish{});
}

void ReduceSumInto(const Tensor& a, int64_t axis, bool keepdim, Tensor* out) {
  ReduceAxisInto(a, axis, keepdim, SumInit{}, SumFold{}, SumFinish{}, out);
}

Tensor ReduceMean(const Tensor& a, int64_t axis, bool keepdim) {
  return ReduceAxis(
      a, axis, keepdim, SumInit{}, SumFold{},
      [](double acc, int64_t n) {
        return static_cast<float>(acc / static_cast<double>(n));
      });
}

Tensor ArgMax(const Tensor& a, int64_t axis) {
  axis = NormalizeAxis(axis, a.ndim());
  AxisSplit s = SplitAtAxis(a.shape(), axis);
  Tensor out(DropOrKeepAxis(a.shape(), axis, /*keepdim=*/false));
  const float* pa = a.data();
  float* po = out.data();
  for (int64_t o = 0; o < s.outer; ++o) {
    for (int64_t in = 0; in < s.inner; ++in) {
      const float* base = pa + (o * s.size) * s.inner + in;
      int64_t best_idx = 0;
      float best = base[0];
      for (int64_t k = 1; k < s.size; ++k) {
        float v = base[k * s.inner];
        if (v > best) {
          best = v;
          best_idx = k;
        }
      }
      po[o * s.inner + in] = static_cast<float>(best_idx);
    }
  }
  return out;
}

void SoftmaxInto(const Tensor& a, int64_t axis, Tensor* out) {
  DHGCN_CHECK(out != nullptr);
  DHGCN_CHECK(ShapesEqual(out->shape(), a.shape()));
  axis = NormalizeAxis(axis, a.ndim());
  AxisSplit s = SplitAtAxis(a.shape(), axis);
  const float* pa = a.data();
  float* po = out->data();
  for (int64_t o = 0; o < s.outer; ++o) {
    for (int64_t in = 0; in < s.inner; ++in) {
      const float* base = pa + (o * s.size) * s.inner + in;
      float* obase = po + (o * s.size) * s.inner + in;
      float max_v = base[0];
      for (int64_t k = 1; k < s.size; ++k) {
        max_v = std::max(max_v, base[k * s.inner]);
      }
      double denom = 0.0;
      for (int64_t k = 0; k < s.size; ++k) {
        float e = std::exp(base[k * s.inner] - max_v);
        obase[k * s.inner] = e;
        denom += e;
      }
      float inv = static_cast<float>(1.0 / denom);
      for (int64_t k = 0; k < s.size; ++k) obase[k * s.inner] *= inv;
    }
  }
}

Tensor Softmax(const Tensor& a, int64_t axis) {
  Tensor out(a.shape());
  SoftmaxInto(a, axis, &out);
  return out;
}

void LogSoftmaxInto(const Tensor& a, int64_t axis, Tensor* out) {
  DHGCN_CHECK(out != nullptr);
  DHGCN_CHECK(ShapesEqual(out->shape(), a.shape()));
  axis = NormalizeAxis(axis, a.ndim());
  AxisSplit s = SplitAtAxis(a.shape(), axis);
  const float* pa = a.data();
  float* po = out->data();
  for (int64_t o = 0; o < s.outer; ++o) {
    for (int64_t in = 0; in < s.inner; ++in) {
      const float* base = pa + (o * s.size) * s.inner + in;
      float* obase = po + (o * s.size) * s.inner + in;
      float max_v = base[0];
      for (int64_t k = 1; k < s.size; ++k) {
        max_v = std::max(max_v, base[k * s.inner]);
      }
      double denom = 0.0;
      for (int64_t k = 0; k < s.size; ++k) {
        denom += std::exp(base[k * s.inner] - max_v);
      }
      float log_denom = max_v + static_cast<float>(std::log(denom));
      for (int64_t k = 0; k < s.size; ++k) {
        obase[k * s.inner] = base[k * s.inner] - log_denom;
      }
    }
  }
}

Tensor LogSoftmax(const Tensor& a, int64_t axis) {
  Tensor out(a.shape());
  LogSoftmaxInto(a, axis, &out);
  return out;
}

void PermuteInto(const Tensor& a, const std::vector<int64_t>& perm,
                 Tensor* out) {
  DHGCN_CHECK(out != nullptr);
  DHGCN_CHECK_EQ(static_cast<int64_t>(perm.size()), a.ndim());
  size_t rank = perm.size();
  std::vector<bool> seen(rank, false);
  Shape out_shape(rank);
  for (size_t i = 0; i < rank; ++i) {
    int64_t p = perm[i];
    DHGCN_CHECK(p >= 0 && p < a.ndim());
    DHGCN_CHECK(!seen[static_cast<size_t>(p)]);
    seen[static_cast<size_t>(p)] = true;
    out_shape[i] = a.shape()[static_cast<size_t>(p)];
  }
  DHGCN_CHECK(ShapesEqual(out->shape(), out_shape));
  DHGCN_CHECK(!out->SharesStorageWith(a));  // gather pattern cannot alias
  // Source strides.
  std::vector<int64_t> src_strides(rank, 1);
  for (size_t i = rank - 1; i-- > 0;) {
    src_strides[i] = src_strides[i + 1] * a.shape()[i + 1];
  }
  // For each output flat index, walk an odometer over output shape and
  // accumulate the permuted source offset.
  std::vector<int64_t> step(rank);
  for (size_t i = 0; i < rank; ++i) {
    step[i] = src_strides[static_cast<size_t>(perm[i])];
  }
  std::vector<int64_t> index(rank, 0);
  const float* pa = a.data();
  float* po = out->data();
  int64_t src = 0;
  for (int64_t flat = 0; flat < out->numel(); ++flat) {
    po[flat] = pa[src];
    for (size_t axis = rank; axis-- > 0;) {
      ++index[axis];
      src += step[axis];
      if (index[axis] < out_shape[axis]) break;
      src -= step[axis] * out_shape[axis];
      index[axis] = 0;
    }
  }
}

Tensor Permute(const Tensor& a, const std::vector<int64_t>& perm) {
  DHGCN_CHECK_EQ(static_cast<int64_t>(perm.size()), a.ndim());
  Shape out_shape(perm.size());
  for (size_t i = 0; i < perm.size(); ++i) {
    out_shape[i] = a.dim(perm[i]);
  }
  Tensor out(out_shape);
  PermuteInto(a, perm, &out);
  return out;
}

Tensor Transpose2D(const Tensor& a) {
  DHGCN_CHECK_EQ(a.ndim(), 2);
  return Permute(a, {1, 0});
}

Tensor Concat(const std::vector<Tensor>& parts, int64_t axis) {
  DHGCN_CHECK(!parts.empty());
  int64_t ndim = parts[0].ndim();
  axis = NormalizeAxis(axis, ndim);
  Shape out_shape = parts[0].shape();
  int64_t total = 0;
  for (const Tensor& p : parts) {
    DHGCN_CHECK_EQ(p.ndim(), ndim);
    for (int64_t d = 0; d < ndim; ++d) {
      if (d != axis) DHGCN_CHECK_EQ(p.dim(d), parts[0].dim(d));
    }
    total += p.dim(axis);
  }
  out_shape[static_cast<size_t>(axis)] = total;
  Tensor out(out_shape);
  AxisSplit so = SplitAtAxis(out_shape, axis);
  float* po = out.data();
  int64_t written = 0;
  for (const Tensor& p : parts) {
    AxisSplit sp = SplitAtAxis(p.shape(), axis);
    const float* pp = p.data();
    for (int64_t o = 0; o < sp.outer; ++o) {
      const float* src = pp + o * sp.size * sp.inner;
      float* dst = po + (o * so.size + written) * so.inner;
      std::copy(src, src + sp.size * sp.inner, dst);
    }
    written += p.dim(axis);
  }
  return out;
}

void SliceInto(const Tensor& a, int64_t axis, int64_t start, int64_t length,
               Tensor* out) {
  DHGCN_CHECK(out != nullptr);
  axis = NormalizeAxis(axis, a.ndim());
  DHGCN_CHECK_GE(start, 0);
  DHGCN_CHECK_GE(length, 0);
  DHGCN_CHECK_LE(start + length, a.dim(axis));
  Shape out_shape = a.shape();
  out_shape[static_cast<size_t>(axis)] = length;
  DHGCN_CHECK(ShapesEqual(out->shape(), out_shape));
  AxisSplit sa = SplitAtAxis(a.shape(), axis);
  const float* pa = a.data();
  float* po = out->data();
  for (int64_t o = 0; o < sa.outer; ++o) {
    const float* src = pa + (o * sa.size + start) * sa.inner;
    float* dst = po + o * length * sa.inner;
    std::copy(src, src + length * sa.inner, dst);
  }
}

Tensor Slice(const Tensor& a, int64_t axis, int64_t start, int64_t length) {
  int64_t norm = NormalizeAxis(axis, a.ndim());
  Shape out_shape = a.shape();
  out_shape[static_cast<size_t>(norm)] = length;
  Tensor out(out_shape);
  SliceInto(a, norm, start, length, &out);
  return out;
}

Tensor Stack(const std::vector<Tensor>& parts) {
  DHGCN_CHECK(!parts.empty());
  Shape out_shape = parts[0].shape();
  out_shape.insert(out_shape.begin(), static_cast<int64_t>(parts.size()));
  Tensor out(out_shape);
  float* po = out.data();
  int64_t item = parts[0].numel();
  for (size_t i = 0; i < parts.size(); ++i) {
    DHGCN_CHECK(ShapesEqual(parts[i].shape(), parts[0].shape()));
    std::copy(parts[i].data(), parts[i].data() + item,
              po + static_cast<int64_t>(i) * item);
  }
  return out;
}

Tensor BroadcastTo(const Tensor& a, const Shape& target) {
  return BinaryOpT(a, Tensor::Zeros(target),
                   [](float x, float) { return x; });
}

Tensor ReduceToShape(const Tensor& grad, const Shape& target) {
  DHGCN_CHECK(CanBroadcast(grad.shape(), target));
  Tensor cur = grad;
  // Drop leading axes not present in target.
  while (cur.ndim() > static_cast<int64_t>(target.size())) {
    cur = ReduceSum(cur, 0, /*keepdim=*/false);
  }
  // Sum broadcasted (size-1) axes.
  for (int64_t axis = 0; axis < cur.ndim(); ++axis) {
    if (target[static_cast<size_t>(axis)] == 1 && cur.dim(axis) != 1) {
      cur = ReduceSum(cur, axis, /*keepdim=*/true);
    }
  }
  DHGCN_CHECK(ShapesEqual(cur.shape(), target));
  return cur;
}

bool AllClose(const Tensor& a, const Tensor& b, float rtol, float atol) {
  if (!ShapesEqual(a.shape(), b.shape())) return false;
  for (int64_t i = 0; i < a.numel(); ++i) {
    float x = a.flat(i);
    float y = b.flat(i);
    if (std::isnan(x) || std::isnan(y)) return false;
    if (std::fabs(x - y) > atol + rtol * std::fabs(y)) return false;
  }
  return true;
}

bool HasNonFinite(const Tensor& a) {
  for (int64_t i = 0; i < a.numel(); ++i) {
    if (!std::isfinite(a.flat(i))) return true;
  }
  return false;
}

float Norm2(const Tensor& a) {
  double total = 0.0;
  for (int64_t i = 0; i < a.numel(); ++i) {
    total += static_cast<double>(a.flat(i)) * a.flat(i);
  }
  return static_cast<float>(std::sqrt(total));
}

float Dot(const Tensor& a, const Tensor& b) {
  DHGCN_CHECK_EQ(a.numel(), b.numel());
  double total = 0.0;
  const float* pa = a.data();
  const float* pb = b.data();
  for (int64_t i = 0; i < a.numel(); ++i) {
    total += static_cast<double>(pa[i]) * pb[i];
  }
  return static_cast<float>(total);
}

}  // namespace dhgcn
