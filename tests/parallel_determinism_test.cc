// Bit-exactness of every ThreadPool-parallelized kernel across thread
// counts — the acceptance test for the static-partitioning determinism
// contract. Each kernel runs with a serial pool (threads=1) and again
// with 2 and 7 threads; outputs must match byte for byte, not just to
// tolerance. A full training run (the Trainer's workspace path and the
// layer-by-layer reference loop) closes the loop: identical final
// parameters and losses end to end.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "gtest/gtest.h"

#include "base/rng.h"
#include "base/thread_pool.h"
#include "core/dhgcn_model.h"
#include "data/dataloader.h"
#include "data/dataset.h"
#include "data/synthetic_generator.h"
#include "hypergraph/hypergraph_conv.h"
#include "hypergraph/kmeans.h"
#include "hypergraph/knn.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/loss.h"
#include "plan/plan_builder.h"
#include "plan/plan_runner.h"
#include "quant/calibration.h"
#include "quant/quantize_pass.h"
#include "tensor/gemm_kernel_int8.h"
#include "tensor/linalg.h"
#include "tensor/sparse.h"
#include "tensor/workspace.h"
#include "tests/oracles.h"
#include "train/trainer.h"

namespace dhgcn {
namespace {

// Thread counts the contract is checked against: serial fallback, the
// smallest real pool, and an odd size that cannot divide chunk counts
// evenly.
const int64_t kThreadCounts[] = {1, 2, 7};

void ExpectBitEqual(const Tensor& expected, const Tensor& actual,
                    const char* what, int64_t threads) {
  ASSERT_TRUE(ShapesEqual(expected.shape(), actual.shape()))
      << what << " shape changed at threads=" << threads;
  EXPECT_EQ(std::memcmp(expected.data(), actual.data(),
                        static_cast<size_t>(expected.numel()) *
                            sizeof(float)),
            0)
      << what << " is not bit-identical at threads=" << threads;
}

// Runs `make` (a callable returning a Tensor) under every thread count
// and asserts the results match the serial run bit for bit.
template <typename Fn>
void ExpectDeterministicAcrossThreadCounts(const char* what, Fn&& make) {
  ThreadPool::Get().SetThreads(1);
  Tensor serial = make();
  for (int64_t threads : kThreadCounts) {
    ThreadPool::Get().SetThreads(threads);
    Tensor parallel = make();
    ExpectBitEqual(serial, parallel, what, threads);
  }
  ThreadPool::Get().SetThreads(1);
}

TEST(ParallelDeterminism, MatMul) {
  Rng rng(200);
  Tensor a = Tensor::RandomNormal({64, 32}, rng);
  Tensor b = Tensor::RandomNormal({32, 48}, rng);
  ExpectDeterministicAcrossThreadCounts("MatMul",
                                        [&] { return MatMul(a, b); });
}

TEST(ParallelDeterminism, MatMulIntoWorkspace) {
  Rng rng(201);
  Tensor a = Tensor::RandomNormal({64, 32}, rng);
  Tensor b = Tensor::RandomNormal({32, 48}, rng);
  Workspace ws;
  ExpectDeterministicAcrossThreadCounts("MatMulInto", [&] {
    ws.Reset();
    Tensor out = NewTensor(&ws, {64, 48});
    MatMulInto(a, b, &out, /*accumulate=*/false);
    MatMulInto(a, b, &out, /*accumulate=*/true);  // accumulate path too
    return out.Clone();  // clone: the arena is reset on the next run
  });
}

// Prime, tile-straddling shape large enough for the cache-blocked
// kernel: row tasks never align with the kGemmMR x kGemmNR micro-tiles,
// so any order-dependence in the blocked accumulation would show here.
TEST(ParallelDeterminism, MatMulBlockedOddShape) {
  Rng rng(220);
  Tensor a = Tensor::RandomNormal({61, 67}, rng);
  Tensor b = Tensor::RandomNormal({67, 53}, rng);
  ExpectDeterministicAcrossThreadCounts("MatMul(61x67x53)",
                                        [&] { return MatMul(a, b); });
}

TEST(ParallelDeterminism, BatchedMatMulSharedBBlocked) {
  Rng rng(221);
  Tensor a = Tensor::RandomNormal({3, 48, 32}, rng);
  Tensor b = Tensor::RandomNormal({32, 40}, rng);
  ExpectDeterministicAcrossThreadCounts(
      "BatchedMatMul(blocked 2-D b)", [&] { return BatchedMatMul(a, b); });
}

TEST(ParallelDeterminism, BatchedMatMulPerBatch) {
  Rng rng(202);
  Tensor a = Tensor::RandomNormal({4, 40, 24}, rng);
  Tensor b = Tensor::RandomNormal({4, 24, 16}, rng);
  ExpectDeterministicAcrossThreadCounts(
      "BatchedMatMul(3-D b)", [&] { return BatchedMatMul(a, b); });
}

TEST(ParallelDeterminism, BatchedMatMulSharedB) {
  Rng rng(203);
  Tensor a = Tensor::RandomNormal({4, 40, 24}, rng);
  Tensor b = Tensor::RandomNormal({24, 16}, rng);
  ExpectDeterministicAcrossThreadCounts(
      "BatchedMatMul(2-D b)", [&] { return BatchedMatMul(a, b); });
}

TEST(ParallelDeterminism, MatMulTransposedA) {
  Rng rng(204);
  Tensor a = Tensor::RandomNormal({30, 40}, rng);
  Tensor b = Tensor::RandomNormal({30, 50}, rng);
  ExpectDeterministicAcrossThreadCounts(
      "MatMulTransposedA", [&] { return MatMulTransposedA(a, b); });
}

TEST(ParallelDeterminism, MatMulTransposedB) {
  Rng rng(205);
  Tensor a = Tensor::RandomNormal({40, 30}, rng);
  Tensor b = Tensor::RandomNormal({50, 30}, rng);
  ExpectDeterministicAcrossThreadCounts(
      "MatMulTransposedB", [&] { return MatMulTransposedB(a, b); });
}

// Forward + backward of a freshly seeded Conv2d; returns grad_input and
// checks the accumulated weight/bias gradients inline.
Tensor RunConvOnce(const Conv2dOptions& options, int64_t in_channels,
                   int64_t out_channels, const Shape& x_shape,
                   Tensor* weight_grad, Tensor* bias_grad) {
  Rng rng(206);
  Conv2d layer(in_channels, out_channels, options, rng);
  Tensor x = Tensor::RandomNormal(x_shape, rng);
  Tensor out = layer.Forward(x);
  Tensor g = Tensor::RandomNormal(out.shape(), rng);
  layer.ZeroGrad();
  Tensor grad_input = layer.Backward(g);
  *weight_grad = layer.Params()[0].grad->Clone();
  *bias_grad = layer.Params()[1].grad->Clone();
  return grad_input;
}

void CheckConvDeterminism(const char* what, const Conv2dOptions& options,
                          int64_t in_channels, int64_t out_channels,
                          const Shape& x_shape) {
  ThreadPool::Get().SetThreads(1);
  Tensor serial_wg, serial_bg;
  Tensor serial_gi = RunConvOnce(options, in_channels, out_channels,
                                 x_shape, &serial_wg, &serial_bg);
  for (int64_t threads : kThreadCounts) {
    ThreadPool::Get().SetThreads(threads);
    Tensor wg, bg;
    Tensor gi = RunConvOnce(options, in_channels, out_channels, x_shape,
                            &wg, &bg);
    ExpectBitEqual(serial_gi, gi, what, threads);
    ExpectBitEqual(serial_wg, wg, what, threads);
    ExpectBitEqual(serial_bg, bg, what, threads);
  }
  ThreadPool::Get().SetThreads(1);
}

TEST(ParallelDeterminism, Conv2dPointwise) {
  CheckConvDeterminism("Conv2d 1x1", Conv2dOptions{}, 8, 16,
                       {4, 8, 12, 10});
}

TEST(ParallelDeterminism, Conv2dGeneral) {
  Conv2dOptions options;
  options.kernel_h = 3;
  options.kernel_w = 3;
  options.pad_h = 1;
  options.pad_w = 1;
  CheckConvDeterminism("Conv2d 3x3", options, 4, 6, {2, 4, 7, 6});
}

// Strided + dilated temporal conv, large enough that the im2col GEMM
// takes the cache-blocked kernel; exercises the Col2Im scatter and the
// per-batch packed-buffer reuse under every thread count.
TEST(ParallelDeterminism, Conv2dStridedDilatedIm2col) {
  Conv2dOptions options;
  options.kernel_h = 9;
  options.pad_h = 8;
  options.dilation_h = 2;
  options.stride_h = 2;
  CheckConvDeterminism("Conv2d 9x1 s2 d2", options, 8, 12,
                       {3, 8, 24, 25});
}

Tensor RunBatchNormOnce(bool training, Tensor* grad_input,
                        Tensor* gamma_grad, Tensor* running_mean) {
  Rng rng(207);
  BatchNorm2d layer(16);
  layer.SetTraining(training);
  layer.gamma() = Tensor::RandomUniform({16}, rng, 0.5f, 1.5f);
  layer.beta() = Tensor::RandomNormal({16}, rng);
  // Large spatial extent so the channel grain splits 16 channels into
  // several chunks (grain shrinks as per-channel work grows).
  Tensor x = Tensor::RandomNormal({8, 16, 32, 16}, rng);
  Tensor out = layer.Forward(x);
  if (training) {
    Tensor g = Tensor::RandomNormal(out.shape(), rng);
    layer.ZeroGrad();
    *grad_input = layer.Backward(g);
    *gamma_grad = layer.Params()[0].grad->Clone();
  }
  *running_mean = layer.Params()[2].value->Clone();
  return out;
}

TEST(ParallelDeterminism, BatchNormTraining) {
  ThreadPool::Get().SetThreads(1);
  Tensor serial_gi, serial_gg, serial_rm;
  Tensor serial =
      RunBatchNormOnce(true, &serial_gi, &serial_gg, &serial_rm);
  for (int64_t threads : kThreadCounts) {
    ThreadPool::Get().SetThreads(threads);
    Tensor gi, gg, rm;
    Tensor out = RunBatchNormOnce(true, &gi, &gg, &rm);
    ExpectBitEqual(serial, out, "BatchNorm2d forward", threads);
    ExpectBitEqual(serial_gi, gi, "BatchNorm2d grad_input", threads);
    ExpectBitEqual(serial_gg, gg, "BatchNorm2d gamma_grad", threads);
    ExpectBitEqual(serial_rm, rm, "BatchNorm2d running_mean", threads);
  }
  ThreadPool::Get().SetThreads(1);
}

TEST(ParallelDeterminism, BatchNormEval) {
  ThreadPool::Get().SetThreads(1);
  Tensor unused_gi, unused_gg, rm0;
  Tensor serial = RunBatchNormOnce(false, &unused_gi, &unused_gg, &rm0);
  for (int64_t threads : kThreadCounts) {
    ThreadPool::Get().SetThreads(threads);
    Tensor rm;
    Tensor out = RunBatchNormOnce(false, &unused_gi, &unused_gg, &rm);
    ExpectBitEqual(serial, out, "BatchNorm2d eval forward", threads);
  }
  ThreadPool::Get().SetThreads(1);
}

TEST(ParallelDeterminism, SoftmaxCrossEntropy) {
  Rng rng(208);
  // Batch of 37 rows: five reduction chunks at the loss grain of 8.
  Tensor logits = Tensor::RandomNormal({37, 10}, rng);
  std::vector<int64_t> labels;
  for (int64_t i = 0; i < 37; ++i) labels.push_back(i % 10);

  for (float smoothing : {0.0f, 0.1f}) {
    SoftmaxCrossEntropy loss(smoothing);
    ThreadPool::Get().SetThreads(1);
    float serial_value = loss.Forward(logits, labels);
    Tensor serial_grad = loss.Backward();
    for (int64_t threads : kThreadCounts) {
      ThreadPool::Get().SetThreads(threads);
      float value = loss.Forward(logits, labels);
      Tensor grad = loss.Backward();
      EXPECT_EQ(value, serial_value)
          << "loss value at threads=" << threads
          << " smoothing=" << smoothing;
      ExpectBitEqual(serial_grad, grad, "loss gradient", threads);
    }
  }
  ThreadPool::Get().SetThreads(1);
}

TEST(ParallelDeterminism, PairwiseDistances) {
  Rng rng(209);
  Tensor features = Tensor::RandomNormal({100, 16}, rng);
  ExpectDeterministicAcrossThreadCounts(
      "PairwiseDistances", [&] { return PairwiseDistances(features); });
}

TEST(ParallelDeterminism, PairwiseDistancesWorkspace) {
  Rng rng(210);
  Tensor features = Tensor::RandomNormal({100, 16}, rng);
  Workspace ws;
  ExpectDeterministicAcrossThreadCounts("PairwiseDistances(ws)", [&] {
    ws.Reset();
    return PairwiseDistances(features, &ws).Clone();
  });
}

TEST(ParallelDeterminism, KMeansClusters) {
  Rng feature_rng(211);
  Tensor features = Tensor::RandomNormal({80, 8}, feature_rng);

  auto run = [&] {
    Rng rng(212);  // fresh, equally seeded Rng per run
    return KMeansClusters(features, /*k=*/6, rng, /*max_iters=*/20);
  };
  ThreadPool::Get().SetThreads(1);
  KMeansResult serial = run();
  for (int64_t threads : kThreadCounts) {
    ThreadPool::Get().SetThreads(threads);
    KMeansResult parallel = run();
    EXPECT_EQ(parallel.medoids, serial.medoids) << "threads=" << threads;
    EXPECT_EQ(parallel.clusters, serial.clusters) << "threads=" << threads;
    EXPECT_EQ(parallel.iterations, serial.iterations)
        << "threads=" << threads;
  }
  ThreadPool::Get().SetThreads(1);
}

// --- End-to-end: a short training run must be bit-reproducible for any
// thread count, through the Trainer and through the layer-by-layer
// reference loop. -----------------------------------------------------

struct TrainingFingerprint {
  double final_loss = 0.0;
  std::vector<Tensor> params;
};

TrainingFingerprint RunTraining(const SkeletonDataset& dataset,
                                const DatasetSplit& split,
                                bool use_trainer) {
  DataLoader loader(&dataset, split.train, 4, InputStream::kJoint,
                    /*shuffle=*/true, Rng(5));
  DhgcnConfig config =
      DhgcnConfig::Tiny(SkeletonLayoutType::kNtu25, /*num_classes=*/2);
  DhgcnModel model(config);
  TrainOptions options;
  options.epochs = 3;
  options.initial_lr = 0.01f;
  TrainingFingerprint fp;
  if (use_trainer) {
    Trainer trainer(&model, options);
    fp.final_loss = trainer.Train(loader).ValueOrDie().back().mean_loss;
  } else {
    fp.final_loss =
        oracles::TrainLayerwise(model, loader, options).mean_loss.back();
  }
  for (ParamRef& p : model.Params()) fp.params.push_back(p.value->Clone());
  return fp;
}

TEST(ParallelDeterminism, ThreeEpochTrainingRun) {
  SyntheticDataConfig data_config = NtuLikeConfig(2, 5, 8, 17);
  SkeletonDataset dataset =
      SkeletonDataset::Generate(data_config).MoveValue();
  DatasetSplit split = dataset.RandomSplit(0.3f, 1);

  for (bool use_trainer : {true, false}) {
    ThreadPool::Get().SetThreads(1);
    TrainingFingerprint serial = RunTraining(dataset, split, use_trainer);
    for (int64_t threads : kThreadCounts) {
      ThreadPool::Get().SetThreads(threads);
      TrainingFingerprint parallel = RunTraining(dataset, split, use_trainer);
      EXPECT_EQ(parallel.final_loss, serial.final_loss)
          << "threads=" << threads << " trainer=" << use_trainer;
      ASSERT_EQ(parallel.params.size(), serial.params.size());
      for (size_t p = 0; p < serial.params.size(); ++p) {
        ExpectBitEqual(serial.params[p], parallel.params[p],
                       "trained parameter", threads);
      }
    }
  }
  ThreadPool::Get().SetThreads(1);
}

// --- Compiled-plan replay: the plan path runs the exact same kernels
// as the layer path, so unfused replay must be bit-identical to the
// serial layer forward at every thread count (and so must the fused
// replay to its own serial run — fusion changes the math w.r.t. the
// layer path, but not w.r.t. thread count). ---------------------------

TEST(ParallelDeterminism, PlanReplayUnfusedMatchesLayerPath) {
  DhgcnConfig config =
      DhgcnConfig::Tiny(SkeletonLayoutType::kNtu25, /*num_classes=*/3);
  DhgcnModel model(config);
  model.SetTraining(false);
  Rng rng(230);
  Tensor x = Tensor::RandomNormal({2, 3, 8, 25}, rng);

  ThreadPool::Get().SetThreads(1);
  Tensor serial = model.Forward(x);
  PlanRunner runner(
      BuildInferencePlan(model, x.shape(), PlanMode::kUnfused)
          .ValueOrDie());
  for (int64_t threads : kThreadCounts) {
    ThreadPool::Get().SetThreads(threads);
    ExpectBitEqual(serial, runner.Run(x), "unfused plan replay", threads);
    // A freshly compiled runner must agree too: capture is shape-only,
    // so the thread count at build time cannot matter.
    PlanRunner fresh(
        BuildInferencePlan(model, x.shape(), PlanMode::kUnfused)
            .ValueOrDie());
    ExpectBitEqual(serial, fresh.Run(x), "fresh unfused plan replay",
                   threads);
  }
  ThreadPool::Get().SetThreads(1);
}

// --- Sparse execution path: the CSR kernels partition CSR/output rows
// statically and accumulate in fixed ascending-k order, so the routed
// path must be as thread-invariant as the dense one. The operands sit
// below the CSR crossover, so the layers route them to CSR. ------------

// Random normal tensor with ~`density` fraction of nonzeros.
Tensor RandomAtDensity(const Shape& shape, double density, Rng& rng) {
  Tensor t = Tensor::RandomNormal(shape, rng);
  for (int64_t i = 0; i < t.numel(); ++i) {
    if (rng.Uniform() >= static_cast<float>(density)) t.flat(i) = 0.0f;
  }
  return t;
}

TEST(ParallelDeterminism, CsrKernels) {
  Rng rng(240);
  Tensor a = RandomAtDensity({61, 67}, 0.1, rng);
  CsrMatrix a_csr(1, 1);
  a_csr.AssignFromDense(a);
  Tensor e = Tensor::RandomNormal({29, 67}, rng);
  ExpectDeterministicAcrossThreadCounts("SpMMTransposedBInto", [&] {
    Tensor c({29, 61});
    SpMMTransposedBInto(e, a_csr, &c);
    return c;
  });

  Tensor op = RandomAtDensity({17, 17}, 0.2, rng);
  CsrMatrix op_csr(1, 1);
  op_csr.AssignFromDense(op);
  Tensor x = Tensor::RandomNormal({3, 5, 7, 17}, rng);
  ExpectDeterministicAcrossThreadCounts("SparseMixInto", [&] {
    Tensor y(x.shape());
    SparseMixInto(op_csr, x, &y);
    return y;
  });
  ExpectDeterministicAcrossThreadCounts("SparseMixBackwardInto", [&] {
    Tensor gi = Tensor::Zeros(x.shape());
    SparseMixBackwardInto(op_csr, x, &gi);
    return gi;
  });
}

TEST(ParallelDeterminism, SparseRoutedVertexMix) {
  Rng rng(241);
  Tensor op = RandomAtDensity({25, 25}, 0.15, rng);
  ASSERT_TRUE(ShouldRouteSparse(MeasureDensity(op)));
  Tensor x = Tensor::RandomNormal({2, 4, 6, 25}, rng);
  Tensor gy = Tensor::RandomNormal({2, 4, 6, 25}, rng);
  VertexMix mix(op.Clone());
  ExpectDeterministicAcrossThreadCounts("sparse VertexMix fwd+bwd", [&] {
    Tensor y = mix.Forward(x);
    Tensor g = mix.Backward(gy);
    // Pack both results into one tensor so a single memcmp covers them.
    Tensor packed({y.numel() + g.numel()});
    std::memcpy(packed.data(), y.data(), sizeof(float) * y.numel());
    std::memcpy(packed.data() + y.numel(), g.data(),
                sizeof(float) * g.numel());
    return packed;
  });
}

TEST(ParallelDeterminism, SparseRoutedDynamicVertexMix) {
  Rng rng(242);
  Tensor ops = RandomAtDensity({2, 5, 17, 17}, 0.12, rng);
  ASSERT_TRUE(ShouldRouteSparse(MeasureDensity(ops)));
  Tensor x = Tensor::RandomNormal({2, 3, 5, 17}, rng);
  Tensor gy = Tensor::RandomNormal({2, 3, 5, 17}, rng);
  DynamicVertexMix mix;
  mix.SetOperators(ops.Clone());
  ExpectDeterministicAcrossThreadCounts(
      "sparse DynamicVertexMix fwd+bwd", [&] {
        Tensor y = mix.Forward(x);
        Tensor g = mix.Backward(gy);
        Tensor packed({y.numel() + g.numel()});
        std::memcpy(packed.data(), y.data(), sizeof(float) * y.numel());
        std::memcpy(packed.data() + y.numel(), g.data(),
                    sizeof(float) * g.numel());
        return packed;
      });
}

// Pruned fine-tuned training: the magnitude selection is a strict total
// order over (|w|, flat index) and the routed kernels are
// thread-invariant, so a pruning run must fingerprint identically at
// every thread count.
TEST(ParallelDeterminism, ThreeEpochPrunedTrainingRun) {
  SyntheticDataConfig data_config = NtuLikeConfig(2, 5, 8, 19);
  SkeletonDataset dataset =
      SkeletonDataset::Generate(data_config).MoveValue();
  DatasetSplit split = dataset.RandomSplit(0.3f, 1);

  auto run = [&]() -> TrainingFingerprint {
    DataLoader loader(&dataset, split.train, 4, InputStream::kJoint,
                      /*shuffle=*/true, Rng(5));
    DhgcnConfig config =
        DhgcnConfig::Tiny(SkeletonLayoutType::kNtu25, /*num_classes=*/2);
    DhgcnModel model(config);
    TrainOptions options;
    options.epochs = 3;
    options.initial_lr = 0.01f;
    options.prune.enabled = true;
    options.prune.target_sparsity = 0.5;
    options.prune.start_epoch = 1;
    options.prune.end_epoch = 2;
    Trainer trainer(&model, options);
    TrainingFingerprint fp;
    fp.final_loss = trainer.Train(loader).ValueOrDie().back().mean_loss;
    for (ParamRef& p : model.Params()) fp.params.push_back(p.value->Clone());
    return fp;
  };

  ThreadPool::Get().SetThreads(1);
  TrainingFingerprint serial = run();
  for (int64_t threads : kThreadCounts) {
    ThreadPool::Get().SetThreads(threads);
    TrainingFingerprint parallel = run();
    EXPECT_EQ(parallel.final_loss, serial.final_loss)
        << "threads=" << threads;
    ASSERT_EQ(parallel.params.size(), serial.params.size());
    for (size_t p = 0; p < serial.params.size(); ++p) {
      ExpectBitEqual(serial.params[p], parallel.params[p],
                     "pruned trained parameter", threads);
    }
  }
  ThreadPool::Get().SetThreads(1);
}

// --- Int8 quantized path: integer accumulation is exact, so the int8
// kernel and the full int8 plan replay carry a strictly stronger
// contract than fp32 — bit-identical across thread counts by
// construction, verified by memcmp here. -------------------------------

TEST(ParallelDeterminism, Int8GemmKernelThreadInvariant) {
  // Parallelize the packed kernel over kInt8MR row blocks exactly as
  // the plan replay wrapper does, and memcmp the int32 accumulators.
  const int64_t m = 61, k = 67, n = 53;
  const int64_t k_pad = detail::Int8KPad(k);
  Rng rng(232);
  std::vector<uint8_t> a(m * k_pad, 128);
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t kk = 0; kk < k; ++kk) {
      a[i * k_pad + kk] = static_cast<uint8_t>(1 + rng.Uniform() * 254.0f);
    }
  }
  std::vector<int8_t> b(k * n);
  for (auto& v : b) {
    v = static_cast<int8_t>(
        std::lround(rng.Uniform() * 2.0f * detail::kInt8WeightMax) -
        detail::kInt8WeightMax);
  }
  std::vector<int8_t> bp(detail::Int8PackedBCount(k, n));
  detail::Int8PackB(b.data(), k, n, bp.data());

  auto run = [&](std::vector<int32_t>* c) {
    c->assign(m * n, 0);
    const int64_t blocks = (m + detail::kInt8MR - 1) / detail::kInt8MR;
    ThreadPool::Get().ParallelFor(
        0, blocks, /*grain=*/1, [&](int64_t begin, int64_t end) {
          int64_t row0 = begin * detail::kInt8MR;
          int64_t row1 = std::min(m, end * detail::kInt8MR);
          detail::Int8GemmPackedB(a.data() + row0 * k_pad, k_pad,
                                  bp.data(), c->data() + row0 * n,
                                  row1 - row0, k_pad, n);
        });
  };

  ThreadPool::Get().SetThreads(1);
  std::vector<int32_t> serial;
  run(&serial);
  for (int64_t threads : kThreadCounts) {
    ThreadPool::Get().SetThreads(threads);
    std::vector<int32_t> parallel;
    run(&parallel);
    EXPECT_EQ(std::memcmp(serial.data(), parallel.data(),
                          serial.size() * sizeof(int32_t)),
              0)
        << "int8 GEMM is not bit-identical at threads=" << threads;
  }
  ThreadPool::Get().SetThreads(1);
}

TEST(ParallelDeterminism, PlanReplayInt8ThreadInvariant) {
  DhgcnConfig config =
      DhgcnConfig::Tiny(SkeletonLayoutType::kNtu25, /*num_classes=*/3);
  DhgcnModel model(config);
  model.SetTraining(false);
  Rng rng(233);
  Tensor x = Tensor::RandomNormal({2, 3, 8, 25}, rng);

  ThreadPool::Get().SetThreads(1);
  QuantCalibration calib =
      CalibrateOnInputs(model, {x}).ValueOrDie();
  PlanRunner runner(
      BuildInt8InferencePlan(model, x.shape(), calib).ValueOrDie());
  Tensor serial = runner.Run(x).Clone();
  for (int64_t threads : kThreadCounts) {
    ThreadPool::Get().SetThreads(threads);
    ExpectBitEqual(serial, runner.Run(x), "int8 plan replay", threads);
    // Calibration itself must be thread-invariant too: a fresh
    // calibration + compile under this thread count replays the same
    // bytes.
    QuantCalibration recalib = CalibrateOnInputs(model, {x}).ValueOrDie();
    PlanRunner fresh(
        BuildInt8InferencePlan(model, x.shape(), recalib).ValueOrDie());
    ExpectBitEqual(serial, fresh.Run(x), "fresh int8 plan replay",
                   threads);
  }
  ThreadPool::Get().SetThreads(1);
}

TEST(ParallelDeterminism, PlanReplayFusedThreadInvariant) {
  DhgcnConfig config =
      DhgcnConfig::Tiny(SkeletonLayoutType::kNtu25, /*num_classes=*/3);
  DhgcnModel model(config);
  model.SetTraining(false);
  Rng rng(231);
  Tensor x = Tensor::RandomNormal({2, 3, 8, 25}, rng);

  ThreadPool::Get().SetThreads(1);
  PlanRunner runner(
      BuildInferencePlan(model, x.shape(), PlanMode::kFused)
          .ValueOrDie());
  Tensor serial = runner.Run(x).Clone();
  for (int64_t threads : kThreadCounts) {
    ThreadPool::Get().SetThreads(threads);
    ExpectBitEqual(serial, runner.Run(x), "fused plan replay", threads);
  }
  ThreadPool::Get().SetThreads(1);
}

}  // namespace
}  // namespace dhgcn
