// End-to-end tests for the fault-tolerant serving core: correctness
// against a direct forward pass, batch transparency, poison isolation,
// deadline expiry, degradation/recovery, watchdog health, drain on
// shutdown, concurrent replicas against direct forwards, owning
// allocations per warm request, and a multi-client stress run (the TSan
// targets).
//
// lint: allow-thread-file — the stress test spawns client threads and
// the expiry tests sleep on real time; serving is the reviewed
// concurrency exception (DESIGN.md §11).

#include "serve/server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <limits>
#include <thread>
#include <vector>

#include "base/alloc_stats.h"
#include "base/fault_injection.h"
#include "base/rng.h"
#include "base/thread_pool.h"
#include "nn/layer.h"
#include "serve/clock.h"
#include "tensor/workspace.h"

namespace dhgcn {
namespace {

constexpr int64_t kMs = 1'000'000;
constexpr int64_t kFrames = 8;

DhgcnConfig TestConfig() {
  DhgcnConfig config =
      DhgcnConfig::Tiny(SkeletonLayoutType::kNtu25, /*num_classes=*/4);
  return config;
}

ServerOptions TestOptions() {
  ServerOptions options;
  options.worker_count = 1;
  options.batcher.queue_capacity = 16;
  options.batcher.max_batch_size = 4;
  options.batcher.batch_delay_ns = 1 * kMs;
  options.default_deadline_ns = 2'000 * kMs;  // generous: tests control
  return options;
}

Tensor MakeClip(const FrozenModel& model, uint64_t seed) {
  Rng rng(seed);
  Tensor clip({model.config().in_channels, model.frames(),
               model.num_joints()});
  for (int64_t i = 0; i < clip.numel(); ++i) clip.flat(i) = rng.Normal();
  return clip;
}

class ServeServerTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjection::Get().Reset(); }
  void TearDown() override { FaultInjection::Get().Reset(); }
};

TEST_F(ServeServerTest, RejectsInvalidOptions) {
  ServerOptions options = TestOptions();
  options.worker_count = 0;
  auto server = InferenceServer::Create("", TestConfig(), kFrames, options);
  EXPECT_FALSE(server.ok());
  options = TestOptions();
  options.batcher.max_batch_size = options.batcher.queue_capacity + 1;
  server = InferenceServer::Create("", TestConfig(), kFrames, options);
  EXPECT_FALSE(server.ok());
}

TEST_F(ServeServerTest, InferMatchesDirectForward) {
  DhgcnConfig config = TestConfig();
  auto server =
      InferenceServer::Create("", config, kFrames, TestOptions());
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const FrozenModel& served = (*server)->model();
  Tensor clip = MakeClip(served, /*seed=*/3);

  ServeResponse response = (*server)->Infer(clip, SubmitOptions());
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  ASSERT_EQ(response.logits.ndim(), 1);
  ASSERT_EQ(response.logits.dim(0), served.num_classes());
  EXPECT_EQ(response.batch_size, 1);
  EXPECT_GT(response.total_ns, 0);

  // Same config + same seed => an identical reference model.
  auto reference = FrozenModel::Load("", config, kFrames);
  ASSERT_TRUE(reference.ok());
  Workspace ws;
  Tensor batch({1, config.in_channels, kFrames, served.num_joints()});
  for (int64_t i = 0; i < clip.numel(); ++i) batch.flat(i) = clip.flat(i);
  Tensor expected = (*reference)->Forward(batch, ws);
  for (int64_t c = 0; c < served.num_classes(); ++c) {
    EXPECT_EQ(response.logits.flat(c), expected.flat(c)) << "class " << c;
  }
}

TEST_F(ServeServerTest, HugeDeadlineSaturatesInsteadOfOverflowing) {
  auto server =
      InferenceServer::Create("", TestConfig(), kFrames, TestOptions());
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  SubmitOptions submit;
  submit.deadline_ns = std::numeric_limits<int64_t>::max();
  ServeResponse response =
      (*server)->Infer(MakeClip((*server)->model(), 4), submit);
  EXPECT_TRUE(response.status.ok()) << response.status.ToString();
}

TEST(ServeTypesTest, DeadlineAfterSaturatesAtInt64Max) {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  EXPECT_EQ(DeadlineAfter(5, 7), 12);
  EXPECT_EQ(DeadlineAfter(1'000, kMax), kMax);
  EXPECT_EQ(DeadlineAfter(kMax - 1, 1), kMax);
  EXPECT_EQ(DeadlineAfter(kMax, 1), kMax);
  // The load generator's end time for --duration_ms INT64_MAX.
  EXPECT_EQ(DeadlineAfter(1'000, MillisToNanos(kMax)), kMax);
}

TEST_F(ServeServerTest, BatchedForwardIsTransparent) {
  // Rows of a stacked micro-batch must bit-match the same clips run
  // alone — K-means reseeds per frame, not per batch row, so batching
  // is invisible to the caller.
  DhgcnConfig config = TestConfig();
  auto model = FrozenModel::Load("", config, kFrames);
  ASSERT_TRUE(model.ok());
  int64_t v = (*model)->num_joints();
  int64_t numel = (*model)->clip_numel();

  std::vector<Tensor> clips;
  for (uint64_t s = 0; s < 3; ++s) clips.push_back(MakeClip(**model, s));

  Tensor stacked({3, config.in_channels, kFrames, v});
  for (int64_t b = 0; b < 3; ++b) {
    for (int64_t i = 0; i < numel; ++i) {
      stacked.flat(b * numel + i) = clips[static_cast<size_t>(b)].flat(i);
    }
  }
  Workspace batch_ws;
  Tensor batched = (*model)->Forward(stacked, batch_ws);

  for (int64_t b = 0; b < 3; ++b) {
    Tensor single({1, config.in_channels, kFrames, v});
    for (int64_t i = 0; i < numel; ++i) {
      single.flat(i) = clips[static_cast<size_t>(b)].flat(i);
    }
    Workspace ws;
    Tensor alone = (*model)->Forward(single, ws);
    for (int64_t c = 0; c < (*model)->num_classes(); ++c) {
      EXPECT_EQ(batched.flat(b * (*model)->num_classes() + c),
                alone.flat(c))
          << "row " << b << " class " << c;
    }
  }
}

TEST_F(ServeServerTest, RejectsWrongShapeSynchronously) {
  auto server =
      InferenceServer::Create("", TestConfig(), kFrames, TestOptions());
  ASSERT_TRUE(server.ok());
  Tensor bad({3, kFrames + 1, (*server)->model().num_joints()});
  ServeResponse response = (*server)->Infer(bad, SubmitOptions());
  EXPECT_TRUE(response.status.IsInvalidArgument());
  EXPECT_EQ((*server)->Stats().admitted, 0);
}

TEST_F(ServeServerTest, PoisonedClipFailsAloneBatchmatesSucceed) {
  DhgcnConfig config = TestConfig();
  ServerOptions options = TestOptions();
  options.batcher.batch_delay_ns = 20 * kMs;  // coalesce the pair
  auto server = InferenceServer::Create("", config, kFrames, options);
  ASSERT_TRUE(server.ok());
  Tensor good = MakeClip((*server)->model(), 5);
  Tensor poisoned = MakeClip((*server)->model(), 6);
  poisoned.flat(7) = std::numeric_limits<float>::quiet_NaN();

  struct Sink {
    std::atomic<int> ok{0};
    std::atomic<int> invalid{0};
    std::atomic<int> done{0};
  } sink;
  auto done = +[](void* ctx, const ServeResponse& response) {
    Sink* s = static_cast<Sink*>(ctx);
    if (response.status.ok()) ++s->ok;
    if (response.status.IsInvalidArgument()) ++s->invalid;
    ++s->done;
  };
  // The poisoned clip is quarantined at admission (its callback never
  // fires); the batchmate submitted after it is still answered.
  Status poisoned_status =
      (*server)->Submit(poisoned, SubmitOptions(), done, &sink);
  EXPECT_TRUE(poisoned_status.IsInvalidArgument())
      << poisoned_status.ToString();
  ASSERT_TRUE((*server)->Submit(good, SubmitOptions(), done, &sink).ok());
  while (sink.done.load() < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(sink.ok.load(), 1);
  EXPECT_EQ(sink.invalid.load(), 0);
  ServeStats stats = (*server)->Stats();
  EXPECT_EQ(stats.invalid_input, 1);
  EXPECT_EQ(stats.admitted, 1);
  EXPECT_EQ(stats.completed_ok, 1);
}

TEST_F(ServeServerTest, PoisonInputFaultSiteQuarantines) {
  auto server =
      InferenceServer::Create("", TestConfig(), kFrames, TestOptions());
  ASSERT_TRUE(server.ok());
  Tensor clip = MakeClip((*server)->model(), 8);
  FaultInjection::Get().Arm(FaultSite::kServePoisonInput, /*nth=*/1);
  ServeResponse response = (*server)->Infer(clip, SubmitOptions());
  EXPECT_TRUE(response.status.IsInvalidArgument())
      << response.status.ToString();
  // One-shot: the same clip (caller buffer untouched) now succeeds.
  response = (*server)->Infer(clip, SubmitOptions());
  EXPECT_TRUE(response.status.ok()) << response.status.ToString();
}

TEST_F(ServeServerTest, QueuedRequestExpiresWithoutCompute) {
  FakeServeClock clock(1'000 * kMs);
  ServerOptions options = TestOptions();
  options.batcher.batch_delay_ns = 100 * kMs;  // hold the queue
  auto server = InferenceServer::Create("", TestConfig(), kFrames,
                                        options, &clock);
  ASSERT_TRUE(server.ok());
  Tensor clip = MakeClip((*server)->model(), 9);

  struct Sink {
    std::atomic<int> expired{0};
    std::atomic<int> done{0};
  } sink;
  auto done = +[](void* ctx, const ServeResponse& response) {
    Sink* s = static_cast<Sink*>(ctx);
    if (response.status.IsDeadlineExceeded()) ++s->expired;
    ++s->done;
  };
  SubmitOptions submit;
  submit.deadline_ns = 10 * kMs;
  ASSERT_TRUE((*server)->Submit(clip, submit, done, &sink).ok());
  // Fake time jumps straight past the deadline: the worker must expire
  // the request without running the model.
  clock.AdvanceMillis(11);
  while (sink.done.load() < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(sink.expired.load(), 1);
  ServeStats stats = (*server)->Stats();
  EXPECT_EQ(stats.expired, 1);
  EXPECT_EQ(stats.batches, 0);  // no compute was spent
}

TEST_F(ServeServerTest, QueueFullFaultShedsAndLadderRecovers) {
  FakeServeClock clock(1'000 * kMs);
  ServerOptions options = TestOptions();
  // Zero coalescing delay: with a frozen fake clock, a batch must still
  // become flushable the moment it is admitted.
  options.batcher.batch_delay_ns = 0;
  auto server = InferenceServer::Create("", TestConfig(), kFrames,
                                        options, &clock);
  ASSERT_TRUE(server.ok());
  Tensor clip = MakeClip((*server)->model(), 11);

  FaultInjection::Get().Arm(FaultSite::kServeQueueFull, /*nth=*/1);
  ServeResponse shed = (*server)->Infer(clip, SubmitOptions());
  EXPECT_TRUE(shed.status.IsOverloaded()) << shed.status.ToString();

  HealthReport health = (*server)->Health();
  EXPECT_EQ(health.state, ServeHealth::kDegraded);
  EXPECT_EQ(health.degrade_level, 1);
  EXPECT_EQ(health.target_batch_size,
            (*server)->options().batcher.max_batch_size / 2);
  ServeStats stats = (*server)->Stats();
  EXPECT_EQ(stats.shed_overloaded, 1);
  EXPECT_EQ(stats.degrade_events, 1);

  // A shed-free quiet period steps the ladder back to full batches.
  clock.AdvanceNanos((*server)->options().batcher.recover_quiet_ns + kMs);
  ServeResponse ok = (*server)->Infer(clip, SubmitOptions());
  EXPECT_TRUE(ok.status.ok()) << ok.status.ToString();
  health = (*server)->Health();
  EXPECT_EQ(health.degrade_level, 0);
  EXPECT_EQ(health.state, ServeHealth::kReady);
  EXPECT_EQ((*server)->Stats().recover_events, 1);
}

TEST_F(ServeServerTest, WatchdogReportsStalledWorker) {
  ServerOptions options = TestOptions();
  options.stall_threshold_ns = 5 * kMs;
  auto server =
      InferenceServer::Create("", TestConfig(), kFrames, options);
  ASSERT_TRUE(server.ok());
  Tensor clip = MakeClip((*server)->model(), 12);

  // Stall the (only) worker for 80 ms mid-batch: with a 5 ms threshold
  // the watchdog must observe kUnhealthy while it sleeps, then recover.
  FaultInjection::Get().Arm(FaultSite::kServeWorkerStall, /*nth=*/1,
                            /*payload=*/80);
  std::atomic<int> done{0};
  ASSERT_TRUE((*server)
                  ->Submit(
                      clip, SubmitOptions(),
                      +[](void* ctx, const ServeResponse&) {
                        ++*static_cast<std::atomic<int>*>(ctx);
                      },
                      &done)
                  .ok());
  bool saw_stall = false;
  for (int i = 0; i < 200 && done.load() == 0; ++i) {
    HealthReport health = (*server)->Health();
    if (health.state == ServeHealth::kUnhealthy &&
        health.stalled_workers == 1) {
      saw_stall = true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(saw_stall);
  while (done.load() < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ((*server)->Health().stalled_workers, 0);
}

TEST_F(ServeServerTest, ShutdownDrainsEveryAdmittedRequest) {
  ServerOptions options = TestOptions();
  options.batcher.batch_delay_ns = 10 * kMs;
  auto server =
      InferenceServer::Create("", TestConfig(), kFrames, options);
  ASSERT_TRUE(server.ok());
  Tensor clip = MakeClip((*server)->model(), 13);

  std::atomic<int> done{0};
  int admitted = 0;
  for (int i = 0; i < 6; ++i) {
    Status status = (*server)->Submit(
        clip, SubmitOptions(),
        +[](void* ctx, const ServeResponse&) {
          ++*static_cast<std::atomic<int>*>(ctx);
        },
        &done);
    if (status.ok()) ++admitted;
  }
  (*server)->Shutdown();  // must drain, not drop
  EXPECT_EQ(done.load(), admitted);

  // After shutdown: submissions rejected, health reports the state.
  Status late = (*server)->Submit(
      clip, SubmitOptions(), +[](void*, const ServeResponse&) {}, nullptr);
  EXPECT_TRUE(late.IsFailedPrecondition());
  EXPECT_EQ((*server)->Health().state, ServeHealth::kShuttingDown);
  (*server)->Shutdown();  // idempotent
}

TEST_F(ServeServerTest, MultiClientStressCompletesEveryRequest) {
  // The TSan target: concurrent submitters, two workers, occasional
  // client-side poisoning. Every accepted request must complete with a
  // classified status; counters must balance.
  DhgcnConfig config = TestConfig();
  ServerOptions options = TestOptions();
  options.worker_count = 2;
  options.batcher.queue_capacity = 32;
  auto server = InferenceServer::Create("", config, kFrames, options);
  ASSERT_TRUE(server.ok());

  constexpr int kClients = 4;
  constexpr int kPerClient = 25;
  std::atomic<int> ok{0}, invalid{0}, expired{0}, shed{0}, other{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Tensor clip = MakeClip((*server)->model(),
                             static_cast<uint64_t>(100 + c));
      for (int i = 0; i < kPerClient; ++i) {
        Tensor sent = clip.Clone();
        if (i % 7 == 3) {
          sent.flat(0) = std::numeric_limits<float>::quiet_NaN();
        }
        ServeResponse response = (*server)->Infer(sent, SubmitOptions());
        if (response.status.ok()) {
          ++ok;
        } else if (response.status.IsInvalidArgument()) {
          ++invalid;
        } else if (response.status.IsDeadlineExceeded()) {
          ++expired;
        } else if (response.status.IsOverloaded()) {
          ++shed;
        } else {
          ++other;
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(ok + invalid + expired + shed + other, kClients * kPerClient);
  EXPECT_EQ(other.load(), 0);
  EXPECT_EQ(invalid.load(), kClients * 4);  // i in {3,10,17,24}
  EXPECT_GT(ok.load(), 0);
  ServeStats stats = (*server)->Stats();
  EXPECT_EQ(stats.completed_ok, ok.load());
  EXPECT_EQ(stats.invalid_input, invalid.load());
  // Exactly-once completion: every admitted request landed in one of
  // the completion counters (expired also counts admission-time expiry,
  // hence >=).
  EXPECT_GE(stats.completed_ok + stats.invalid_input + stats.expired,
            stats.admitted);
  (*server)->Shutdown();
}

// Two workers forward concurrently on their own replicas, with no lock
// around the forward: kernel scratch belongs to each worker's thread and
// the intra-op pool runs a second concurrent caller inline. Every
// answer must still be memcmp-equal to a direct batch-1 forward of its
// clip. A TSan target: a kernel scratch arena shared between the
// workers would race here.
void ExpectConcurrentReplicasMatchDirectForward(PlanMode plan) {
  DhgcnConfig config = TestConfig();
  auto reference = FrozenModel::Load("", config, kFrames, plan);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  constexpr int kClients = 4;
  constexpr int kPerClient = 8;
  std::vector<Tensor> clips;
  std::vector<Tensor> expected;
  Workspace ws;
  for (int i = 0; i < kClients * kPerClient; ++i) {
    Tensor clip = MakeClip(**reference, static_cast<uint64_t>(200 + i));
    Tensor batch({1, config.in_channels, kFrames,
                  (*reference)->num_joints()});
    std::memcpy(batch.data(), clip.data(),
                static_cast<size_t>(clip.numel()) * sizeof(float));
    ws.Reset();
    expected.push_back((*reference)->Forward(batch, ws).Clone());
    clips.push_back(std::move(clip));
  }

  ServerOptions options = TestOptions();
  options.worker_count = 2;
  options.plan_mode = plan;
  auto server = InferenceServer::Create("", config, kFrames, options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  // A multi-thread pool: one worker's forward publishes pool jobs while
  // the other's runs inline.
  const int64_t previous_threads = ThreadPool::Get().thread_count();
  ThreadPool::Get().SetThreads(2);
  SubmitOptions submit;
  submit.deadline_ns = 60'000 * kMs;  // answers, not expiries, are tested
  std::atomic<int> ok{0}, mismatched{0}, failed{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = c * kPerClient; i < (c + 1) * kPerClient; ++i) {
        ServeResponse response =
            (*server)->Infer(clips[static_cast<size_t>(i)], submit);
        if (!response.status.ok()) {
          ++failed;
          continue;
        }
        ++ok;
        const Tensor& want = expected[static_cast<size_t>(i)];
        if (response.logits.numel() != want.numel() ||
            std::memcmp(response.logits.data(), want.data(),
                        static_cast<size_t>(want.numel()) *
                            sizeof(float)) != 0) {
          ++mismatched;
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  (*server)->Shutdown();
  ThreadPool::Get().SetThreads(previous_threads);

  EXPECT_EQ(failed.load(), 0);
  EXPECT_EQ(ok.load(), kClients * kPerClient);
  EXPECT_EQ(mismatched.load(), 0);
}

TEST_F(ServeServerTest, ConcurrentReplicasMatchDirectForwardUnfusedPlan) {
  ExpectConcurrentReplicasMatchDirectForward(PlanMode::kUnfused);
}

TEST_F(ServeServerTest, ConcurrentReplicasMatchDirectForwardFusedPlan) {
  ExpectConcurrentReplicasMatchDirectForward(PlanMode::kFused);
}

// Once the worker is warm, a served request makes two owning tensor
// allocations: the admitted clip's Clone and the response's logits row.
// Everything else reuses the replica's plan for batch size 1 and the
// worker's arena; a per-batch plan compile (fused plans fold BatchNorm
// into fresh tensors) fails this.
TEST_F(ServeServerTest, WarmRequestsMakeTwoOwningAllocationsEach) {
  ServerOptions options = TestOptions();
  options.batcher.batch_delay_ns = 0;
  options.plan_mode = PlanMode::kFused;
  auto server = InferenceServer::Create("", TestConfig(), kFrames, options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const Tensor clip = MakeClip((*server)->model(), /*seed=*/7);
  for (int warm = 0; warm < 2; ++warm) {
    ASSERT_TRUE((*server)->Infer(clip, SubmitOptions()).status.ok());
  }
  constexpr uint64_t kRequests = 16;
  AllocStatsGuard guard;
  for (uint64_t i = 0; i < kRequests; ++i) {
    ServeResponse response = (*server)->Infer(clip, SubmitOptions());
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    ASSERT_EQ(response.batch_size, 1);
  }
  EXPECT_LE(guard.allocations(), 2 * kRequests);
  (*server)->Shutdown();
}

}  // namespace
}  // namespace dhgcn
