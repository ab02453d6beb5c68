// Deterministic policy tests for the micro-batching admission queue:
// every decision takes `now` explicitly, so these replay exact
// schedules with no threads and no sleeps.

#include "serve/micro_batcher.h"

#include <gtest/gtest.h>

#include "base/fault_injection.h"

namespace dhgcn {
namespace {

constexpr int64_t kMs = 1'000'000;

void Discard(void*, const ServeResponse&) {}

PendingRequest MakeRequest(int64_t id, int64_t submit_ns,
                           int64_t deadline_ns) {
  PendingRequest request;
  request.id = id;
  request.submit_ns = submit_ns;
  request.deadline_ns = deadline_ns;
  request.done_fn = &Discard;
  return request;
}

MicroBatcherOptions TestOptions() {
  MicroBatcherOptions options;
  options.queue_capacity = 8;
  options.max_batch_size = 4;
  options.batch_delay_ns = 2 * kMs;
  options.flush_margin_ns = 1 * kMs;
  options.degrade_cooldown_ns = 20 * kMs;
  options.recover_quiet_ns = 100 * kMs;
  return options;
}

class MicroBatcherTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjection::Get().Reset(); }
  void TearDown() override { FaultInjection::Get().Reset(); }
};

TEST_F(MicroBatcherTest, ValidatesOptions) {
  MicroBatcherOptions options = TestOptions();
  EXPECT_TRUE(options.Validate().ok());
  options.max_batch_size = options.queue_capacity + 1;
  EXPECT_FALSE(options.Validate().ok());
  options = TestOptions();
  options.queue_capacity = 0;
  EXPECT_FALSE(options.Validate().ok());
  options = TestOptions();
  options.batch_delay_ns = -1;
  EXPECT_FALSE(options.Validate().ok());
}

TEST_F(MicroBatcherTest, FlushesWhenFullBatchAccumulates) {
  MicroBatcher batcher(TestOptions());
  int64_t now = 0;
  for (int64_t i = 0; i < 3; ++i) {
    PendingRequest r = MakeRequest(i, now, now + 50 * kMs);
    ASSERT_TRUE(batcher.Admit(&r, now).ok());
    EXPECT_FALSE(batcher.BatchReady(now)) << "i=" << i;
  }
  PendingRequest r = MakeRequest(3, now, now + 50 * kMs);
  ASSERT_TRUE(batcher.Admit(&r, now).ok());
  EXPECT_TRUE(batcher.BatchReady(now));  // count == max_batch_size

  std::vector<PendingRequest> batch;
  batcher.TakeBatch(&batch);
  ASSERT_EQ(batch.size(), 4u);
  EXPECT_EQ(batch[0].id, 0);  // FIFO order
  EXPECT_EQ(batch[3].id, 3);
  EXPECT_TRUE(batcher.empty());
}

TEST_F(MicroBatcherTest, FlushesPartialBatchAtCoalescingDeadline) {
  MicroBatcher batcher(TestOptions());
  PendingRequest r = MakeRequest(1, /*submit_ns=*/0, 50 * kMs);
  ASSERT_TRUE(batcher.Admit(&r, 0).ok());
  // Not ready until submit + batch_delay (2 ms).
  EXPECT_FALSE(batcher.BatchReady(2 * kMs - 1));
  EXPECT_TRUE(batcher.BatchReady(2 * kMs));
  std::vector<PendingRequest> batch;
  batcher.TakeBatch(&batch);
  ASSERT_EQ(batch.size(), 1u);
}

TEST_F(MicroBatcherTest, DeadlineFirstFlushBeatsCoalescingDelay) {
  // A request whose deadline is tighter than the coalescing delay must
  // flush at deadline - flush_margin, not at submit + delay.
  MicroBatcher batcher(TestOptions());
  PendingRequest r = MakeRequest(1, /*submit_ns=*/0,
                                 /*deadline_ns=*/2 * kMs);  // margin 1 ms
  ASSERT_TRUE(batcher.Admit(&r, 0).ok());
  EXPECT_FALSE(batcher.BatchReady(1 * kMs - 1));
  EXPECT_TRUE(batcher.BatchReady(1 * kMs));  // deadline - margin
}

TEST_F(MicroBatcherTest, NanosUntilNextEventTracksEarliestFlush) {
  MicroBatcher batcher(TestOptions());
  int64_t horizon = 5 * kMs;
  EXPECT_EQ(batcher.NanosUntilNextEvent(0, horizon), horizon);  // empty
  PendingRequest r = MakeRequest(1, 0, 50 * kMs);
  ASSERT_TRUE(batcher.Admit(&r, 0).ok());
  EXPECT_EQ(batcher.NanosUntilNextEvent(0, horizon), 2 * kMs);
  EXPECT_EQ(batcher.NanosUntilNextEvent(2 * kMs - 1, horizon), 1);
  EXPECT_EQ(batcher.NanosUntilNextEvent(3 * kMs, horizon), 0);  // overdue
}

TEST_F(MicroBatcherTest, RejectsExpiredAtAdmission) {
  MicroBatcher batcher(TestOptions());
  PendingRequest r = MakeRequest(1, 0, /*deadline_ns=*/10);
  Status admitted = batcher.Admit(&r, /*now_ns=*/10);
  EXPECT_TRUE(admitted.IsDeadlineExceeded());
  EXPECT_TRUE(batcher.empty());
}

TEST_F(MicroBatcherTest, TakeExpiredDrainsOnlyDeadRequests) {
  MicroBatcher batcher(TestOptions());
  PendingRequest dead = MakeRequest(1, 0, 5 * kMs);
  PendingRequest alive = MakeRequest(2, 0, 50 * kMs);
  ASSERT_TRUE(batcher.Admit(&dead, 0).ok());
  ASSERT_TRUE(batcher.Admit(&alive, 0).ok());

  std::vector<PendingRequest> expired;
  batcher.TakeExpired(5 * kMs + 1, &expired);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0].id, 1);
  EXPECT_EQ(batcher.size(), 1);
}

TEST_F(MicroBatcherTest, TakeExpiredKeepsFifoOrderOnBothSides) {
  MicroBatcher batcher(TestOptions());
  // Interleaved: dead, live, dead, live.
  for (int64_t id = 1; id <= 4; ++id) {
    int64_t deadline = id % 2 == 1 ? 5 * kMs : 50 * kMs;
    PendingRequest r = MakeRequest(id, 0, deadline);
    ASSERT_TRUE(batcher.Admit(&r, 0).ok());
  }
  std::vector<PendingRequest> expired;
  expired.reserve(8);
  batcher.TakeExpired(5 * kMs + 1, &expired);
  ASSERT_EQ(expired.size(), 2u);
  EXPECT_EQ(expired[0].id, 1);
  EXPECT_EQ(expired[1].id, 3);
  EXPECT_EQ(batcher.size(), 2);

  std::vector<PendingRequest> batch;
  batcher.TakeBatch(&batch);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].id, 2);
  EXPECT_EQ(batch[1].id, 4);
  EXPECT_TRUE(batcher.empty());
}

TEST_F(MicroBatcherTest, ShedsWithOverloadedWhenFull) {
  MicroBatcherOptions options = TestOptions();
  options.queue_capacity = 2;
  options.max_batch_size = 2;
  MicroBatcher batcher(options);
  for (int64_t i = 0; i < 2; ++i) {
    PendingRequest r = MakeRequest(i, 0, 50 * kMs);
    ASSERT_TRUE(batcher.Admit(&r, 0).ok());
  }
  PendingRequest r = MakeRequest(9, 0, 50 * kMs);
  Status shed = batcher.Admit(&r, 0);
  EXPECT_TRUE(shed.IsOverloaded()) << shed.ToString();
  EXPECT_EQ(batcher.shed_count(), 1);
  // The shed request is handed back intact: caller still owns it.
  EXPECT_EQ(r.id, 9);
  EXPECT_NE(r.done_fn, nullptr);
}

TEST_F(MicroBatcherTest, ShedTriggersDegradationLadder) {
  MicroBatcherOptions options = TestOptions();
  options.queue_capacity = 2;
  options.max_batch_size = 2;  // one degrade level available
  MicroBatcher batcher(options);
  EXPECT_EQ(batcher.target_batch_size(), 2);

  for (int64_t i = 0; i < 2; ++i) {
    PendingRequest r = MakeRequest(i, 0, 50 * kMs);
    ASSERT_TRUE(batcher.Admit(&r, 0).ok());
  }
  PendingRequest shed = MakeRequest(9, 0, 50 * kMs);
  EXPECT_TRUE(batcher.Admit(&shed, 0).IsOverloaded());

  EXPECT_EQ(batcher.degrade_level(), 1);
  EXPECT_EQ(batcher.target_batch_size(), 1);  // halved
  EXPECT_EQ(batcher.effective_delay_ns(),
            options.batch_delay_ns / 2);  // coalesces for less time
  EXPECT_EQ(batcher.degrade_events(), 1);
  // Smaller target: the queued pair is immediately flushable.
  EXPECT_TRUE(batcher.BatchReady(0));
  std::vector<PendingRequest> batch;
  batcher.TakeBatch(&batch);
  EXPECT_EQ(batch.size(), 1u);  // degraded batches are smaller
}

TEST_F(MicroBatcherTest, DegradationIsRateLimitedByCooldown) {
  MicroBatcherOptions options = TestOptions();
  options.queue_capacity = 4;
  options.max_batch_size = 4;  // two degrade levels available
  MicroBatcher batcher(options);
  for (int64_t i = 0; i < 4; ++i) {
    PendingRequest r = MakeRequest(i, 0, 500 * kMs);
    ASSERT_TRUE(batcher.Admit(&r, 0).ok());
  }
  // A burst of sheds inside the cooldown drops exactly one level.
  for (int64_t i = 0; i < 5; ++i) {
    PendingRequest r = MakeRequest(100 + i, 0, 500 * kMs);
    EXPECT_TRUE(batcher.Admit(&r, i).IsOverloaded());
  }
  EXPECT_EQ(batcher.degrade_level(), 1);
  EXPECT_EQ(batcher.shed_count(), 5);

  // A shed after the cooldown drops the second level.
  PendingRequest r = MakeRequest(200, 0, 500 * kMs);
  EXPECT_TRUE(
      batcher.Admit(&r, options.degrade_cooldown_ns + 1).IsOverloaded());
  EXPECT_EQ(batcher.degrade_level(), 2);
  EXPECT_EQ(batcher.target_batch_size(), 1);
}

TEST_F(MicroBatcherTest, RecoversOneLevelPerQuietPeriod) {
  MicroBatcherOptions options = TestOptions();
  options.queue_capacity = 4;
  options.max_batch_size = 4;
  MicroBatcher batcher(options);
  for (int64_t i = 0; i < 4; ++i) {
    PendingRequest r = MakeRequest(i, 0, 5'000 * kMs);
    ASSERT_TRUE(batcher.Admit(&r, 0).ok());
  }
  PendingRequest r1 = MakeRequest(100, 0, 5'000 * kMs);
  EXPECT_TRUE(batcher.Admit(&r1, 0).IsOverloaded());
  PendingRequest r2 = MakeRequest(101, 0, 5'000 * kMs);
  EXPECT_TRUE(
      batcher.Admit(&r2, options.degrade_cooldown_ns + 1).IsOverloaded());
  ASSERT_EQ(batcher.degrade_level(), 2);

  int64_t last_shed = options.degrade_cooldown_ns + 1;
  // Not yet quiet long enough: no recovery.
  batcher.MaybeRecover(last_shed + options.recover_quiet_ns - 1);
  EXPECT_EQ(batcher.degrade_level(), 2);
  // One quiet period: one level back.
  batcher.MaybeRecover(last_shed + options.recover_quiet_ns);
  EXPECT_EQ(batcher.degrade_level(), 1);
  EXPECT_EQ(batcher.recover_events(), 1);
  // Each further level needs its own quiet period.
  batcher.MaybeRecover(last_shed + options.recover_quiet_ns + 1);
  EXPECT_EQ(batcher.degrade_level(), 1);
  batcher.MaybeRecover(last_shed + 2 * options.recover_quiet_ns);
  EXPECT_EQ(batcher.degrade_level(), 0);
  EXPECT_EQ(batcher.target_batch_size(), 4);  // full batches again
}

TEST_F(MicroBatcherTest, QueueFullFaultForcesShed) {
  MicroBatcher batcher(TestOptions());
  FaultInjection::Get().Arm(FaultSite::kServeQueueFull, /*nth=*/1);
  PendingRequest r = MakeRequest(1, 0, 50 * kMs);
  Status shed = batcher.Admit(&r, 0);  // queue is actually empty
  EXPECT_TRUE(shed.IsOverloaded());
  EXPECT_EQ(FaultInjection::Get().fire_count(FaultSite::kServeQueueFull),
            1);
  // One-shot: the next admission succeeds.
  PendingRequest ok = MakeRequest(2, 0, 50 * kMs);
  EXPECT_TRUE(batcher.Admit(&ok, 0).ok());
}

}  // namespace
}  // namespace dhgcn
