#include "lira/server/update_queue.h"

#include <cstdint>
#include <limits>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace lira {
namespace {

ModelUpdate Make(NodeId id) {
  ModelUpdate u;
  u.node_id = id;
  return u;
}

std::vector<ModelUpdate> Batch(int count, int first_id = 0) {
  std::vector<ModelUpdate> batch;
  for (int i = 0; i < count; ++i) {
    batch.push_back(Make(first_id + i));
  }
  return batch;
}

/// A queue served at 1 update/s, so Serve(n, ...) dequeues up to n updates.
UpdateQueue MustCreate(size_t capacity, uint64_t seed) {
  auto queue = UpdateQueue::Create(capacity, /*service_rate=*/1.0, seed);
  EXPECT_TRUE(queue.ok());
  return *std::move(queue);
}

int64_t Offer(UpdateQueue& queue, std::vector<ModelUpdate> batch) {
  return queue.Receive(&batch);
}

/// FNV-1a 64 over the little-endian bytes of `value`.
uint64_t HashLittleEndian(uint64_t h, uint64_t value, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    h ^= (value >> (8 * i)) & 0xff;
    h *= 1099511628211ULL;
  }
  return h;
}

TEST(UpdateQueueTest, CreateValidation) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(UpdateQueue::Create(1, 1.0, 1).ok());
  EXPECT_FALSE(UpdateQueue::Create(0, 1.0, 1).ok());
  EXPECT_FALSE(UpdateQueue::Create(1, 0.0, 1).ok());
  EXPECT_FALSE(UpdateQueue::Create(1, -2.0, 1).ok());
  EXPECT_FALSE(UpdateQueue::Create(1, kNaN, 1).ok());
  EXPECT_FALSE(UpdateQueue::Create(1, kInf, 1).ok());
}

TEST(UpdateQueueTest, EmptyAndCapacity) {
  UpdateQueue queue = MustCreate(3, 7);
  EXPECT_EQ(queue.size(), 0u);
  EXPECT_EQ(queue.capacity(), 3u);
  Offer(queue, Batch(1));
  EXPECT_EQ(queue.size(), 1u);
}

TEST(UpdateQueueTest, ReceiveAndServe) {
  UpdateQueue queue = MustCreate(10, 7);
  EXPECT_EQ(Offer(queue, Batch(5)), 0);
  EXPECT_EQ(queue.size(), 5u);
  std::vector<ModelUpdate> served;
  queue.Serve(3, &served);
  EXPECT_EQ(served.size(), 3u);
  EXPECT_EQ(queue.size(), 2u);
  queue.Serve(100, &served);
  EXPECT_EQ(served.size(), 2u);
  queue.Serve(10, &served);
  EXPECT_TRUE(served.empty());
}

TEST(UpdateQueueTest, SpaceReopensAfterServe) {
  UpdateQueue queue = MustCreate(1, 7);
  EXPECT_EQ(Offer(queue, Batch(1, 1)), 0);
  EXPECT_EQ(Offer(queue, Batch(1, 2)), 1);
  std::vector<ModelUpdate> served;
  queue.Serve(1, &served);
  ASSERT_EQ(served.size(), 1u);
  EXPECT_EQ(served[0].node_id, 1);
  EXPECT_EQ(Offer(queue, Batch(1, 3)), 0);
  queue.Serve(1, &served);
  ASSERT_EQ(served.size(), 1u);
  EXPECT_EQ(served[0].node_id, 3);
}

TEST(UpdateQueueTest, ServeClearsTheCallersBufferAndKeepsItsCapacity) {
  UpdateQueue queue = MustCreate(100, 7);
  std::vector<ModelUpdate> served = Batch(40, 500);  // stale contents
  const size_t capacity = served.capacity();
  Offer(queue, Batch(3));
  queue.Serve(10, &served);
  ASSERT_EQ(served.size(), 3u);
  for (const ModelUpdate& u : served) {
    EXPECT_LT(u.node_id, 3);
  }
  EXPECT_EQ(served.capacity(), capacity);
  EXPECT_EQ(queue.total_served(), 3);
}

TEST(UpdateQueueTest, DropsBeyondCapacity) {
  UpdateQueue queue = MustCreate(4, 7);
  EXPECT_EQ(Offer(queue, Batch(10)), 6);
  EXPECT_EQ(queue.size(), 4u);
  EXPECT_EQ(queue.total_dropped(), 6);
  EXPECT_EQ(queue.total_arrivals(), 10);
}

TEST(UpdateQueueTest, ReceiveAdmitsUpToCapacityAndReportsDrops) {
  auto queue = UpdateQueue::Create(5, 1000.0, 1234);
  ASSERT_TRUE(queue.ok());
  std::vector<ModelUpdate> batch;
  for (NodeId id = 0; id < 20; ++id) {
    ModelUpdate u = Make(id);
    u.model = LinearMotionModel{{10.0, 10.0}, {0.0, 0.0}, 0.0};
    batch.push_back(u);
  }
  EXPECT_EQ(queue->Receive(&batch), 15);
  EXPECT_EQ(queue->size(), 5u);
  EXPECT_EQ(queue->total_arrivals(), 20);
  EXPECT_EQ(queue->total_dropped(), 15);
}

TEST(UpdateQueueTest, ServiceCreditCarriesFractionsAcrossTicks) {
  auto queue = UpdateQueue::Create(100, 2.5, 1234);
  ASSERT_TRUE(queue.ok());
  Offer(*queue, Batch(10));
  // 2.5 upd/s: 2, then 3 (0.5 credit carried), then 2, ...
  std::vector<ModelUpdate> served;
  queue->Serve(1.0, &served);
  EXPECT_EQ(served.size(), 2u);
  queue->Serve(1.0, &served);
  EXPECT_EQ(served.size(), 3u);
  queue->Serve(1.0, &served);
  EXPECT_EQ(served.size(), 2u);
  queue->Serve(1.0, &served);
  EXPECT_EQ(served.size(), 3u);
  EXPECT_EQ(queue->size(), 0u);
  queue->Serve(1.0, &served);
  EXPECT_TRUE(served.empty());
}

TEST(UpdateQueueTest, OverloadDropsARandomSubsetNotATailPrefix) {
  // With shuffled admission, the survivors of an overloaded batch should
  // not always be ids 0..capacity-1.
  UpdateQueue queue = MustCreate(8, 99);
  Offer(queue, Batch(64));
  std::set<NodeId> survivors;
  std::vector<ModelUpdate> served;
  queue.Serve(100, &served);
  for (const ModelUpdate& u : served) {
    survivors.insert(u.node_id);
  }
  ASSERT_EQ(survivors.size(), 8u);
  EXPECT_GT(*survivors.rbegin(), 7);  // at least one id beyond the prefix
}

TEST(UpdateQueueTest, AdmittedSubsetIsRoughlyUniform) {
  // Every id should survive with probability ~ capacity / batch over many
  // rounds.
  UpdateQueue queue = MustCreate(10, 5);
  std::vector<int> hits(50, 0);
  const int rounds = 2000;
  std::vector<ModelUpdate> served;
  for (int r = 0; r < rounds; ++r) {
    Offer(queue, Batch(50));
    queue.Serve(100, &served);
    for (const ModelUpdate& u : served) {
      ++hits[u.node_id];
    }
  }
  for (int id = 0; id < 50; ++id) {
    EXPECT_NEAR(static_cast<double>(hits[id]) / rounds, 0.2, 0.05)
        << "id " << id;
  }
}

TEST(UpdateQueueTest, ServedSequenceIsPinned) {
  // Pins the admitted set and the served order bit for bit: the shuffle's
  // draws, the tail drop and the fractional service credit.
  auto queue = UpdateQueue::Create(64, 37.5, 99);
  ASSERT_TRUE(queue.ok());
  uint64_t h = 1469598103934665603ULL;
  std::vector<ModelUpdate> batch;
  std::vector<ModelUpdate> served;
  for (int k = 0; k < 40; ++k) {
    batch.clear();
    const int count = (k * 37) % 151;
    for (int i = 0; i < count; ++i) {
      ModelUpdate u = Make(1000 * k + i);
      u.model = LinearMotionModel{{static_cast<double>(i), 2.0 * k},
                                  {0.0, 0.0},
                                  static_cast<double>(k)};
      batch.push_back(u);
    }
    const int64_t dropped = queue->Receive(&batch);
    h = HashLittleEndian(h, static_cast<uint64_t>(dropped), 8);
    queue->Serve(k % 3 == 0 ? 0.4 : 1.0, &served);
    for (const ModelUpdate& u : served) {
      h = HashLittleEndian(h, static_cast<uint32_t>(u.node_id), 4);
    }
  }
  EXPECT_EQ(h, 0xba5f7b83bf802bd7ULL);
  EXPECT_EQ(queue->total_arrivals(), 3039);
  EXPECT_EQ(queue->total_dropped(), 1820);
  EXPECT_EQ(queue->total_served(), 1170);
  EXPECT_EQ(queue->size(), 49u);
  EXPECT_EQ(queue->high_watermark(), 64u);
}

TEST(UpdateQueueTest, WindowCountersResetIndependently) {
  UpdateQueue queue = MustCreate(100, 7);
  Offer(queue, Batch(5));
  std::vector<ModelUpdate> served;
  queue.Serve(2, &served);
  EXPECT_EQ(queue.window_arrivals(), 5);
  EXPECT_EQ(queue.window_served(), 2);
  queue.ResetWindow();
  EXPECT_EQ(queue.window_arrivals(), 0);
  EXPECT_EQ(queue.window_served(), 0);
  EXPECT_EQ(queue.total_arrivals(), 5);
  EXPECT_EQ(queue.total_served(), 2);
  Offer(queue, Batch(3));
  EXPECT_EQ(queue.window_arrivals(), 3);
  EXPECT_EQ(queue.total_arrivals(), 8);
}

TEST(UpdateQueueTest, WindowResetSupportsThrotloopMeasurement) {
  UpdateQueue queue = MustCreate(8, 1234);
  Offer(queue, Batch(10));
  EXPECT_EQ(queue.window_arrivals(), 10);
  EXPECT_EQ(queue.window_dropped(), 2);
  queue.ResetWindow();
  EXPECT_EQ(queue.window_arrivals(), 0);
  EXPECT_EQ(queue.window_dropped(), 0);
  EXPECT_EQ(queue.total_arrivals(), 10);
}

TEST(UpdateQueueTest, WindowDroppedCountsPerWindowLoss) {
  UpdateQueue queue = MustCreate(4, 7);
  EXPECT_EQ(queue.window_dropped(), 0);
  Offer(queue, Batch(10));  // 6 dropped
  EXPECT_EQ(queue.window_dropped(), 6);
  std::vector<ModelUpdate> served;
  queue.Serve(100, &served);
  Offer(queue, Batch(6));  // 2 dropped
  EXPECT_EQ(queue.window_dropped(), 8);
  EXPECT_EQ(queue.total_dropped(), 8);
  queue.ResetWindow();
  EXPECT_EQ(queue.window_dropped(), 0);
  EXPECT_EQ(queue.total_dropped(), 8);  // lifetime total unaffected
  queue.Serve(100, &served);
  Offer(queue, Batch(5));  // 1 dropped in the new window
  EXPECT_EQ(queue.window_dropped(), 1);
  EXPECT_EQ(queue.total_dropped(), 9);
}

TEST(UpdateQueueTest, HighWatermarkTracksDeepestFill) {
  UpdateQueue queue = MustCreate(10, 7);
  EXPECT_EQ(queue.high_watermark(), 0u);
  Offer(queue, Batch(3));
  EXPECT_EQ(queue.high_watermark(), 3u);
  std::vector<ModelUpdate> served;
  queue.Serve(2, &served);
  Offer(queue, Batch(6));  // depth 7
  EXPECT_EQ(queue.high_watermark(), 7u);
  queue.Serve(100, &served);
  Offer(queue, Batch(1));
  EXPECT_EQ(queue.high_watermark(), 7u);  // never decreases
  Offer(queue, Batch(20));                // clamps at capacity
  EXPECT_EQ(queue.high_watermark(), 10u);
}

TEST(UpdateQueueTest, FifoAcrossBatches) {
  UpdateQueue queue = MustCreate(100, 7);
  Offer(queue, Batch(3, 0));
  Offer(queue, Batch(3, 100));
  std::vector<ModelUpdate> served;
  queue.Serve(6, &served);
  ASSERT_EQ(served.size(), 6u);
  // First batch's elements (whatever their intra-batch order) come first.
  for (int i = 0; i < 3; ++i) {
    EXPECT_LT(served[i].node_id, 100);
    EXPECT_GE(served[3 + i].node_id, 100);
  }
}

}  // namespace
}  // namespace lira
