#include "lira/server/update_queue.h"

#include <set>
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

TEST(UpdateQueueTest, CreateValidation) {
  EXPECT_FALSE(UpdateQueue::Create(0, 1).ok());
  EXPECT_TRUE(UpdateQueue::Create(1, 1).ok());
}

TEST(UpdateQueueTest, OfferAndDrain) {
  auto queue = UpdateQueue::Create(10, 7);
  ASSERT_TRUE(queue.ok());
  EXPECT_EQ(queue->OfferAll(Batch(5)), 0);
  EXPECT_EQ(queue->size(), 5u);
  std::vector<ModelUpdate> drained;
  queue->Drain(3, &drained);
  EXPECT_EQ(drained.size(), 3u);
  EXPECT_EQ(queue->size(), 2u);
  queue->Drain(100, &drained);
  EXPECT_EQ(drained.size(), 2u);
  queue->Drain(10, &drained);
  EXPECT_TRUE(drained.empty());
}

TEST(UpdateQueueTest, DrainClearsTheCallersBufferAndKeepsItsCapacity) {
  auto queue = UpdateQueue::Create(100, 7);
  ASSERT_TRUE(queue.ok());
  std::vector<ModelUpdate> drained = Batch(40, 500);  // stale contents
  const size_t capacity = drained.capacity();
  queue->OfferAll(Batch(3));
  queue->Drain(10, &drained);
  ASSERT_EQ(drained.size(), 3u);
  for (const ModelUpdate& u : drained) {
    EXPECT_LT(u.node_id, 3);
  }
  EXPECT_EQ(drained.capacity(), capacity);
  EXPECT_EQ(queue->total_served(), 3);
}

TEST(UpdateQueueTest, DropsBeyondCapacity) {
  auto queue = UpdateQueue::Create(4, 7);
  ASSERT_TRUE(queue.ok());
  EXPECT_EQ(queue->OfferAll(Batch(10)), 6);
  EXPECT_EQ(queue->size(), 4u);
  EXPECT_EQ(queue->total_dropped(), 6);
  EXPECT_EQ(queue->total_arrivals(), 10);
}

TEST(UpdateQueueTest, OverloadDropsARandomSubsetNotATailPrefix) {
  // With shuffled admission, the survivors of an overloaded batch should
  // not always be ids 0..capacity-1.
  auto queue = UpdateQueue::Create(8, 99);
  ASSERT_TRUE(queue.ok());
  queue->OfferAll(Batch(64));
  std::set<NodeId> survivors;
  std::vector<ModelUpdate> drained;
  queue->Drain(100, &drained);
  for (const ModelUpdate& u : drained) {
    survivors.insert(u.node_id);
  }
  ASSERT_EQ(survivors.size(), 8u);
  EXPECT_GT(*survivors.rbegin(), 7);  // at least one id beyond the prefix
}

TEST(UpdateQueueTest, AdmittedSubsetIsRoughlyUniform) {
  // Every id should survive with probability ~ capacity / batch over many
  // rounds.
  auto queue = UpdateQueue::Create(10, 5);
  ASSERT_TRUE(queue.ok());
  std::vector<int> hits(50, 0);
  const int rounds = 2000;
  std::vector<ModelUpdate> drained;
  for (int r = 0; r < rounds; ++r) {
    queue->OfferAll(Batch(50));
    queue->Drain(100, &drained);
    for (const ModelUpdate& u : drained) {
      ++hits[u.node_id];
    }
  }
  for (int id = 0; id < 50; ++id) {
    EXPECT_NEAR(static_cast<double>(hits[id]) / rounds, 0.2, 0.05)
        << "id " << id;
  }
}

TEST(UpdateQueueTest, WindowCountersResetIndependently) {
  auto queue = UpdateQueue::Create(100, 7);
  ASSERT_TRUE(queue.ok());
  queue->OfferAll(Batch(5));
  std::vector<ModelUpdate> drained;
  queue->Drain(2, &drained);
  EXPECT_EQ(queue->window_arrivals(), 5);
  EXPECT_EQ(queue->window_served(), 2);
  queue->ResetWindow();
  EXPECT_EQ(queue->window_arrivals(), 0);
  EXPECT_EQ(queue->window_served(), 0);
  EXPECT_EQ(queue->total_arrivals(), 5);
  EXPECT_EQ(queue->total_served(), 2);
  queue->OfferAll(Batch(3));
  EXPECT_EQ(queue->window_arrivals(), 3);
  EXPECT_EQ(queue->total_arrivals(), 8);
}

TEST(UpdateQueueTest, WindowDroppedCountsPerWindowLoss) {
  auto queue = UpdateQueue::Create(4, 7);
  ASSERT_TRUE(queue.ok());
  EXPECT_EQ(queue->window_dropped(), 0);
  queue->OfferAll(Batch(10));  // 6 dropped
  EXPECT_EQ(queue->window_dropped(), 6);
  std::vector<ModelUpdate> drained;
  queue->Drain(100, &drained);
  queue->OfferAll(Batch(6));  // 2 dropped
  EXPECT_EQ(queue->window_dropped(), 8);
  EXPECT_EQ(queue->total_dropped(), 8);
  queue->ResetWindow();
  EXPECT_EQ(queue->window_dropped(), 0);
  EXPECT_EQ(queue->total_dropped(), 8);  // lifetime total unaffected
  queue->Drain(100, &drained);
  queue->OfferAll(Batch(5));  // 1 dropped in the new window
  EXPECT_EQ(queue->window_dropped(), 1);
  EXPECT_EQ(queue->total_dropped(), 9);
}

TEST(UpdateQueueTest, HighWatermarkTracksDeepestFill) {
  auto queue = UpdateQueue::Create(10, 7);
  ASSERT_TRUE(queue.ok());
  EXPECT_EQ(queue->high_watermark(), 0u);
  queue->OfferAll(Batch(3));
  EXPECT_EQ(queue->high_watermark(), 3u);
  std::vector<ModelUpdate> drained;
  queue->Drain(2, &drained);
  queue->OfferAll(Batch(6));  // depth 7
  EXPECT_EQ(queue->high_watermark(), 7u);
  queue->Drain(100, &drained);
  queue->OfferAll(Batch(1));
  EXPECT_EQ(queue->high_watermark(), 7u);  // never decreases
  queue->OfferAll(Batch(20));              // clamps at capacity
  EXPECT_EQ(queue->high_watermark(), 10u);
}

TEST(UpdateQueueTest, FifoAcrossBatches) {
  auto queue = UpdateQueue::Create(100, 7);
  ASSERT_TRUE(queue.ok());
  queue->OfferAll(Batch(3, 0));
  queue->OfferAll(Batch(3, 100));
  std::vector<ModelUpdate> drained;
  queue->Drain(6, &drained);
  ASSERT_EQ(drained.size(), 6u);
  // First batch's elements (whatever their intra-batch order) come first.
  for (int i = 0; i < 3; ++i) {
    EXPECT_LT(drained[i].node_id, 100);
    EXPECT_GE(drained[3 + i].node_id, 100);
  }
}

}  // namespace
}  // namespace lira
