// Unit tests for src/cluster: the fair-share ledgers and the indexed heap
// that the multi-tenant job service schedules with.

#include <gtest/gtest.h>

#include <stdexcept>

#include "cluster/fair_share.hpp"
#include "cluster/indexed_heap.hpp"

namespace hpbdc::cluster {
namespace {

// ---- fair-share ledgers -------------------------------------------------------

TEST(FairShare, RefundNeverMintsPriority) {
  UsageLedger ledger;
  ledger.charge(0, 5.0);
  ledger.refund(0, 10.0);  // double-refund from a task retry
  EXPECT_EQ(ledger.usage(0), 0.0);
  ledger.charge(0, 3.0);
  EXPECT_EQ(ledger.usage(0), 3.0);  // not 3 - 5: the balance was clamped
  EXPECT_THROW(ledger.charge(0, -1.0), std::invalid_argument);
  EXPECT_THROW(ledger.refund(0, -1.0), std::invalid_argument);
}

TEST(FairShare, DrfLedgerClampsReleaseAndValidates) {
  DrfLedger drf({4.0, 100.0});
  drf.acquire(1, {1.0, 20.0});
  EXPECT_DOUBLE_EQ(drf.dominant_share(1), 1.0 / 4.0);
  drf.release(1, {5.0, 500.0});  // retried task releases more than it held
  EXPECT_DOUBLE_EQ(drf.dominant_share(1), 0.0);
  EXPECT_DOUBLE_EQ(drf.total_in_use(0), 0.0);
  EXPECT_THROW(drf.acquire(1, {1.0}), std::invalid_argument);
  EXPECT_THROW(DrfLedger({1.0, 0.0}), std::invalid_argument);
}

// ---- IndexedHeap -----------------------------------------------------------------

TEST(IndexedHeap, OrdersByKeyAndPopsInOrder) {
  IndexedHeap<int, double> h;
  h.push(1, 3.0);
  h.push(2, 1.0);
  h.push(3, 2.0);
  EXPECT_EQ(h.size(), 3u);
  EXPECT_EQ(h.top_id(), 2);
  EXPECT_EQ(h.pop(), 2);
  EXPECT_EQ(h.pop(), 3);
  EXPECT_EQ(h.pop(), 1);
  EXPECT_TRUE(h.empty());
}

TEST(IndexedHeap, UpdateReordersInPlace) {
  IndexedHeap<int, double> h;
  for (int i = 0; i < 8; ++i) h.push(i, static_cast<double>(i));
  EXPECT_EQ(h.top_id(), 0);
  h.update(7, -1.0);  // decrease-key
  EXPECT_EQ(h.top_id(), 7);
  h.update(7, 100.0);  // increase-key
  EXPECT_EQ(h.top_id(), 0);
  h.upsert(0, 50.0);  // upsert on present id = update
  EXPECT_EQ(h.top_id(), 1);
  h.upsert(99, -5.0);  // upsert on absent id = push
  EXPECT_EQ(h.top_id(), 99);
}

TEST(IndexedHeap, EraseMiddleKeepsInvariant) {
  IndexedHeap<int, double> h;
  for (int i = 0; i < 10; ++i) h.push(i, static_cast<double>((i * 7) % 10));
  EXPECT_TRUE(h.erase(4));
  EXPECT_FALSE(h.erase(4));  // already gone
  EXPECT_FALSE(h.contains(4));
  double prev = -1;
  while (!h.empty()) {
    const double k = h.top_key();
    EXPECT_GE(k, prev);
    prev = k;
    h.pop();
  }
}

TEST(IndexedHeap, RejectsDuplicatePushAndAbsentUpdate) {
  IndexedHeap<int, double> h;
  h.push(1, 1.0);
  EXPECT_THROW(h.push(1, 2.0), std::logic_error);
  EXPECT_THROW(h.update(2, 1.0), std::logic_error);
}

}  // namespace
}  // namespace hpbdc::cluster
