// WorkspacePool (core/workspace_pool.hpp): route affinity - acquire()
// must return the entry that last solved the same corridor when one is idle,
// and fall back to LIFO (not FIFO) otherwise so caches stay hot.
#include "core/workspace_pool.hpp"

#include <gtest/gtest.h>

namespace evvo::core {
namespace {

TEST(WorkspacePool, EmptyPoolMintsFreshEntries) {
  WorkspacePool pool;
  EXPECT_EQ(pool.idle_count(), 0u);
  auto entry = pool.acquire(42);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->affinity, 0u);  // never used
  pool.release(std::move(entry));
  EXPECT_EQ(pool.idle_count(), 1u);
}

TEST(WorkspacePool, AcquirePrefersMatchingAffinityOverLifo) {
  WorkspacePool pool;
  auto a = pool.acquire(0);
  auto b = pool.acquire(0);
  WorkspacePool::Entry* const a_ptr = a.get();
  WorkspacePool::Entry* const b_ptr = b.get();
  a->affinity = 111;  // A last solved corridor 111
  b->affinity = 222;  // B last solved corridor 222
  pool.release(std::move(a));
  pool.release(std::move(b));  // B is the LIFO head

  // A plain LIFO list would hand corridor 111's solve entry B and both
  // cached model tables would be rebuilt; affinity matching must return A.
  auto warm = pool.acquire(111);
  EXPECT_EQ(warm.get(), a_ptr);
  auto other = pool.acquire(222);
  EXPECT_EQ(other.get(), b_ptr);
  EXPECT_EQ(pool.idle_count(), 0u);
}

TEST(WorkspacePool, UnmatchedAffinityFallsBackToMostRecent) {
  WorkspacePool pool;
  auto a = pool.acquire(0);
  auto b = pool.acquire(0);
  WorkspacePool::Entry* const b_ptr = b.get();
  a->affinity = 111;
  b->affinity = 222;
  pool.release(std::move(a));
  pool.release(std::move(b));

  // No entry solved corridor 333: take the most recently released (hottest
  // allocations), leaving the older entry idle.
  auto fresh = pool.acquire(333);
  EXPECT_EQ(fresh.get(), b_ptr);
  EXPECT_EQ(pool.idle_count(), 1u);
}

TEST(WorkspacePool, TiesGoToTheMostRecentlyReleasedMatch) {
  WorkspacePool pool;
  auto a = pool.acquire(0);
  auto b = pool.acquire(0);
  WorkspacePool::Entry* const b_ptr = b.get();
  a->affinity = 111;
  b->affinity = 111;
  pool.release(std::move(a));
  pool.release(std::move(b));
  auto warm = pool.acquire(111);
  EXPECT_EQ(warm.get(), b_ptr);
}

TEST(WorkspacePool, AcquireManyOnEmptyPoolMintsFresh) {
  WorkspacePool pool;
  auto entries = pool.acquire_many(42, 3);
  ASSERT_EQ(entries.size(), 3u);
  for (const auto& e : entries) {
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->affinity, 0u);  // never used
  }
  for (auto& e : entries) pool.release(std::move(e));
  EXPECT_EQ(pool.idle_count(), 3u);
}

TEST(WorkspacePool, AcquireManyTakesAffinityMatchesBeforeLifo) {
  WorkspacePool pool;
  auto a = pool.acquire(0);
  auto b = pool.acquire(0);
  auto c = pool.acquire(0);
  WorkspacePool::Entry* const a_ptr = a.get();
  WorkspacePool::Entry* const b_ptr = b.get();
  WorkspacePool::Entry* const c_ptr = c.get();
  a->affinity = 111;
  b->affinity = 222;
  c->affinity = 111;
  pool.release(std::move(a));
  pool.release(std::move(b));
  pool.release(std::move(c));  // free list front-to-back: a, b, c

  // Same preference order as n acquire() calls: every idle corridor-111
  // entry first (most recently released first), then LIFO for the rest,
  // then fresh entries to fill the request.
  auto entries = pool.acquire_many(111, 4);
  ASSERT_EQ(entries.size(), 4u);
  EXPECT_EQ(entries[0].get(), c_ptr);  // newest 111 match
  EXPECT_EQ(entries[1].get(), a_ptr);  // older 111 match
  EXPECT_EQ(entries[2].get(), b_ptr);  // LIFO remainder
  ASSERT_NE(entries[3], nullptr);      // minted to fill
  EXPECT_EQ(entries[3]->affinity, 0u);
  EXPECT_EQ(pool.idle_count(), 0u);
}

TEST(WorkspacePool, AcquireManyStopsAtRequestedCount) {
  WorkspacePool pool;
  auto a = pool.acquire(0);
  auto b = pool.acquire(0);
  WorkspacePool::Entry* const b_ptr = b.get();
  a->affinity = 111;
  b->affinity = 111;
  pool.release(std::move(a));
  pool.release(std::move(b));

  // Only one entry wanted: the most recent match, leaving the other idle.
  auto entries = pool.acquire_many(111, 1);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].get(), b_ptr);
  EXPECT_EQ(pool.idle_count(), 1u);
}

}  // namespace
}  // namespace evvo::core
