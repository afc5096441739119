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

}  // namespace
}  // namespace evvo::core
