// WorkspacePool (core/workspace_pool.hpp): a plain LIFO free list - acquire()
// returns the most recently released workspace and allocates only when the
// pool is empty.
#include "core/workspace_pool.hpp"

#include <gtest/gtest.h>

namespace evvo::core {
namespace {

TEST(WorkspacePool, EmptyPoolMintsFreshEntries) {
  WorkspacePool pool;
  EXPECT_EQ(pool.idle_count(), 0u);
  auto workspace = pool.acquire();
  ASSERT_NE(workspace, nullptr);
  EXPECT_EQ(workspace->state_bytes(), 0u);  // never solved
  pool.release(std::move(workspace));
  EXPECT_EQ(pool.idle_count(), 1u);
}

TEST(WorkspacePool, AcquireReturnsTheMostRecentlyReleasedFirst) {
  WorkspacePool pool;
  auto a = pool.acquire();
  auto b = pool.acquire();
  DpWorkspace* const a_ptr = a.get();
  DpWorkspace* const b_ptr = b.get();
  pool.release(std::move(a));
  pool.release(std::move(b));

  // LIFO, not FIFO: B was released last, so its memory is the warmest.
  auto first = pool.acquire();
  EXPECT_EQ(first.get(), b_ptr);
  EXPECT_EQ(pool.idle_count(), 1u);
  auto second = pool.acquire();
  EXPECT_EQ(second.get(), a_ptr);
  EXPECT_EQ(pool.idle_count(), 0u);
}

}  // namespace
}  // namespace evvo::core
