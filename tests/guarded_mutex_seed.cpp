// The `guarded-mutex` lint seed as real code: a ranked Mutex in a file with
// no EVVO_GUARDED_BY / EVVO_REQUIRES annotation, and a member read under the
// lock but written without it. Two checks read this file:
//
//  1. The compiler. It is built in every configuration, so in the clang
//     `-Wthread-safety -Werror=thread-safety` build (EVVO_THREAD_SAFETY=ON)
//     that build compiling it proves the analysis is silent here: it checks
//     only annotated members and functions, and nothing below is annotated.
//  2. evvo_lint. The `lint_detects_unguarded_mutex` ctest (tools/CMakeLists)
//     runs the analyzer on this file and must see the guarded-mutex report.
//
// So the lint rule does not duplicate the compiler gate: it flags the lock
// the compiler cannot check.

#include "common/lock_ranks.hpp"
#include "common/mutex.hpp"

namespace evvo::lint_seed {

class Tally {
 public:
  void bump() { ++count_; }  // no lock taken, and no diagnostic from clang
  int count() const {
    common::MutexLock lock(tally_mutex_);
    return count_;
  }

 private:
  mutable common::Mutex tally_mutex_{common::LockRank::kPlanShard};
  int count_ = 0;
};

int tally_once() {
  Tally tally;
  tally.bump();
  return tally.count();
}

}  // namespace evvo::lint_seed
