// Fixture: host-threads violations (tests/test_lint.cpp pins the exact
// lines; keep edits appending, not inserting).
#include <future>
#include <thread>

namespace fixture {

inline int Spawn(int n) {
  // line 10: std::thread, line 11: std::jthread, line 12: std::async
  std::thread t([] {});
  std::jthread j([] {});
  auto f = std::async([n] { return n; });
  t.join();
  return f.get();
}

struct Pool {
  int async() const { return 0; }
};

inline int NotFlagged(const Pool& pool) {
  // A member named async, a foreign qualifier and a plain variable named
  // thread are someone else's names, not the std facility.
  const int thread = pool.async();
  return thread + sim::async(thread);
}

}  // namespace fixture
