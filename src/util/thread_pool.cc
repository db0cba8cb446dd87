#include "util/thread_pool.h"

#include <algorithm>
#include <chrono>
#include <thread>

namespace xphi::util {

namespace {

// How long a waiter spins before it parks. Long enough to bridge the serial
// gaps between back-to-back dispatches on the LU critical path (a pivot row
// swap, a narrow interchange sweep, a diagonal-block solve), short enough
// that an idle pool gives its cores back almost at once.
constexpr std::chrono::microseconds kSpinWindow{50};
// Pause iterations per spin burst. The first burst is pure pause (a
// back-to-back handoff lands inside it); each later burst ends with a clock
// read and a yield, so on an oversubscribed host (another tenant, a -j4
// test run) a spinning waiter hands its slice to the thread holding the
// work instead of burning it.
constexpr unsigned kPausesPerBurst = 64;

inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Returns once `word` no longer holds `old` (acquire). Spins for
/// kSpinWindow first (pause bursts, yielding between them), then parks on
/// the futex; `parked` counts parked waiters so a waker can skip
/// notify_all when it is zero. The seq_cst increment before the re-check
/// pairs with the waker's seq_cst store and seq_cst load of `parked`:
/// either the waker sees this waiter and notifies, or this waiter's wait()
/// sees the new value and never sleeps.
void await_change(const std::atomic<std::uint32_t>& word, std::uint32_t old,
                  std::atomic<std::uint32_t>& parked) {
  using Clock = std::chrono::steady_clock;
  Clock::time_point deadline{};
  for (unsigned i = 1;; ++i) {
    if (word.load(std::memory_order_acquire) != old) return;
    cpu_relax();
    if (i % kPausesPerBurst == 0) {
      const auto now = Clock::now();
      if (i == kPausesPerBurst) {
        deadline = now + kSpinWindow;
      } else if (now >= deadline) {
        break;
      }
      std::this_thread::yield();
    }
  }
  parked.fetch_add(1, std::memory_order_seq_cst);
  word.wait(old, std::memory_order_seq_cst);
  parked.fetch_sub(1, std::memory_order_relaxed);
}

void notify_if_parked(std::atomic<std::uint32_t>& word,
                      const std::atomic<std::uint32_t>& parked) {
  if (parked.load(std::memory_order_seq_cst) != 0) word.notify_all();
}

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  const std::size_t n = std::max<std::size_t>(1, threads);
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    workers_.emplace_back([this, i] { worker_loop(i); });
}

ThreadPool::~ThreadPool() {
  publish(nullptr, nullptr);
  for (auto& w : workers_) w.join();
}

void ThreadPool::publish(RawFn fn, void* ctx) {
  fn_ = fn;
  ctx_ = ctx;
  pending_.store(static_cast<std::uint32_t>(workers_.size()),
                 std::memory_order_relaxed);
  epoch_.fetch_add(1, std::memory_order_seq_cst);
  notify_if_parked(epoch_, parked_workers_);
}

void ThreadPool::worker_loop(std::size_t index) {
  // Each dispatch waits for every worker, so the epoch a worker observes is
  // always the one after the last it ran.
  std::uint32_t seen = 0;
  for (;;) {
    await_change(epoch_, seen, parked_workers_);
    ++seen;
    const RawFn fn = fn_;
    if (fn == nullptr) return;
    fn(ctx_, index);
    if (pending_.fetch_sub(1, std::memory_order_seq_cst) == 1)
      notify_if_parked(pending_, parked_caller_);
  }
}

void ThreadPool::dispatch(RawFn fn, void* ctx, bool include_caller) {
  publish(fn, ctx);
  if (include_caller) fn(ctx, workers_.size());
  for (std::uint32_t left = pending_.load(std::memory_order_acquire);
       left != 0; left = pending_.load(std::memory_order_acquire))
    await_change(pending_, left, parked_caller_);
}

void ThreadPool::run_on_all(const std::function<void(std::size_t)>& body) {
  dispatch(
      [](void* ctx, std::size_t part) {
        (*static_cast<const std::function<void(std::size_t)>*>(ctx))(part);
      },
      const_cast<std::function<void(std::size_t)>*>(&body),
      /*include_caller=*/false);
}

}  // namespace xphi::util
