#include "net/sched.h"

#include <sys/mman.h>
#include <ucontext.h>
#include <unistd.h>

#include <cassert>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>

#if defined(__SANITIZE_THREAD__)
#define XPHI_TSAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define XPHI_TSAN_FIBERS 1
#endif
#endif
#ifdef XPHI_TSAN_FIBERS
#include <sanitizer/tsan_interface.h>
#endif

namespace xphi::net {

namespace {

using Clock = std::chrono::steady_clock;

std::size_t page_size() {
  static const std::size_t page =
      static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return page;
}

}  // namespace

/// Transition a task requests before switching back to its worker; the
/// worker applies it under the scheduler lock, which is what makes
/// decide-to-park and deliver-a-wake race-free (a wake that lands while the
/// switch is in flight is latched in wake_pending and honoured here).
enum class Pending { kNone, kYield, kPark, kFinish };

struct Sched::Task {
  ucontext_t ctx{};
  void* map_base = nullptr;  // guard page + usable stack
  std::size_t map_len = 0;
#ifdef XPHI_TSAN_FIBERS
  void* fiber = nullptr;
#endif
  enum class State { kReady, kRunning, kParked, kDone };
  State state = State::kReady;
  Pending pending = Pending::kNone;
  double pending_timeout = 0;
  bool wake_pending = false;
  bool has_deadline = false;
  std::multimap<Clock::time_point, Task*>::iterator deadline_it;
  Wake wake_reason = Wake::kSignal;
  std::exception_ptr error;
  int index = 0;
  Sched::Impl* impl = nullptr;
};

struct Sched::Worker {
  ucontext_t ctx{};
#ifdef XPHI_TSAN_FIBERS
  void* fiber = nullptr;
#endif
  Task* current = nullptr;
  Sched::Impl* owner = nullptr;
};

struct Sched::Impl {
  // The worker scheduling on the current OS thread. Saved/restored around
  // worker_loop so a task that itself drives a nested Sched (a World inside
  // a rank) unwinds correctly.
  static thread_local Worker* t_worker;

  std::mutex mu;
  std::condition_variable cv;
  std::deque<Task*> ready;
  std::multimap<Clock::time_point, Task*> deadlines;
  std::vector<std::unique_ptr<Task>> tasks;
  int running = 0;
  int done = 0;
  int ntasks = 0;
  std::size_t stack_bytes = 0;
  const std::function<void(int)>* body = nullptr;

  // --- context plumbing ---------------------------------------------------

  static void trampoline_entry(unsigned hi, unsigned lo);

  void alloc_stack(Task& t) {
    const std::size_t page = page_size();
    const std::size_t usable = (stack_bytes + page - 1) / page * page;
    const std::size_t len = usable + page;  // +1 guard page below the stack
    void* base = ::mmap(nullptr, len, PROT_NONE,
                        MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
    if (base == MAP_FAILED)
      throw std::runtime_error("net: Sched: mmap of a task stack failed");
    if (::mprotect(static_cast<char*>(base) + page, usable,
                   PROT_READ | PROT_WRITE) != 0) {
      ::munmap(base, len);
      throw std::runtime_error("net: Sched: mprotect of a task stack failed");
    }
    t.map_base = base;
    t.map_len = len;
    t.ctx.uc_stack.ss_sp = static_cast<char*>(base) + page;
    t.ctx.uc_stack.ss_size = usable;
  }

  void prepare(int n, const std::function<void(int)>& fn) {
    body = &fn;
    ntasks = n;
    running = 0;
    done = 0;
    ready.clear();
    deadlines.clear();
    tasks.clear();
    tasks.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      auto t = std::make_unique<Task>();
      t->index = i;
      t->impl = this;
      if (getcontext(&t->ctx) != 0)
        throw std::runtime_error("net: Sched: getcontext failed");
      alloc_stack(*t);
      t->ctx.uc_link = nullptr;  // tasks exit via an explicit final switch
      const auto addr = reinterpret_cast<std::uintptr_t>(t.get());
      makecontext(&t->ctx, reinterpret_cast<void (*)()>(trampoline_entry), 2,
                  static_cast<unsigned>(addr >> 32),
                  static_cast<unsigned>(addr & 0xffffffffu));
#ifdef XPHI_TSAN_FIBERS
      t->fiber = __tsan_create_fiber(0);
#endif
      ready.push_back(t.get());
      tasks.push_back(std::move(t));
    }
  }

  void teardown() {
    for (auto& t : tasks) {
#ifdef XPHI_TSAN_FIBERS
      if (t->fiber != nullptr) __tsan_destroy_fiber(t->fiber);
#endif
      if (t->map_base != nullptr) ::munmap(t->map_base, t->map_len);
    }
    tasks.clear();
    body = nullptr;
  }

  /// Worker side of a task switch: run `t` until it switches back, then
  /// apply the transition it requested.
  void resume_on(Worker& w, Task* t) {
    w.current = t;
#ifdef XPHI_TSAN_FIBERS
    __tsan_switch_to_fiber(t->fiber, 0);
#endif
    swapcontext(&w.ctx, &t->ctx);
    w.current = nullptr;
  }

  /// Task side: save this task's context and jump to the worker currently
  /// running it. On the next resume, execution continues right after this
  /// call — possibly on a different worker thread.
  static void switch_to_worker(Task* t) {
    Worker* w = t_worker;
    assert(w != nullptr && w->current == t);
#ifdef XPHI_TSAN_FIBERS
    __tsan_switch_to_fiber(w->fiber, 0);
#endif
    swapcontext(&t->ctx, &w->ctx);
  }

  // --- scheduling core (all under mu unless noted) ------------------------

  void make_ready(Task* t) {
    if (t->has_deadline) {
      deadlines.erase(t->deadline_it);
      t->has_deadline = false;
    }
    t->state = Task::State::kReady;
    ready.push_back(t);
    cv.notify_one();
  }

  void apply_transition(Task* t) {
    switch (t->pending) {
      case Pending::kFinish:
        t->state = Task::State::kDone;
        if (++done == ntasks) cv.notify_all();
        break;
      case Pending::kYield:
        make_ready(t);
        break;
      case Pending::kPark:
        if (t->wake_pending) {
          // A wake raced ahead of the park: consume it, stay runnable.
          t->wake_pending = false;
          t->wake_reason = Wake::kSignal;
          make_ready(t);
        } else {
          t->state = Task::State::kParked;
          if (t->pending_timeout > 0) {
            const auto deadline =
                Clock::now() +
                std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(t->pending_timeout));
            t->deadline_it = deadlines.emplace(deadline, t);
            t->has_deadline = true;
          }
        }
        break;
      case Pending::kNone:
        assert(false && "task switched back without a pending transition");
        break;
    }
    t->pending = Pending::kNone;
  }

  void fire_expired_deadlines() {
    if (deadlines.empty()) return;
    const auto now = Clock::now();
    while (!deadlines.empty() && deadlines.begin()->first <= now) {
      Task* t = deadlines.begin()->second;
      assert(t->state == Task::State::kParked);
      t->wake_reason = Wake::kTimeout;
      make_ready(t);  // erases the deadline entry
    }
  }

  /// No runnable or running task, no pending deadline, tasks still alive:
  /// nothing inside the scheduler can ever produce a wake again (external
  /// threads never hold a Comm). Resume every parked task with kDeadlock so
  /// it can raise a diagnostic instead of wedging the pool.
  bool resolve_deadlock() {
    bool any = false;
    for (auto& t : tasks) {
      if (t->state == Task::State::kParked) {
        t->wake_reason = Wake::kDeadlock;
        make_ready(t.get());
        any = true;
      }
    }
    if (any) cv.notify_all();
    return any;
  }

  void worker_loop() {
    Worker w;
    w.owner = this;
#ifdef XPHI_TSAN_FIBERS
    w.fiber = __tsan_get_current_fiber();
#endif
    Worker* prev = t_worker;
    t_worker = &w;
    std::unique_lock lk(mu);
    while (done < ntasks) {
      fire_expired_deadlines();
      if (!ready.empty()) {
        Task* t = ready.front();
        ready.pop_front();
        t->state = Task::State::kRunning;
        ++running;
        lk.unlock();
        resume_on(w, t);
        lk.lock();
        --running;
        apply_transition(t);
        continue;
      }
      if (running == 0 && deadlines.empty()) {
        if (resolve_deadlock()) continue;
        assert(done == ntasks &&
               "scheduler idle with live tasks neither parked nor running");
        break;
      }
      if (deadlines.empty()) {
        cv.wait(lk);
      } else {
        // Copy the deadline out: wait_until keeps reading its argument while
        // the lock is released, and a peer worker may erase that node.
        const auto next = deadlines.begin()->first;
        cv.wait_until(lk, next);
      }
    }
    lk.unlock();
    cv.notify_all();  // release workers still waiting on the cv
    t_worker = prev;
  }
};

thread_local Sched::Worker* Sched::Impl::t_worker = nullptr;

void Sched::Impl::trampoline_entry(unsigned hi, unsigned lo) {
  Task* t = reinterpret_cast<Task*>(
      (static_cast<std::uintptr_t>(hi) << 32) |
      static_cast<std::uintptr_t>(lo));
  try {
    (*t->impl->body)(t->index);
  } catch (...) {
    t->error = std::current_exception();
  }
  t->pending = Pending::kFinish;
  switch_to_worker(t);
  std::abort();  // a finished task must never be resumed
}

Sched::Sched(int tasks, Options options)
    : impl_(std::make_unique<Impl>()),
      tasks_(tasks),
      stack_bytes_(options.stack_bytes) {
  assert(tasks >= 1);
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  const int cap = options.workers > 0 ? options.workers : std::max(1, hw);
  workers_ = std::min(tasks_, std::max(1, cap));
  impl_->stack_bytes = std::max<std::size_t>(stack_bytes_, 4 * page_size());
}

Sched::~Sched() = default;

void Sched::run(const std::function<void(int)>& body) {
  impl_->prepare(tasks_, body);
  std::vector<std::thread> extra;
  extra.reserve(static_cast<std::size_t>(workers_ - 1));
  for (int i = 1; i < workers_; ++i)
    extra.emplace_back([this] { impl_->worker_loop(); });
  impl_->worker_loop();  // the caller is worker 0
  for (auto& th : extra) th.join();
  errors_.assign(static_cast<std::size_t>(tasks_), nullptr);
  for (int i = 0; i < tasks_; ++i)
    errors_[static_cast<std::size_t>(i)] =
        impl_->tasks[static_cast<std::size_t>(i)]->error;
  impl_->teardown();
}

void Sched::yield() {
  Worker* w = Impl::t_worker;
  assert(w != nullptr && w->owner == impl_.get() && w->current != nullptr);
  Task* t = w->current;
  t->pending = Pending::kYield;
  Impl::switch_to_worker(t);
}

Sched::Wake Sched::park(double timeout_seconds) {
  Worker* w = Impl::t_worker;
  assert(w != nullptr && w->owner == impl_.get() && w->current != nullptr);
  Task* t = w->current;
  t->pending = Pending::kPark;
  t->pending_timeout = timeout_seconds;
  Impl::switch_to_worker(t);
  return t->wake_reason;
}

int Sched::current_task() {
  const Worker* w = Impl::t_worker;
  return w != nullptr && w->current != nullptr ? w->current->index : -1;
}

void Sched::wake(int task) {
  std::lock_guard lk(impl_->mu);
  Task* t = impl_->tasks[static_cast<std::size_t>(task)].get();
  if (t->state == Task::State::kParked) {
    t->wake_reason = Wake::kSignal;
    impl_->make_ready(t);
  } else if (t->state != Task::State::kDone) {
    t->wake_pending = true;
  }
}

}  // namespace xphi::net
