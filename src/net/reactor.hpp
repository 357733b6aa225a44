// Event-loop substrate for the reactor runtime: a bounded executor
// pool, FIFO strands over it, and an epoll Reactor with a hierarchical
// timer wheel.
//
// The thread model inverts the threaded runtime's, which spends
// threads per party and adds a lane thread per shard; here the process
// runs ONE loop thread (all socket I/O, all timers) plus a small fixed
// pool of workers that execute everything that may block or take real
// CPU — handler deliveries, shard-lane dispatch, Clock::schedule
// callbacks. Nothing on the loop thread blocks, so fan-in scales with
// descriptors instead of threads (the C10K shape; see DESIGN.md §10).
//
// Strand is the ordering primitive that lets many logical queues share
// the pool: tasks posted to one strand run FIFO and never concurrently,
// while different strands interleave freely across workers. Per-object
// shard lanes and per-transport delivery queues are strands.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "net/timer_wheel.hpp"

namespace b2b::net {

/// Fixed-size worker pool with an unbounded FIFO queue. The *thread*
/// count is the bounded resource — queue depth is observable via
/// queue_peak() so benches can show backlog instead of thread growth.
class TaskPool {
 public:
  explicit TaskPool(std::size_t workers);
  ~TaskPool();

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  /// Enqueue a task. Silently dropped after shutdown().
  void post(std::function<void()> task);

  /// Discard queued tasks, let in-flight tasks finish, join workers
  /// (idempotent; the destructor calls it).
  void shutdown();

  /// True when the queue is empty and no worker is mid-task.
  bool idle() const;

  std::size_t workers() const { return workers_count_; }

  /// High-water mark of queued (not yet running) tasks.
  std::uint64_t queue_peak() const;

 private:
  void worker_loop();

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  std::size_t running_ = 0;
  std::uint64_t queue_peak_ = 0;
  bool stopping_ = false;
  std::size_t workers_count_;
  std::vector<std::thread> threads_;
};

/// A FIFO execution lane multiplexed onto a TaskPool: tasks posted to
/// one strand run in order, never concurrently. stop() discards queued
/// tasks and waits for the in-flight one — the same drop-on-crash
/// semantics as a dedicated lane thread. The queue state is held in a
/// shared_ptr so a drain task already scheduled on the pool stays valid
/// even if the Strand (and whatever owns it) is destroyed first.
class Strand {
 public:
  explicit Strand(std::shared_ptr<TaskPool> pool);
  ~Strand();

  Strand(const Strand&) = delete;
  Strand& operator=(const Strand&) = delete;

  /// Enqueue; dropped after stop().
  void post(std::function<void()> task);

  /// True when nothing is queued or running on this strand.
  bool idle() const;

  /// Block until idle (or stopped).
  void wait_idle() const;

  /// Discard queued tasks, wait for any in-flight task, refuse new ones
  /// (idempotent; the destructor calls it).
  void stop();

 private:
  struct Inner {
    mutable std::mutex mutex;
    mutable std::condition_variable cv;
    std::deque<std::function<void()>> queue;
    bool scheduled = false;  // a drain task is queued on the pool
    bool running = false;    // a task is executing right now
    bool stopping = false;
  };
  /// Run queued tasks in order; yields the worker back to the pool
  /// every few tasks so one busy strand cannot starve the others.
  static void drain(const std::shared_ptr<Inner>& inner,
                    const std::shared_ptr<TaskPool>& pool);

  std::shared_ptr<TaskPool> pool_;
  std::shared_ptr<Inner> inner_;
};

/// One epoll loop thread owning socket readiness, a timer wheel, and a
/// run-on-loop task queue. Everything that touches fd registrations or
/// connection state runs ON the loop (via post()); schedule/cancel and
/// post are thread-safe and wake the loop through an eventfd.
class Reactor {
 public:
  struct Config {
    TimerWheel::Config wheel{};
    int max_events = 256;
  };

  struct Stats {
    std::uint64_t epoll_wakeups = 0;
    std::uint64_t timers_fired = 0;
  };

  /// Registered-fd token. The handler runs on the loop thread with the
  /// ready event mask; after remove_fd it is never invoked again.
  struct FdHandler {
    int fd = -1;
    std::function<void(std::uint32_t events)> on_events;
    bool dead = false;
  };
  using FdHandlerPtr = std::shared_ptr<FdHandler>;

  Reactor() : Reactor(Config{}) {}
  explicit Reactor(Config config);
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Loop-thread only. Registers `fd` for `events` (EPOLL* mask).
  FdHandlerPtr add_fd(int fd, std::uint32_t events,
                      std::function<void(std::uint32_t)> on_events);
  /// Loop-thread only. Change the armed event mask.
  void update_fd(const FdHandlerPtr& handle, std::uint32_t events);
  /// Loop-thread only. Unregister; the fd itself stays open.
  void remove_fd(const FdHandlerPtr& handle);

  /// Run `fn` on the loop thread (FIFO). Thread-safe. Returns false
  /// (task dropped) once the reactor has shut down.
  bool post(std::function<void()> fn);

  /// Arm a wheel timer; `fn` runs on the loop thread. Thread-safe.
  /// Returns kInvalidTimer after shutdown.
  TimerWheel::TimerId schedule_at(std::uint64_t due_micros,
                                  std::function<void()> fn);
  TimerWheel::TimerId schedule_after(std::uint64_t delay_micros,
                                     std::function<void()> fn);
  /// Thread-safe; false if already fired/cancelled.
  bool cancel(TimerWheel::TimerId id);

  /// Microseconds since this reactor was created (steady clock).
  std::uint64_t now_micros() const;

  bool on_loop_thread() const;

  Stats stats() const;

  /// Stop and join the loop thread; pending posts and timers are
  /// discarded (idempotent; the destructor calls it).
  void shutdown();

 private:
  void loop();
  void wake();
  void drain_wakeup_fd();

  Config config_;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::chrono::steady_clock::time_point epoch_;

  mutable std::mutex mutex_;  // wheel_, posted_, stopping_, stats
  TimerWheel wheel_;
  std::deque<std::function<void()>> posted_;
  bool stopping_ = false;
  Stats stats_;

  // Loop-thread only.
  std::vector<FdHandlerPtr> registered_;
  std::vector<FdHandlerPtr> graveyard_;

  std::thread loop_thread_;
};

}  // namespace b2b::net
