// WorkerPool: persistent parked threads for intra-round data parallelism.
//
// The round kernel's destination-sharded push apply once spawned
// fresh std::threads every round, which put ~10-20us of create/join cost
// (plus allocator traffic) on a path whose useful work is a few hundred
// microseconds — the checked-in bench showed 2 threads *losing* to 1 at
// 100k hosts. A WorkerPool creates its threads once, parks them on a
// condition variable, and hands them a (function pointer, context, task
// index) triple per dispatch: waking the pool costs single-digit
// microseconds and allocates nothing, so the parallel apply's overhead
// is bounded by the wake/join handshake instead of thread creation.
//
// Sharing model: one pool per calling thread (ForCallingThread), created
// lazily on first parallel dispatch and reused for every subsequent round,
// trial, and swarm that thread runs — "threads created once per executor
// worker". Nested use is safe by construction: each executor worker owns
// its own pool, and a thread never re-enters Run while one of its own
// dispatches is in flight (rounds are sequential within a trial).
//
// CPU budget: VisibleCpus() is the parallelism actually available —
// min(std::thread::hardware_concurrency(), the sched_getaffinity mask) —
// because a container is routinely pinned to fewer CPUs than the machine
// advertises, and oversubscribing the apply (T workers time-slicing one
// core) is measurably *slower* than the one-thread walk. Callers
// (RoundKernel) clamp their configured thread count to this budget.
// Determinism tests force the sharded code path on any host via
// OverrideVisibleCpusForTest.
//
// Telemetry: each Run records its full fork/join wall time under the
// pool_dispatch_ns counter and the tail where the caller has finished its
// own shard and is waiting for workers under pool_wait_ns, so the phase
// table separates the pool's busy cost from its idle cost. In profile
// mode the same two intervals are emitted as Chrome-trace spans. The
// worker threads themselves carry no telemetry sink.

#ifndef DYNAGG_SIM_WORKER_POOL_H_
#define DYNAGG_SIM_WORKER_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace dynagg {

class WorkerPool {
 public:
  /// std::thread::hardware_concurrency(), never 0.
  static int HardwareConcurrency();

  /// CPUs the scheduler will actually run this process on (the
  /// sched_getaffinity mask on Linux; HardwareConcurrency elsewhere).
  static int AffinityCpus();

  /// The parallelism budget: min(HardwareConcurrency, AffinityCpus), or
  /// the active test override. Always >= 1.
  static int VisibleCpus();

  /// Forces VisibleCpus() to return `n` (n >= 1); pass 0 to restore the
  /// real value. Lets determinism/lifecycle tests exercise the sharded
  /// parallel path on single-CPU hosts and oversubscription on small ones.
  static void OverrideVisibleCpusForTest(int n);

  /// The calling thread's shared pool, grown to at least `min_workers`
  /// parked worker threads (>= 1). Created on first use, reused across
  /// rounds/trials/swarms, destroyed at thread exit.
  static WorkerPool& ForCallingThread(int min_workers);

  /// Creates `workers` parked threads (>= 1).
  explicit WorkerPool(int workers);
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  int workers() const { return static_cast<int>(threads_.size()); }

  /// Runs fn(task) for every task in [0, num_tasks): task 0 on the calling
  /// thread, task w on worker w-1. Requires 1 <= num_tasks <= workers()+1.
  /// Blocks until every task returns; allocates nothing. Tasks must touch
  /// disjoint state (the kernel's destination sharding guarantees this).
  /// Not reentrant from its own tasks.
  template <typename Fn>
  void Run(int num_tasks, Fn&& fn) {
    using Pointee = std::remove_reference_t<Fn>;
    Dispatch(
        num_tasks,
        [](void* ctx, int task) { (*static_cast<Pointee*>(ctx))(task); },
        const_cast<void*>(static_cast<const void*>(&fn)));
  }

 private:
  using TaskFn = void (*)(void* ctx, int task);

  void Dispatch(int num_tasks, TaskFn fn, void* ctx);
  void WorkerMain(int worker_index);

  std::mutex mu_;
  std::condition_variable cv_go_;    // caller -> workers: new epoch
  std::condition_variable cv_done_;  // workers -> caller: all parked again
  uint64_t epoch_ = 0;               // bumped per dispatch
  int unfinished_ = 0;               // workers still in the current epoch
  int num_tasks_ = 0;
  TaskFn fn_ = nullptr;
  void* ctx_ = nullptr;
  bool shutdown_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace dynagg

#endif  // DYNAGG_SIM_WORKER_POOL_H_
