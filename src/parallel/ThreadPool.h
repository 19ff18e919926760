//===- parallel/ThreadPool.h - Work-stealing CPU runtime -------*- C++ -*-===//
///
/// \file
/// The parallel CPU runtime: a work-stealing fork-join thread pool with
/// a chunked parallelFor primitive. This is what actually executes the
/// data-parallelism the Low++ IL exposes (paper Section 4.3): the
/// interpreter maps `Par`/`AtmPar` loops onto parallelFor, the native
/// engine runs the chunk functions of emitted C on it (the modules own
/// no threads), and the multi-chain runner schedules whole chains over
/// it.
///
/// Scheduling: parallelFor splits [Lo, Hi) into grain-sized chunks and
/// deals them round-robin onto per-worker deques. Each worker drains
/// its own deque LIFO and steals FIFO from victims when empty, so load
/// imbalance (e.g. ragged LDA documents) self-corrects. The calling
/// thread participates as worker 0, and a parallelFor issued from
/// inside a worker (nested parallelism, or a chain running on the pool)
/// executes inline on that worker — the pool never deadlocks on
/// nesting and never oversubscribes the machine.
///
/// Determinism contract: the pool itself guarantees only that `Body` is
/// invoked exactly once per index. Bit-reproducibility across thread
/// counts is achieved one level up by keying RNG streams per index
/// (support/PhiloxRNG.h) and making writes either disjoint (Par) or
/// atomic (AtmPar); see DESIGN.md "Parallel runtime".
///
//===----------------------------------------------------------------------===//

#ifndef AUGUR_PARALLEL_THREADPOOL_H
#define AUGUR_PARALLEL_THREADPOOL_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace augur {

/// User-facing parallel execution options (surfaced through
/// CompileOptions and the Infer API).
struct ParallelConfig {
  /// Worker count for within-chain parallelism; 0 means
  /// hardware_concurrency, 1 disables the pool (sequential execution).
  int NumThreads = 1;
  /// Loop iterations per work chunk.
  int64_t Grain = 16;
  /// Independent chains for multi-chain sampling.
  int Chains = 1;

  int resolvedThreads() const {
    if (NumThreads > 0)
      return NumThreads;
    unsigned Hw = std::thread::hardware_concurrency();
    return Hw == 0 ? 1 : static_cast<int>(Hw);
  }
};

/// Execution statistics of one parallelFor region (consumed by the
/// interpreter's occupancy counters and the speedup bench).
struct ParForStats {
  uint64_t Chunks = 0;     ///< chunks executed
  uint64_t Steals = 0;     ///< chunks taken from another worker's deque
  uint64_t WallNanos = 0;  ///< region wall time
  uint64_t BusyNanos = 0;  ///< sum of per-chunk execution time
  bool Inline = false;     ///< ran inline (1 thread / nested / tiny range)

  /// Fraction of the region's thread-seconds spent executing chunks.
  double occupancy(int NumThreads) const {
    if (WallNanos == 0 || NumThreads <= 0)
      return 1.0;
    double Frac = double(BusyNanos) / (double(WallNanos) * NumThreads);
    return Frac > 1.0 ? 1.0 : Frac;
  }
};

/// Fork-join work-stealing pool. NumThreads counts the calling thread:
/// a pool of N spawns N-1 workers and the caller executes chunks too.
class ThreadPool {
public:
  explicit ThreadPool(int NumThreads);
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  int numThreads() const { return int(Queues.size()); }

  /// Runs Body(ChunkLo, ChunkHi, Worker) over grain-sized chunks of
  /// [Lo, Hi). Worker identifies the executing lane in
  /// [0, numThreads()) so callers can maintain per-worker state; every
  /// concurrently-running Body invocation sees a distinct Worker.
  /// Blocks until all chunks have finished. Re-entrant: calls from
  /// inside a worker run inline on that worker's lane. Safe for
  /// concurrent top-level callers: one region occupies the pool at a
  /// time and a caller that finds it busy executes its loop inline.
  ///
  /// Exception safety: a Body that throws no longer terminates the
  /// process. The first exception any lane observes is captured, the
  /// region still drains every remaining chunk (so the pool is reusable
  /// and no lane blocks forever), and the exception is rethrown on the
  /// calling thread after the join.
  ParForStats parallelFor(int64_t Lo, int64_t Hi, int64_t Grain,
                          const std::function<void(int64_t, int64_t, int)> &Body);

  /// True when the calling thread is a pool lane (parallelFor would run
  /// inline).
  static bool inWorker() { return CurrentWorker >= 0; }

  /// The process-wide pool of the requested width (0 =
  /// hardware_concurrency). Pools are keyed by width and live for the
  /// process: a request for a new width creates a sibling pool instead
  /// of tearing down one that other threads may be executing on, so
  /// this is safe to call from any thread at any time.
  static ThreadPool &global(int NumThreads = 0);

  /// Fork hygiene for sandbox workers: after fork() only the calling
  /// thread survives, so every inherited pool's workers are gone and
  /// the registry mutex may have been held by a dead thread. This swaps
  /// in a fresh registry (leaking the inherited one — joining dead
  /// threads would hang), so the child's first global() call builds
  /// live pools. Call only from a just-forked, single-threaded child.
  static void resetAfterFork();

private:
  struct WorkerQueue {
    std::mutex M;
    std::deque<std::pair<int64_t, int64_t>> Chunks;
  };

  void workerLoop(int Worker);
  void runRegion(int Worker);
  bool takeChunk(int Worker, std::pair<int64_t, int64_t> &Out, bool &Stolen);

  std::vector<std::unique_ptr<WorkerQueue>> Queues;
  std::vector<std::thread> Threads;

  std::mutex M;
  std::condition_variable WorkCv, DoneCv;
  uint64_t Generation = 0;
  bool Stopping = false;

  // Current region's body. Published (release) before any chunk of the
  // region is enqueued and loaded (acquire) after a chunk is taken, so
  // even a worker waking late from a previous region executes a chunk
  // with the body it belongs to. Intentionally left dangling between
  // regions: with no chunks queued it is never dereferenced.
  std::atomic<const std::function<void(int64_t, int64_t, int)> *> Body{
      nullptr};
  /// Region completion latch: the one counter every lane must share.
  /// Cache-line-aligned so its fetch_subs never invalidate the lane
  /// statistics below.
  alignas(64) std::atomic<uint64_t> ChunksLeft{0};

  /// Per-lane region statistics. Each slot is written only by its own
  /// lane while a region runs (lanes are distinct per concurrently
  /// executing body) and folded by the caller after the join, so the
  /// fields need no atomics; the alignment keeps two lanes' per-chunk
  /// accounting off one cache line. The previous layout used two
  /// shared fetch-add counters — one invalidation per chunk per lane,
  /// the same coherence traffic pattern the contention-aware reduce
  /// pass exists to remove (DESIGN.md section 16).
  struct alignas(64) LaneSlot {
    uint64_t Steals = 0;
    uint64_t BusyNanos = 0;
  };
  std::vector<LaneSlot> LaneStats;

  /// First exception thrown by any lane in the current region; rethrown
  /// on the calling thread after the join.
  std::mutex ErrM;
  std::exception_ptr RegionError;

  /// Held for the duration of a pooled region. Acquired with try_lock:
  /// a concurrent top-level caller falls back to inline execution
  /// rather than corrupting the single-occupancy region state.
  std::mutex RegionMu;

  static thread_local int CurrentWorker;
};

} // namespace augur

#endif // AUGUR_PARALLEL_THREADPOOL_H
