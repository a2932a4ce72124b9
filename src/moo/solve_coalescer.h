#ifndef UDAO_MOO_SOLVE_COALESCER_H_
#define UDAO_MOO_SOLVE_COALESCER_H_

#include <chrono>
#include <list>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/sync.h"
#include "common/thread_pool.h"
#include "moo/mogd.h"

namespace udao {

/// Tuning for the cross-request solve coalescer.
struct SolveCoalescerConfig {
  /// Flush the window as soon as this many CO problems are pending across
  /// submissions. One fused descent over ~max_batch problems is the target
  /// GEMM shape; larger windows add queueing latency for little extra
  /// arithmetic intensity.
  int max_batch = 32;
  /// ... or as soon as the oldest pending submission has waited this long.
  /// This bounds the latency a lone request pays for the chance to share its
  /// GEMM stream with a neighbor; it is the only latency the coalescer ever
  /// adds.
  double max_wait_us = 200.0;
  /// Solver settings. MUST equal the MogdConfig of the ProgressiveFrontier
  /// instances that route through this coalescer (same seed, iterations,
  /// learning rate, alpha, pool): the coalescer re-derives each problem's
  /// seed from `mogd.seed` exactly as MogdSolver::SolveBatch would, which is
  /// what keeps coalesced solves bitwise-identical to solo ones.
  MogdConfig mogd;
  /// Capacity of the solved-subproblem memo (identical-subproblem coalescing
  /// across windows). A solve's bits are a pure function of (problem
  /// identity, CoProblem, seed); concurrent tenants replaying the same
  /// deterministic probe sequence hit the memo instead of re-descending.
  /// Entries whose stop token fired mid-solve are never inserted, and
  /// deadline-armed submissions bypass the memo entirely so anytime
  /// semantics stay exact. 0 disables the memo (in-window dedup remains).
  int memo_capacity = 512;
};

/// Funnels MOGD constrained-optimization batches from concurrent requests
/// into shared fused solves: submissions arriving within a small time/size
/// window (`max_batch` problems / `max_wait_us`) are grouped by *fuse key*
/// -- parameter space + per-objective model identity + orientation, i.e.
/// "these problems evaluate through the same functions" -- and each group
/// runs as MogdSolver::SolveCoFused chunks on the shared compute pool. One
/// hundred concurrent tenants asking for frontiers drive one GEMM stream per
/// chunk instead of one hundred interleaved ones.
///
/// Determinism: a problem's solution depends only on (problem, CoProblem,
/// seed), and the coalescer assigns slot i of a submission the seed
/// `mogd.seed + 1000*i` -- the MogdSolver::SolveBatch contract -- so results
/// are bitwise-identical to solo solves no matter how submissions happen to
/// share windows, groups, or chunks (coalescer_test pins this).
///
/// Cancellation: each fused problem carries its own submitter's StopToken,
/// checked per lockstep iteration inside SolveCoFused. A cancelled or
/// deadline-expired request freezes with its best-so-far incumbent while its
/// batchmates keep descending -- one doomed request never stalls the window.
///
/// Identical-subproblem coalescing: that same determinism means two units
/// with identical (problem identity + structural space, CoProblem bytes,
/// slot seed) would compute identical bits, so the coalescer solves one and
/// shares the result -- via a singleflight registry (an identical unit
/// arriving while its twin is still descending, in this window or a later
/// one, attaches as a waiter to the pending solve) and a bounded LRU memo of
/// completed subproblems (pinning the objective models so a recycled model
/// address can never alias a stale entry). Concurrent tenants replaying the
/// same probe stream -- the thundering-herd shape the frontier cache cannot
/// absorb because every stampeding request misses before the first insert --
/// collapse to one descent stream. Deadline-armed submissions opt out of
/// both (their anytime truncation semantics stay exactly solo); a dedupable
/// slot descends under a never-stopping token, because a twin may attach at
/// any point mid-descent and must not receive bits truncated by the
/// representative's own cancellation (cancellation is still honored between
/// probes, at the frontier layer). A result is only memoized when its
/// governing stop never fired.
///
/// Threading: SolveBatch blocks the calling (admission) thread until its
/// results are ready, so callers use it exactly like MogdSolver::SolveBatch.
/// A dedicated single-thread flusher owns the window clock; fused chunks run
/// on `mogd.pool` via Submit (never ParallelFor, whose WaitIdle would convoy
/// on unrelated work), sized so a lone submission still spreads over the
/// pool like today's per-problem fan-out.
class SolveCoalescer : public CoBatchSolver {
 public:
  explicit SolveCoalescer(SolveCoalescerConfig config);
  /// Drains: flushes every pending submission, then waits (bounded polls)
  /// for in-flight fused chunks on the shared pool to deliver. Callers must
  /// destroy the coalescer before the compute pool.
  ~SolveCoalescer() override;

  SolveCoalescer(const SolveCoalescer&) = delete;
  SolveCoalescer& operator=(const SolveCoalescer&) = delete;

  /// CoBatchSolver surface: blocks until every problem in `problems` is
  /// solved, possibly fused with concurrent submissions. Falls back to an
  /// inline MogdSolver::SolveBatch when the coalescer is shutting down.
  std::vector<std::optional<CoResult>> SolveBatch(
      const MooProblem& problem, const std::vector<CoProblem>& problems,
      SolvePerf* perf, const StopToken& stop) override;

  /// Minimize-keyed singleflight (dedup only, no fusion): unconstrained
  /// reference-point solves keyed by (problem identity + structural space +
  /// target) -- user value bounds are deliberately absent from the key
  /// because Minimize never sees them, so tenants with different SLOs share
  /// one descent. A call that finds its key in flight blocks on the
  /// representative's result; completed solves land in the same bounded LRU
  /// memo as CO subproblems. Deadline-armed callers bypass both and solve
  /// solo inline (exact anytime semantics); the representative descends
  /// under a never-stopping token so a twin attaching mid-descent cannot
  /// receive truncated bits. Bits always equal a solo
  /// MogdSolver::Minimize with the shared config.
  CoResult Minimize(const MooProblem& problem, int target, SolvePerf* perf,
                    const StopToken& stop) override;

  /// Monotonic counters, for stats endpoints and the fusion tests.
  struct Stats {
    long long submissions = 0;      ///< SolveBatch calls that enqueued.
    long long problems = 0;         ///< CO problems across submissions.
    long long flushes = 0;          ///< Windows flushed.
    long long fuse_groups = 0;      ///< Fuse-key groups across flushes.
    long long fused_chunks = 0;     ///< SolveCoFused calls dispatched.
    long long fused_problems = 0;   ///< Problems that shared a chunk with a
                                    ///< problem of ANOTHER submission.
    long long inline_fallbacks = 0; ///< SolveBatch calls served inline.
    long long dedup_hits = 0;       ///< Problems served by joining an
                                    ///< identical in-flight representative
                                    ///< (singleflight, same or later window).
    long long memo_hits = 0;        ///< Problems served from the memo.
    long long min_solves = 0;       ///< Minimize calls admitted to the
                                    ///< singleflight path (all outcomes).
    long long min_dedup_hits = 0;   ///< Minimize calls served by joining an
                                    ///< in-flight identical solve.
    long long min_memo_hits = 0;    ///< Minimize calls served from the memo.
  };
  Stats stats() const;

  const SolveCoalescerConfig& config() const { return config_; }

 private:
  struct Submission;

  /// One memoized subproblem solve. `pins` keeps the objective models alive
  /// so the model-identity pointers baked into the key cannot be recycled
  /// into a different model while the entry is resident (same argument as
  /// the serving cache's explicit-model keying).
  struct MemoEntry {
    std::optional<CoResult> result;
    std::vector<std::shared_ptr<const ObjectiveModel>> pins;
    std::list<std::string>::iterator lru;
  };

  /// Singleflight state for one in-flight dedupable solve. Later flushes
  /// that meet the same dedup key attach (sub, index) waiters here instead
  /// of re-solving; the representative's delivery fans its bits out to every
  /// waiter and retires the registry entry. Guarded by mu_.
  struct SharedSlot {
    std::vector<std::pair<Submission*, int>> waiters;
  };

  /// Singleflight state for one in-flight Minimize solve. Waiters block on
  /// done_cv_ until the representative publishes `result`; the shared_ptr
  /// keeps the state alive for waiters that wake after the registry entry
  /// was retired. Fields are guarded by mu_ (stated here; guarded_by cannot
  /// name another object's mutex).
  struct MinFlight {
    bool done = false;
    CoResult result;
  };

  /// Body of the long-lived flusher task (runs on flusher_).
  void FlusherLoop();
  /// Groups `batch` by fuse key (deduplicating identical subproblems against
  /// the memo and within the window), chunks each group, and dispatches the
  /// chunks. Called by the flusher with mu_ NOT held.
  void Flush(std::vector<Submission*> batch);
  /// Inserts a solved subproblem into the memo, evicting LRU entries past
  /// capacity. Keeps the incumbent on key collision (two in-flight flushes
  /// can race to solve the same key; the bits agree).
  void MemoInsertLocked(std::string key, std::optional<CoResult> result,
                        std::vector<std::shared_ptr<const ObjectiveModel>> pins)
      UDAO_REQUIRES(mu_);

  const SolveCoalescerConfig config_;
  /// Solver all fused chunks run on; shares config_.mogd (and its pool
  /// pointer, though chunks never use it -- they ARE the parallelism).
  MogdSolver solver_;

  mutable Mutex mu_;
  CondVar flush_cv_;  ///< Wakes the flusher (arrival/shutdown).
  CondVar done_cv_;   ///< Wakes blocked submitters.
  /// Pending submissions, oldest first. The pointed-to Submissions' result
  /// slots / remaining / done are mu_-guarded too (stated on the struct;
  /// guarded_by cannot name another object's mutex).
  std::vector<Submission*> pending_ UDAO_GUARDED_BY(mu_);
  int pending_problems_ UDAO_GUARDED_BY(mu_) = 0;
  int inflight_chunks_ UDAO_GUARDED_BY(mu_) = 0;
  bool shutdown_ UDAO_GUARDED_BY(mu_) = false;
  Stats stats_ UDAO_GUARDED_BY(mu_);
  /// Solved-subproblem memo: key -> entry, with recency order in memo_lru_
  /// (front = coldest).
  std::unordered_map<std::string, MemoEntry> memo_ UDAO_GUARDED_BY(mu_);
  std::list<std::string> memo_lru_ UDAO_GUARDED_BY(mu_);
  /// Singleflight registry: dedup key -> in-flight slot. Entries live from
  /// unit creation to delivery, so any identical unit -- same flush or a
  /// later one -- joins the pending solve instead of launching a redundant
  /// descent.
  std::unordered_map<std::string, std::shared_ptr<SharedSlot>> inflight_
      UDAO_GUARDED_BY(mu_);
  /// Minimize singleflight registry: key -> in-flight solve. Same lifetime
  /// discipline as inflight_ (insert at admission, erase at delivery).
  std::unordered_map<std::string, std::shared_ptr<MinFlight>> min_inflight_
      UDAO_GUARDED_BY(mu_);

  /// One worker dedicated to the window clock. Owned last-constructed /
  /// first-destroyed is irrelevant here; the destructor explicitly drains it
  /// before waiting out inflight chunks.
  std::unique_ptr<ThreadPool> flusher_;
};

}  // namespace udao

#endif  // UDAO_MOO_SOLVE_COALESCER_H_
