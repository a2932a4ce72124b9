#ifndef UDAO_MOO_SOLVE_COALESCER_H_
#define UDAO_MOO_SOLVE_COALESCER_H_

#include <cstdint>
#include <list>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/sync.h"
#include "moo/mogd.h"

namespace udao {

/// Settings of the cross-request solve coalescer.
struct SolveCoalescerConfig {
  /// Solver settings. MUST equal the MogdConfig of the ProgressiveFrontier
  /// instances that route through this coalescer (same seed, iterations,
  /// learning rate, alpha, pool): the coalescer re-derives each problem's
  /// seed from `mogd.seed` exactly as MogdSolver::SolveBatch would, which is
  /// what keeps coalesced solves bitwise-identical to solo ones. Descents run
  /// on `mogd.pool` (inline when null).
  MogdConfig mogd;
  /// Capacity of the solved-subproblem memo. A solve's bits are a pure
  /// function of (problem identity, CoProblem, seed); concurrent tenants
  /// replaying the same deterministic probe sequence hit the memo instead of
  /// re-descending. Entries whose stop token fired mid-solve are never
  /// inserted, and deadline-armed submissions bypass the memo entirely so
  /// anytime semantics stay exact. 0 disables the memo (singleflight
  /// remains).
  int memo_capacity = 512;
};

/// Shares MOGD constrained-optimization solves between concurrent requests:
/// a subproblem identical to one still descending, or to one in the memo, is
/// not solved again. It adds no wait and runs no thread of its own. Each
/// SolveBatch call first serves what it can under one lock -- memo hits,
/// and twins of subproblems other calls are descending (singleflight) --
/// then runs the rest through `mogd.pool`'s ParallelFor, descending on the
/// calling thread too, and finally waits for the twins it joined.
///
/// Determinism: a problem's solution depends only on (problem, CoProblem,
/// seed), and the coalescer assigns slot i of a submission the seed
/// `mogd.seed + 1000*i` -- the MogdSolver::SolveBatch contract -- so results
/// are bitwise-identical to solo solves no matter which call or thread
/// descended them (coalescer_test pins this).
///
/// Identical-subproblem coalescing: two units with identical (problem
/// identity + structural space, CoProblem bytes, slot seed) compute
/// identical bits, so one is solved and shared -- through a singleflight
/// registry (a unit arriving while its twin is still descending attaches as
/// a waiter to that solve) and a bounded LRU memo of completed subproblems
/// (pinning the objective models so a recycled model address can never
/// alias a stale entry; the space enters as an interned id of its
/// structure, so a recycled space address misses too). Concurrent tenants
/// replaying the same probe stream -- the thundering-herd shape the
/// frontier cache cannot absorb because every stampeding request misses
/// before the first insert -- collapse to one descent stream.
/// Deadline-armed submissions opt out of both (their anytime truncation
/// semantics stay exactly solo); a dedupable slot descends under a
/// never-stopping token, because a twin may attach at any point
/// mid-descent and must not receive bits truncated by the representative's
/// own cancellation (cancellation is still honored between probes, at the
/// frontier layer). A result is only memoized when its governing stop never
/// fired.
///
/// Progress: a call claims its own registered descents until none is left
/// and blocks only after that, on twins other calls registered; those calls
/// are descending them. So every registered solve runs even if no pool
/// worker ever helps, and SolveBatch may be called from a pool worker.
class SolveCoalescer : public CoBatchSolver {
 public:
  explicit SolveCoalescer(SolveCoalescerConfig config);
  /// Every SolveBatch and Minimize call returns only after its own solves
  /// were delivered, so destruction has nothing to drain; callers must not
  /// destroy the coalescer while a call is in flight.
  ~SolveCoalescer() override = default;

  SolveCoalescer(const SolveCoalescer&) = delete;
  SolveCoalescer& operator=(const SolveCoalescer&) = delete;

  /// CoBatchSolver surface: blocks until every problem in `problems` is
  /// solved, by this call or by the concurrent call that first posed an
  /// identical subproblem.
  std::vector<std::optional<CoResult>> SolveBatch(
      const MooProblem& problem, const std::vector<CoProblem>& problems,
      SolvePerf* perf, const StopToken& stop) override;

  /// Minimize-keyed singleflight: unconstrained reference-point solves
  /// keyed by (problem identity + structural space + target) -- user value
  /// bounds are deliberately absent from the key because Minimize never
  /// sees them, so tenants with different SLOs share one descent. A call
  /// that finds its key in flight blocks on the representative's result;
  /// completed solves land in the same bounded LRU memo as CO subproblems.
  /// Deadline-armed callers bypass both and solve solo inline (exact anytime
  /// semantics); the representative descends under a never-stopping token
  /// so a twin attaching mid-descent cannot receive truncated bits. Bits
  /// always equal a solo MogdSolver::Minimize with the shared config.
  CoResult Minimize(const MooProblem& problem, int target, SolvePerf* perf,
                    const StopToken& stop) override;

  /// Monotonic counters, for stats endpoints and tests.
  struct Stats {
    long long submissions = 0;      ///< SolveBatch calls with >= 1 problem.
    long long problems = 0;         ///< CO problems across submissions.
    long long descents = 0;         ///< CO problems actually descended.
    long long dedup_hits = 0;       ///< Problems served by joining an
                                    ///< identical in-flight representative.
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
    std::list<const std::string*>::iterator lru;
  };

  /// Singleflight state for one in-flight dedupable solve. Later calls that
  /// meet the same dedup key attach (sub, index) waiters here instead of
  /// re-solving; the representative's delivery fans its bits out to every
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

  /// Key prefix naming the functions a problem evaluates through: space
  /// address and interned structure id, then per objective the model
  /// identity and orientation. Every dedup and memo key starts with it.
  std::string IdentityKey(const MooProblem& problem) UDAO_EXCLUDES(mu_);
  /// Inserts a solved subproblem into the memo, pinning `problem`'s models
  /// and evicting LRU entries past capacity. Keeps the incumbent of an
  /// existing key (the bits agree).
  void MemoInsertLocked(std::string key, std::optional<CoResult> result,
                        const MooProblem& problem) UDAO_REQUIRES(mu_);

  const SolveCoalescerConfig config_;
  /// Solver every descent runs on; shares config_.mogd.
  MogdSolver solver_;

  mutable Mutex mu_;
  CondVar done_cv_;  ///< Wakes submitters waiting on another call's solve.
  Stats stats_ UDAO_GUARDED_BY(mu_);
  /// Interned ParamSpace structures (ParamSpace::AppendStructure bytes ->
  /// id). One entry per distinct structure, so keys carry 4 bytes instead
  /// of the whole structure.
  std::unordered_map<std::string, uint32_t> structure_ids_
      UDAO_GUARDED_BY(mu_);
  /// Solved-subproblem memo: key -> entry, with recency order in memo_lru_
  /// (front = coldest). memo_lru_ points at memo_'s keys, whose addresses
  /// survive rehashing.
  std::unordered_map<std::string, MemoEntry> memo_ UDAO_GUARDED_BY(mu_);
  std::list<const std::string*> memo_lru_ UDAO_GUARDED_BY(mu_);
  /// Singleflight registry: dedup key -> in-flight slot. Entries live from
  /// registration to delivery, so any identical unit -- in the same call or
  /// a concurrent one -- joins the pending solve instead of launching a
  /// redundant descent.
  std::unordered_map<std::string, std::shared_ptr<SharedSlot>> inflight_
      UDAO_GUARDED_BY(mu_);
  /// Minimize singleflight registry: key -> in-flight solve. Same lifetime
  /// discipline as inflight_ (insert at admission, erase at delivery).
  std::unordered_map<std::string, std::shared_ptr<MinFlight>> min_inflight_
      UDAO_GUARDED_BY(mu_);
};

}  // namespace udao

#endif  // UDAO_MOO_SOLVE_COALESCER_H_
