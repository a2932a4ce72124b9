#ifndef UDAO_MOO_PROGRESSIVE_FRONTIER_H_
#define UDAO_MOO_PROGRESSIVE_FRONTIER_H_

#include <queue>
#include <vector>

#include "common/deadline.h"
#include "moo/exhaustive.h"
#include "moo/mogd.h"
#include "moo/pareto.h"
#include "moo/problem.h"

namespace udao {

/// Variant selection and tuning for the Progressive Frontier algorithms.
struct PfConfig {
  /// PF-AP when true: each popped hyperrectangle is partitioned into an
  /// l^k grid whose CO problems are solved in parallel. PF-AS when false:
  /// one middle-point probe at a time (Algorithm 1).
  bool parallel = false;
  /// The grid degree l of PF-AP.
  int grid_per_dim = 2;
  /// CO subroutine settings (MOGD, Section IV-B).
  MogdConfig mogd;
  /// PF-S: replace MOGD with the dense reference solver, giving the
  /// deterministic-but-slow sequential algorithm of Section IV-A.
  bool use_exhaustive = false;
  int exhaustive_budget = 4096;
  /// Safety cap on probes per Run() call (middle-point probes can come back
  /// empty without adding points).
  int max_probes = 2000;
  /// Ablation switch: explore hyperrectangles in FIFO order instead of
  /// largest-volume-first, disabling the paper's uncertainty-aware property.
  bool fifo_queue = false;
  /// When set (and use_exhaustive is off), every MOGD solve -- the PF-AP
  /// grid fan-out, the PF-AS probe (a batch of one) and the reference-point
  /// minimizations -- goes through this solver instead of the private
  /// MogdSolver built from `mogd`. Non-owning; the serving layer points it at
  /// its cross-request SolveCoalescer so concurrent requests share identical
  /// subproblems' descents, and its Minimize singleflight serves every
  /// hot-tenant request's Initialize from one shared descent. The CoBatchSolver
  /// contract (mogd.h) pins per-problem seeds, so routing never changes
  /// solutions -- like the MOGD pool pointer, it is deliberately excluded
  /// from the options fingerprint.
  CoBatchSolver* co_solver = nullptr;
};

/// One timed measurement of frontier progress, used to draw the paper's
/// uncertain-space-vs-time curves (Fig. 4(a)/4(d)/5(d)).
struct PfSnapshot {
  double seconds = 0;            ///< Elapsed optimization time so far.
  int num_points = 0;            ///< Pareto points found so far.
  double uncertain_percent = 0;  ///< Remaining uncertain space, % of box.
};

/// Output of a Progressive Frontier run.
struct PfResult {
  std::vector<MooPoint> frontier;    ///< Non-dominated solutions found.
  Vector utopia;                     ///< Initial Utopia point (Def. III.2).
  Vector nadir;                      ///< Initial Nadir point.
  double uncertain_percent = 100.0;  ///< Final uncertain space.
  std::vector<PfSnapshot> history;   ///< Per-probe progress.
  int probes = 0;                    ///< CO problems solved.
  /// True when the last Run() stopped on a deadline/cancellation before
  /// reaching its point target: the frontier is valid (mutually
  /// non-dominated, every point real) but best-so-far rather than complete
  /// -- the paper's anytime property. A later Run() that finishes normally
  /// clears it. Serving layers must not cache degraded frontiers.
  bool degraded = false;
  /// Aggregated MOGD counters over every CO solve of the run (reference
  /// points, probes, and PF-AP grid cells). Zero when use_exhaustive is on.
  SolvePerf perf;
};

/// The paper's core contribution: incrementally transforms the MOO problem
/// into a series of constrained single-objective problems via iterative
/// middle-point probes over a shrinking set of hyperrectangles
/// (Sections III-IV).
///
/// The algorithm is *incremental* -- Run(m) followed by Run(m') with m' > m
/// extends the same frontier, never contradicting earlier answers (the
/// consistency property evolutionary methods lack) -- and *uncertainty-
/// aware* -- the hyperrectangle with the largest volume is probed first, so
/// computation goes where the frontier is least known.
class ProgressiveFrontier {
 public:
  ProgressiveFrontier(const MooProblem* problem, PfConfig config = PfConfig());
  // solver_ may point at this object's own mogd_.
  ProgressiveFrontier(const ProgressiveFrontier&) = delete;
  ProgressiveFrontier& operator=(const ProgressiveFrontier&) = delete;

  /// Expands the frontier until it holds at least `total_points` points, the
  /// uncertain space is exhausted, or the probe cap is hit. Returns the
  /// up-to-date result; callable repeatedly with growing targets.
  const PfResult& Run(int total_points);

  /// Deadline-aware Run: checks `stop` once per expansion (and the CO
  /// solves check it once per Adam iteration). When it fires, returns the
  /// best-so-far frontier with result().degraded == true. Initialization's
  /// reference-point solves always execute (stop-aware, so they finish in
  /// one iteration under an expired budget), which is what keeps even a
  /// zero-budget frontier non-empty whenever the box is feasible. An empty
  /// box found after `stop` fired is degraded too, since cut-short reference
  /// solves prove no infeasibility; later Runs on the same instance do not
  /// redo them, so it stays degraded. With the default token this is
  /// bitwise-identical to Run(total_points).
  const PfResult& Run(int total_points, const StopToken& stop);

  const PfResult& result() const { return result_; }

 private:
  struct Rect {
    Vector utopia;
    Vector nadir;
    double volume;
    /// Heap key: the volume for uncertainty-aware order, or a decreasing
    /// sequence number for FIFO order (ablation).
    double priority;
    bool operator<(const Rect& other) const {  // max-heap by priority
      return priority < other.priority;
    }
  };

  void Initialize(const StopToken& stop);
  // Splits [u, n] at interior point m into its 2^k corner cells and pushes
  // every cell except the masked-out corners (all-lower and/or all-upper).
  void PushSplit(const Vector& u, const Vector& n, const Vector& m,
                 bool drop_all_lower, bool drop_all_upper);
  void AddPoint(const CoResult& co);
  void Snapshot();
  /// Total volume of the queued hyperrectangles, maintained incrementally on
  /// every push/pop (recomputing it per probe meant copying the whole
  /// priority_queue once per Snapshot). Debug builds cross-check the running
  /// sum against a recomputation.
  double QueueVolume() const;
  // Non-const: both fold their MOGD counters into result_.perf.
  std::optional<CoResult> Solve(const CoProblem& co, const StopToken& stop);
  CoResult SolveMin(int target, const StopToken& stop);

  const MooProblem* problem_;
  PfConfig config_;
  MogdSolver mogd_;
  /// Every MOGD solve goes here: config_.co_solver when set, else &mogd_.
  CoBatchSolver* solver_;
  ExhaustiveSolver exhaustive_;
  bool initialized_ = false;
  bool box_empty_ = false;
  std::priority_queue<Rect> queue_;
  /// Running sum of queue_'s rect volumes (see QueueVolume()).
  double queue_volume_ = 0;
  /// +=/-= updates applied to queue_volume_ since its last exact resync;
  /// scales the debug-build drift tolerance in QueueVolume().
  long long volume_updates_ = 0;
  double initial_volume_ = 0;
  double next_seq_ = 0;  // FIFO ordering counter (ablation)
  double elapsed_s_ = 0;
  PfResult result_;
};

}  // namespace udao

#endif  // UDAO_MOO_PROGRESSIVE_FRONTIER_H_
