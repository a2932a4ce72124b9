#ifndef UDAO_MOO_MOGD_H_
#define UDAO_MOO_MOGD_H_

#include <optional>
#include <vector>

#include "common/deadline.h"
#include "common/thread_pool.h"
#include "moo/problem.h"

namespace udao {

/// Settings for the Multi-Objective Gradient Descent solver (Section IV-B).
struct MogdConfig {
  /// Gradient-descent restarts from different initial points ("multi-start
  /// method to try gradient descent from multiple initial points").
  int multistart = 8;
  /// Adam iterations per start.
  int max_iters = 120;
  double learning_rate = 0.1;
  /// Uncertainty coefficient: objectives are replaced by
  /// E[F] + alpha * std[F] when alpha > 0 (Section IV-B.3).
  double alpha = 0.0;
  /// Worker threads for SolveBatch (PF-AP sends l^k CO problems at once).
  /// Non-owning: the caller creates the pool once (Udao / PipelineOptimizer
  /// own one per instance) and may share it across solvers. Null runs the
  /// batch inline on the calling thread. Per-problem results are independent
  /// of the pool, so threading never changes solutions.
  ThreadPool* pool = nullptr;
  uint64_t seed = 17;
};

/// Performance counters for one solve (or an aggregate of many). These feed
/// the numbers printed by tools/udao_cli.cc and bench_mogd_solver.
struct SolvePerf {
  long long model_evals = 0;   ///< Point-evaluations of objective models.
  long long batch_calls = 0;   ///< Batched model invocations issued.
  long long iterations = 0;    ///< Adam iterations executed (all starts).
  double eval_seconds = 0.0;   ///< Wall-clock inside model evaluation.
  double solve_seconds = 0.0;  ///< Wall-clock of the whole solve.

  /// Mean points per model invocation.
  double AvgBatch() const {
    return batch_calls > 0 ? static_cast<double>(model_evals) / batch_calls
                           : 0.0;
  }
  void Merge(const SolvePerf& other) {
    model_evals += other.model_evals;
    batch_calls += other.batch_calls;
    iterations += other.iterations;
    eval_seconds += other.eval_seconds;
    solve_seconds += other.solve_seconds;
  }
};

/// A constrained-optimization task: minimize objective `target` subject to
/// F_j(x) in [lower_j, upper_j] for every objective j (Eq. 2's middle-point
/// probe instantiates these bounds), plus optional linear objective-space
/// constraints a . F(x) <= b (used by the Normal Constraints baseline).
struct CoProblem {
  int target = 0;
  Vector lower;  ///< Per-objective lower bounds (minimization orientation).
  Vector upper;  ///< Per-objective upper bounds.
  struct LinearConstraint {
    Vector normal;  ///< a (one weight per objective)
    double offset;  ///< b
  };
  std::vector<LinearConstraint> linear;
};

/// Solution of one CO problem.
struct CoResult {
  Vector x;           ///< Encoded configuration (relaxed, in [0,1]^D).
  Vector raw;         ///< Decoded raw knob values (rounded / argmaxed).
  Vector objectives;  ///< Objective values at x (minimization orientation).
  double target_value = 0.0;
  SolvePerf perf;     ///< Counters for the solve that produced this result.
};

/// Pluggable batch-solve surface with MogdSolver::SolveBatch's exact
/// contract: result i corresponds to problems[i], per-problem results are
/// independent of scheduling, and problem i is seeded with
/// `mogd.seed + 1000 * i` so any implementation returns bitwise-identical
/// solutions. MogdSolver is the direct implementation; the cross-request
/// SolveCoalescer is the other, plugged in through PfConfig::co_solver /
/// HierarchicalConfig::co_solver so concurrent requests never descend the
/// same subproblem twice. ProgressiveFrontier and HierarchicalMoo issue
/// every MOGD solve through this interface.
class CoBatchSolver {
 public:
  virtual ~CoBatchSolver() = default;
  virtual std::vector<std::optional<CoResult>> SolveBatch(
      const MooProblem& problem, const std::vector<CoProblem>& problems,
      SolvePerf* perf, const StopToken& stop) = 0;

  /// Unconstrained single-objective minimization with
  /// MogdSolver::Minimize's exact contract (same seed, same bits). PF's
  /// Initialize routes its per-objective reference-point solves through this
  /// so implementations can dedupe them across concurrent requests -- the
  /// solves are unconstrained, so their bits are independent of any
  /// per-tenant value bounds and safe to share between tenants.
  virtual CoResult Minimize(const MooProblem& problem, int target,
                            SolvePerf* perf, const StopToken& stop) = 0;
};

/// Multi-Objective Gradient Descent solver. Uses the carefully-crafted loss
/// of Eq. 3 to drive Adam toward the constrained minimum of one objective:
///
///   L(x) = 1{0 <= F~t <= 1} F~t^2
///        + sum_j 1{F~j < 0 or F~j > 1} [ (F~j - 0.5)^2 + P ]
///
/// with F~j the objective normalized by its constraint bounds. Variables live
/// in [0,1]^D (one-hot + normalized + relaxed); each step clips back into the
/// box. Works with any subdifferentiable ObjectiveModel (DNN, GP, analytic).
///
/// Note on the constant P: in Eq. 3 it only orders losses so that every
/// infeasible candidate scores worse than any feasible one. This solver
/// enforces that ordering directly -- candidates are tracked feasibility-
/// first and ranked by the target value -- so P never needs a numeric value
/// (it also has zero gradient and thus no effect on the descent itself).
///
/// Every solve advances all multistarts in lockstep: each Adam iteration
/// evaluates every objective once over the whole [multistart, dim] batch
/// (one GEMM for DNN objectives, with the forward pass shared between
/// values and gradients). Initial points are drawn start-major (start 0 is
/// the box center) and per-start incumbents merge in start order, so an
/// unstopped solve returns exactly what descending one start at a time
/// would (tests/mogd_reference.h keeps that loop as the reference). The
/// solver holds only its config, so every method is safe to call
/// concurrently.
class MogdSolver : public CoBatchSolver {
 public:
  explicit MogdSolver(MogdConfig config = MogdConfig());

  /// Solves one CO problem; nullopt when no feasible point was found, which
  /// the Progressive Frontier treats as "this hyperrectangle is empty".
  /// `perf`, when non-null, accumulates this solve's counters (also reported
  /// even when the solve comes back infeasible).
  ///
  /// `stop` makes the solve *anytime*: the descent checks it once per Adam
  /// iteration (never per model evaluation) and, when it fires, returns the
  /// current incumbent -- the best feasible point seen so far -- instead of
  /// running the remaining iterations. The first iteration always runs, so
  /// even an already-expired deadline yields a real evaluation. The default
  /// token never stops.
  std::optional<CoResult> SolveCo(const MooProblem& problem,
                                  const CoProblem& co,
                                  SolvePerf* perf = nullptr,
                                  const StopToken& stop = StopToken()) const;

  /// Solves a batch of CO problems through config().pool's ParallelFor, the
  /// calling thread included (inline when null) -- the PF-AP fan-out; a
  /// PF-AS probe is a batch of one. Result i
  /// corresponds to problems[i] and is independent of the pool's thread
  /// count. Each per-problem solve checks `stop` per iteration (see SolveCo).
  std::vector<std::optional<CoResult>> SolveBatch(
      const MooProblem& problem, const std::vector<CoProblem>& problems,
      SolvePerf* perf = nullptr,
      const StopToken& stop = StopToken()) override;

  /// Unconstrained single-objective minimization (line 2 of Algorithm 1, used
  /// to find the reference points). Only the box [0,1]^D constrains x.
  /// Always returns a finite incumbent even when `stop` fires immediately
  /// (the first iteration is unconditional).
  CoResult Minimize(const MooProblem& problem, int target,
                    SolvePerf* perf = nullptr,
                    const StopToken& stop = StopToken()) override;

  /// SolveCo with an explicit RNG seed: a SolveCoFused group of one. It is
  /// the primitive SolveBatch builds on (`config().seed + 1000 * i` for slot
  /// i); a problem's solution depends only on (problem, co, seed), never on
  /// which batch or fused group it rode in.
  std::optional<CoResult> SolveCoSeeded(const MooProblem& problem,
                                        const CoProblem& co, uint64_t seed,
                                        SolvePerf* perf,
                                        const StopToken& stop) const;

  /// Solves several CO problems of the SAME MooProblem in one fused lockstep
  /// descent: all problems' multistarts are stacked into a single
  /// [problems * multistart, dim] batch, so each Adam iteration issues ONE
  /// batched model call per objective for the whole group (one GEMM stream
  /// for N requests, not N). Per-problem results are bitwise-identical to
  /// SolveCoSeeded(problem, *cos[i], seeds[i], ...): model batch evaluation
  /// is row-independent, each problem keeps its own seed, Adam state, and
  /// incumbents, and a problem whose `stops[i]` fires is frozen (final
  /// evaluate+consider, then excluded from stepping) without stalling the
  /// rest of the group -- exactly the solo early-exit sequence.
  ///
  /// Counter attribution: model_evals/iterations are exact per problem;
  /// batch_calls counts each problem's logical batched calls (the physical
  /// fused call is shared by the group), and the shared evaluation wall time
  /// is split evenly across the problems that participated.
  std::vector<std::optional<CoResult>> SolveCoFused(
      const MooProblem& problem, const std::vector<const CoProblem*>& cos,
      const std::vector<uint64_t>& seeds,
      const std::vector<const StopToken*>& stops,
      std::vector<SolvePerf>* perfs) const;

 private:
  MogdConfig config_;
};

}  // namespace udao

#endif  // UDAO_MOO_MOGD_H_
