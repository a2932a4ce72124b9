#ifndef UDAO_MOO_HIERARCHICAL_H_
#define UDAO_MOO_HIERARCHICAL_H_

#include <map>
#include <vector>

#include "common/deadline.h"
#include "common/status.h"
#include "moo/mogd.h"
#include "moo/problem.h"
#include "spark/engine.h"

namespace udao {

/// Configuration of the hierarchical (shared-context x per-stage) solver.
struct HierarchicalConfig {
  /// Per-stage descent settings. The defaults are deliberately lighter than
  /// the frontier solver's: per-stage subproblems are 6-knob analytic
  /// minimizations, and boundary re-solves must fit inside ~10 ms budgets.
  /// UdaoService replaces them with its own solver's MogdConfig, the one its
  /// coalescer solves with. Determinism follows the MogdSolver contract -- a
  /// solve's bits are a pure function of (problem, seed), never of pools or
  /// batching.
  MogdConfig mogd = [] {
    MogdConfig cfg;
    cfg.multistart = 4;
    cfg.max_iters = 60;
    return cfg;
  }();
  /// When set, every per-stage Minimize routes through this solver. The
  /// serving layer passes its SolveCoalescer here, so boundary re-solves
  /// from concurrent requests coalesce (singleflight + memo).
  /// Null solves inline on an owned MogdSolver built from `mogd`; the two
  /// return the same bits only when `mogd` equals the co_solver's config.
  CoBatchSolver* co_solver = nullptr;
  /// Context candidates Solve() enumerates along the resource diagonal
  /// (small-and-cheap to large-and-fast). Each candidate fixes theta_c; the
  /// per-stage subproblems then decompose independently.
  int context_candidates = 6;
};

/// One point of the hierarchical frontier.
struct HierarchicalPoint {
  /// Full base conf: the candidate context plus, as a flat fallback, the
  /// dominant (most expensive) stage's per-stage knob choices folded in.
  Vector conf_raw;
  /// Per-stage knob values for every stage, keyed by plan-walk stage id.
  StageConfOverlay overlay;
  /// Composed objectives {predicted job latency_s, cost in cores}.
  Vector objectives;
};

/// Result of a hierarchical solve: mutually non-dominated points, one per
/// surviving context candidate.
struct HierarchicalResult {
  std::vector<HierarchicalPoint> points;
  /// True when the stop token fired before every candidate was solved; the
  /// points computed so far are still exact.
  bool degraded = false;
};

/// Hierarchical MOO for stage-level tuning (arXiv 2403.00995): shared
/// context knobs theta_c (resources) are chosen once per job, per-stage
/// knobs theta_p are solved independently per stage subproblem, and the two
/// compose through the engine's stage cost model:
///
///   latency(theta_c, theta_p_1..S) = overhead + sum_s stage_s(theta_c,
///                                                            theta_p_s)
///   cost(theta_c)                  = instances * cores
///
/// With cost a pure function of the context, fixing theta_c makes the job
/// latency separable: each stage's knobs are an independent single-objective
/// minimization over the relaxed stage cost, routed through CoBatchSolver::
/// Minimize (descent on the smooth relaxation; the reported objectives
/// re-evaluate the rounded conf through the exact quantized model).
class HierarchicalMoo {
 public:
  /// `engine` supplies the stage cost model; non-owning, must outlive this.
  HierarchicalMoo(const SparkEngine* engine, HierarchicalConfig config);
  // solver_ may point at this object's own inline_solver_.
  HierarchicalMoo(const HierarchicalMoo&) = delete;
  HierarchicalMoo& operator=(const HierarchicalMoo&) = delete;

  /// Full hierarchical solve for `flow` from planner estimates: enumerates
  /// context candidates, solves every stage subproblem per candidate, and
  /// returns the composed non-dominated frontier. `base_raw` supplies the
  /// plan-time knobs every candidate shares. Anytime: when `stop` fires the
  /// remaining candidates are skipped and the result is tagged degraded.
  StatusOr<HierarchicalResult> Solve(const Dataflow& flow,
                                     const Vector& base_raw,
                                     const StopToken& stop) const;

  /// Boundary re-solve: per-stage knobs for stages [first_stage, size) of
  /// `stages` with the context (and plan-time knobs) fixed by `base_raw`.
  /// This is the entry AQE-style boundary hooks call with *observed*
  /// profiles. Fails -- rather than returning a half-tuned overlay -- when
  /// `stop` fires before every remaining stage was solved, so callers keep
  /// their incumbent config (the safe-online-tuning fallback).
  StatusOr<StageConfOverlay> ResolveStages(const Vector& base_raw,
                                           const std::vector<StageProfile>& stages,
                                           int first_stage,
                                           WorkloadClass wclass,
                                           const StopToken& stop) const;

  const HierarchicalConfig& config() const { return config_; }

 private:
  /// Solves one stage subproblem; returns the chosen raw values keyed by
  /// full-space knob index.
  std::map<int, double> SolveOneStage(const Vector& base_raw,
                                      const StageProfile& stage,
                                      WorkloadClass wclass,
                                      const StopToken& stop) const;

  const SparkEngine* engine_;
  HierarchicalConfig config_;
  MogdSolver inline_solver_;
  /// Every per-stage solve goes here: config_.co_solver when set, else
  /// &inline_solver_.
  CoBatchSolver* solver_;
};

}  // namespace udao

#endif  // UDAO_MOO_HIERARCHICAL_H_
