#ifndef UDAO_TUNING_PIPELINE_H_
#define UDAO_TUNING_PIPELINE_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "moo/progressive_frontier.h"

namespace udao {

/// One stage of an analytics pipeline: a named task with its own MOO problem
/// (its own models and knob space). All stages must expose the same list of
/// *additive* objectives in the same order -- e.g. (latency, CPU-hour):
/// pipeline latency is the sum of sequential stage latencies and pipeline
/// cost the sum of stage costs.
struct PipelineStage {
  std::string name;
  const MooProblem* problem = nullptr;
};

/// One point on the pipeline-level frontier: the summed objectives plus the
/// per-stage encoded configurations that achieve them.
struct PipelinePoint {
  Vector objectives;                        ///< Summed, minimization orient.
  std::vector<Vector> stage_confs_encoded;  ///< One configuration per stage.
};

/// Pipeline optimization output.
struct PipelineResult {
  std::vector<PipelinePoint> frontier;
  Vector utopia;
  Vector nadir;
  /// Per-stage frontier sizes (diagnostics).
  std::vector<int> stage_frontier_sizes;
};

/// Settings for PipelineOptimizer.
struct PipelineOptions {
  PfConfig pf;                ///< Per-stage frontier computation.
  int points_per_stage = 12;  ///< Frontier size requested per stage.
  int max_points = 64;        ///< Thinning cap on composed frontiers.
  /// Conservative stage-point values F~ = E[F] + alpha std[F] before
  /// composing, so pipeline plans avoid configurations whose appeal rests on
  /// model holes (same guard as SolverOptions::uncertainty_alpha).
  double uncertainty_alpha = 1.0;
  /// Worker threads for the per-stage PF-AP fan-out; one ThreadPool is
  /// created at construction and shared by every stage solve (a caller-set
  /// pf.mogd.pool wins). <= 1 runs solves inline.
  int solver_threads = 4;
};

/// Multi-task pipeline optimizer -- the extension the paper names as future
/// work ("we plan to extend UDAO to support a pipeline of analytic tasks").
///
/// Each stage's Pareto frontier is computed independently with the
/// Progressive Frontier algorithm; the pipeline-level frontier is the Pareto
/// filter of the Minkowski sum of stage frontiers, composed stage by stage
/// with thinning so the intermediate sets stay bounded. Every pipeline
/// frontier point decomposes into one concrete configuration per stage, so a
/// single preference vector picks a coherent end-to-end plan.
class PipelineOptimizer {
 public:
  explicit PipelineOptimizer(PipelineOptions options = PipelineOptions());

  /// Computes the pipeline frontier. Fails on an empty pipeline, mismatched
  /// objective arities, or a stage with an empty frontier.
  StatusOr<PipelineResult> Optimize(
      const std::vector<PipelineStage>& stages) const;

  /// Weighted-Utopia-Nearest recommendation over a pipeline frontier.
  static std::optional<PipelinePoint> Recommend(const PipelineResult& result,
                                                const Vector& weights);

  /// Exposed for testing: Pareto-filter of the pairwise sums of two frontier
  /// sets, thinned to `max_points` (evenly by the first objective).
  static std::vector<PipelinePoint> Compose(
      const std::vector<PipelinePoint>& a, const std::vector<PipelinePoint>& b,
      int max_points);

 private:
  PipelineOptions options_;
  /// Lives as long as the optimizer; options_.pf.mogd.pool points here
  /// unless the caller supplied a pool of their own.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace udao

#endif  // UDAO_TUNING_PIPELINE_H_
