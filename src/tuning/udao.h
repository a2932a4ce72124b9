#ifndef UDAO_TUNING_UDAO_H_
#define UDAO_TUNING_UDAO_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/thread_pool.h"

#include "common/deadline.h"
#include "common/status.h"
#include "model/model_server.h"
#include "moo/progressive_frontier.h"
#include "moo/recommend.h"
#include "spark/conf.h"

namespace udao {

class Dataflow;

/// Which step-3 strategy picks the final configuration from the computed
/// frontier (Appendix B). Knee/slope are 2D-only and fall back to WUN when
/// inapplicable (k != 2, or the frontier has too few points for a slope).
/// The policy never affects step 2, so the serving layer serves any policy
/// change from a cached frontier.
enum class RecommendPolicy { kWun, kKnee, kSlope };

/// What a serving layer does with a request that arrives while its admission
/// queue is at capacity (or whose budget expired while queued). Defined here
/// rather than in src/serving because requests can carry a per-request
/// override (RequestOptions::shed_policy) and the request types live at this
/// layer.
enum class ShedPolicy {
  /// Fail fast with Unavailable. The caller sees backpressure immediately
  /// and can retry against another replica.
  kReject,
  /// Serve the most recent cached frontier for the request's key regardless
  /// of model generation, tagged degraded. Falls back to Unavailable when
  /// nothing is cached. Also used when model resolution itself fails
  /// (stale answer beats no answer for a tuning advisor).
  kServeStaleCache,
  /// Admit the request anyway but clamp its budget to the service's degraded
  /// budget, so it runs a short anytime solve and returns a degraded
  /// frontier instead of joining an unbounded backlog at full cost.
  kDegrade,
};

/// Tuning granularity of one request. kJob is the paper's original surface:
/// one configuration for the whole job. kStage adds the hierarchical layer
/// (src/moo/hierarchical.h): shared context knobs chosen once, per-stage
/// knobs solved per subproblem, returned as a StageConfOverlay beside the
/// flat configuration.
enum class AdaptiveGranularity { kJob, kStage };

/// Stage-level adaptive tuning knobs. Like the rest of RequestOptions these
/// never enter the serving cache key: the per-stage refinement is computed at
/// recommendation time from the cached frontier's chosen point (which depends
/// on the request's weights), never cached with the frontier itself.
struct AdaptiveOptions {
  AdaptiveGranularity granularity = AdaptiveGranularity::kJob;
  /// Budget handed to each AQE-style boundary re-solve (engine
  /// RunAdaptive deployments); also bounds the recommend-time per-stage
  /// refinement as a whole-overlay budget.
  double resolve_budget_ms = 10.0;
};

/// Per-request knobs, collected in one place so UdaoRequest stays "what to
/// optimize" and this stays "how to treat this particular request". None of
/// these fields enters the serving cache key: they steer step 3 and budgets
/// -- never which frontier step 2 computes.
struct RequestOptions {
  /// Recommendation (step 3) strategy. Requests that differ only in
  /// preference weights, `policy`, or `slope_side` share the same frontier
  /// and are served from UdaoService's cache without re-running PF.
  RecommendPolicy policy = RecommendPolicy::kWun;
  /// Reference anchor for the kKnee / kSlope policies.
  SlopeSide slope_side = SlopeSide::kLeft;

  /// Sampling-based frontier densification (src/moo/densify.h) before the
  /// recommendation step: > 0 enables it, drawing this many perturbed
  /// candidates per frontier point. UdaoService applies it to cache-hit
  /// frontiers on weight/policy-only repeats (deadline-aware via the
  /// request's StopToken) and post-hoc to degraded deadline-hit frontiers.
  /// The cached entry itself is immutable; the densified variant -- a pure
  /// function of the entry and these knobs -- is memoized beside the entry
  /// (and dies with it), so warm repeats reuse it instead of re-sampling.
  /// 0 (the default) serves exactly what PF produced.
  int densify_samples = 0;
  /// Gaussian jitter stddev, per encoded knob dimension in [0,1], used by
  /// densification sampling.
  double densify_radius = 0.05;

  /// Time budget for the whole request, queue wait included. Default: none.
  /// On expiry the solve stops at its next amortized check and returns the
  /// best-so-far frontier tagged `degraded` (PF's anytime property) rather
  /// than erroring -- unless nothing was computed yet, in which case the
  /// request fails with DeadlineExceeded. Budgets change *how much* of the
  /// frontier gets computed, not which frontier, and degraded results are
  /// never cached.
  Deadline deadline;
  /// Cooperative cancellation (e.g. the client disconnected). The default
  /// token never cancels and costs nothing to check.
  CancellationToken cancel;

  /// Stage-level adaptive tuning (granularity, boundary re-solve budget).
  /// Requires UdaoRequest::flow and a serving engine to take effect; plain
  /// job-level requests leave the defaults.
  AdaptiveOptions adaptive;

  /// Per-request override of the service-wide shed policy; nullopt uses
  /// UdaoServiceConfig::shed_policy. A latency-critical caller can demand
  /// kReject while the service default degrades, and vice versa.
  std::optional<ShedPolicy> shed_policy;
};

/// One optimization request (Fig. 1(a)): a workload (standing in for its
/// dataflow program, whose models live in the model server), the chosen
/// objectives, optional value constraints, and optional preference weights.
struct UdaoRequest {
  std::string workload_id;
  const ParamSpace* space = nullptr;
  /// The workload's dataflow program, required for stage-level requests
  /// (options.adaptive.granularity == kStage): the hierarchical solver plans
  /// stages from it. Non-owning; may be null for job-level requests.
  const Dataflow* flow = nullptr;

  /// Objectives use the stack-wide ObjectiveSpec (src/moo/problem.h). `name`
  /// is the model-server objective name (see workload/trace_gen.h constants).
  /// `model` may be left null: the optimizer resolves it itself --
  /// cost-in-cores is served analytically (it is a certain function of the
  /// knobs), other objectives come from the model server with a
  /// non-negativity floor.
  std::vector<ObjectiveSpec> objectives;

  /// External (application) preference weights, one per objective; empty
  /// means uniform. They need not be normalized.
  Vector preference_weights;

  /// Per-request knobs (policy, densification, deadline, cancellation,
  /// stage-level tuning, shed override). See RequestOptions.
  RequestOptions options;

  /// The combined stop signal solvers check.
  StopToken Stop() const {
    return StopToken(options.deadline, options.cancel);
  }
};

/// The optimizer's answer: a configuration plus the frontier that justified
/// it.
struct UdaoRecommendation {
  Vector conf_raw;               ///< Recommended raw knob values.
  Vector conf_encoded;           ///< Same point, encoded.
  Vector predicted_objectives;   ///< Model predictions, natural orientation.
  PfResult frontier;             ///< The Pareto frontier used.
  Vector weights_used;           ///< Final (combined) WUN weights.
  double seconds = 0;            ///< End-to-end optimization time.
  /// True when the answer is best-effort rather than complete: the frontier
  /// stopped early on a deadline/cancellation, or the serving layer fell
  /// back to a stale cached frontier under its shed policy. The
  /// configuration is still real and feasible -- it just came from a
  /// frontier that explored less of the trade-off space.
  bool degraded = false;
  /// Milliseconds the request sat in the serving admission queue before a
  /// worker picked it up. 0 when Udao is called directly (no queue).
  double queue_wait_ms = 0;

  /// Self-description: the knob name for each conf_raw entry, in order,
  /// copied from the request's ParamSpace. Always filled by Recommend, so
  /// consumers never need the space to interpret the vector.
  std::vector<std::string> knob_names;
  /// Stage-level refinement (kStage requests only; empty otherwise): sparse
  /// per-stage overrides of conf_raw, keyed by plan-walk stage id.
  StageConfOverlay stage_overlay;
  /// The overlay resolved per stage: stage_confs[s] is the full effective
  /// raw configuration stage s runs under (== conf_raw where no override
  /// applies). Empty for job-level requests.
  std::vector<Vector> stage_confs;
};

/// Stable JSON rendering of a recommendation for tooling (udao_cli --json):
/// knob names zipped with values, per-stage configurations, predicted
/// objectives, and the degradation flags. Doubles print with %.17g so equal
/// recommendations serialize byte-identically; map iteration is ordered, so
/// the output is deterministic.
std::string RecommendationJson(const UdaoRecommendation& rec);

/// Solver policy: everything that determines what step 2 (Progressive
/// Frontier) computes plus how step 3 recommends from it. One struct, nested
/// -- SolverOptions holds the PfConfig which holds the MogdConfig -- with
/// ONE canonical byte-serialization (AppendFingerprint) consumed by both the
/// serving cache key and the bench reports' config field, so the two can
/// never drift apart field-by-field.
struct SolverOptions {
  PfConfig pf = [] {
    PfConfig cfg;
    cfg.parallel = true;  // PF-AP is the production default (Section IV-C)
    return cfg;
  }();
  /// Pareto points requested from PF before recommending.
  int frontier_points = 20;
  /// Workload-aware WUN: fold expert internal weights (based on the
  /// workload's default-configuration latency) into the preference weights
  /// for 2D latency-vs-cost problems (Section V "Recommendation").
  bool workload_aware = true;
  /// Model-uncertainty guard (Section IV-B.3): frontier points are re-ranked
  /// for recommendation using conservative estimates F~ = E[F] + alpha
  /// std[F], so configurations whose appeal rests on confident-looking holes
  /// in a sparsely-trained model lose to well-supported ones. Applied only
  /// at the (cheap) recommendation stage; 0 disables it.
  double uncertainty_alpha = 1.0;
  /// Worker threads for the solver's PF-AP fan-out. The optimizer creates
  /// one ThreadPool at construction and reuses it across every Optimize()
  /// call (pf.mogd.pool, when already set by the caller, wins). <= 1 runs
  /// solves inline.
  int solver_threads = 4;

  /// Canonical byte-serialization of every field that can change what the
  /// solver computes: the full nested PF + MOGD configuration and the
  /// recommendation-stage policy fields. Deliberately excluded: the MOGD
  /// pool pointer and solver_threads (threading never changes solutions).
  /// Append-only framing via common/byte_key.h, so equal fingerprints mean
  /// equal solver behavior.
  void AppendFingerprint(std::string* out) const;
  std::string Fingerprint() const;
  /// Fingerprint() in lowercase hex, for JSON bench-report config fields.
  std::string FingerprintHex() const;
};

/// UDAO: the Spark-based Unified Data Analytics Optimizer (Fig. 1(a)).
///
/// Given a request, it pulls the workload's latest objective models from the
/// model server, computes a Pareto frontier with the Progressive Frontier
/// algorithm, and recommends the configuration that best explores the
/// trade-offs under the application's preferences (Weighted Utopia Nearest).
///
/// Model training happens elsewhere (ModelServer + workload/trace_gen.h);
/// this hot path only reads the most recent models, which is what keeps
/// recommendations within seconds.
class Udao {
 public:
  /// `server` owns the models; the optimizer refreshes them lazily on use.
  Udao(ModelServer* server, SolverOptions options = SolverOptions());

  /// Handles one request end to end. NotFound when the workload has no
  /// traces yet for some requested objective -- callers should run the
  /// default configuration once and retry after ingestion.
  ///
  /// Equivalent to Validate + ResolveObjectives + PF + Recommend below; the
  /// decomposed surface exists so the serving layer can reuse a cached
  /// frontier and re-run only step 3.
  StatusOr<UdaoRecommendation> Optimize(const UdaoRequest& request);

  /// Structural request validation (no model access): non-null space, at
  /// least one objective, one preference weight per objective when given.
  static Status Validate(const UdaoRequest& request);

  /// Step 1: resolves every requested objective to a concrete model --
  /// analytic cost-in-cores when applicable, otherwise the model server's
  /// latest model behind a non-negativity floor. May train lazily inside the
  /// server. Also validates the request.
  StatusOr<std::vector<ObjectiveSpec>> ResolveObjectives(
      const UdaoRequest& request) const;

  /// Step 3 alone: recommends from an already-computed frontier of
  /// `problem` (which must hold the resolved objectives the frontier was
  /// computed with). This is the serving layer's cache-hit path; it touches
  /// no solver state and is safe to call concurrently. The returned
  /// `seconds` covers only this call.
  ///
  /// `ranked`, when non-null, supplies the conservative (uncertainty-
  /// adjusted) companion of `frontier.frontier` -- the exact vector
  /// ConservativeRank returns for it -- and skips the MC-dropout re-rank; it
  /// is read in place, not copied. `default_latency`, when set, supplies
  /// DefaultLatency(request, problem) and skips its model forward; when
  /// nullopt Recommend computes it itself. The serving layer memoizes both
  /// per cache entry, so warm repeats pay neither `mc_samples` forward
  /// passes per frontier point nor the default-configuration forward.
  StatusOr<UdaoRecommendation> Recommend(
      const UdaoRequest& request, const MooProblem& problem,
      const PfResult& frontier, const std::vector<MooPoint>* ranked = nullptr,
      std::optional<double> default_latency = std::nullopt) const;

  /// The default-configuration latency (natural orientation) that keys
  /// workload-aware WUN's internal weights: objective 0 of `problem` at
  /// `request.space`'s defaults. nullopt when those weights do not apply
  /// (workload_aware off, k != 2, or objective 0 is not latency). A pure
  /// function of the request's space and objective names and of `problem`'s
  /// models, so fixed for a serving cache entry.
  std::optional<double> DefaultLatency(const UdaoRequest& request,
                                       const MooProblem& problem) const;

  /// The conservative re-ranking Recommend applies before choosing: each
  /// point's objectives replaced by F~ = E[F] + uncertainty_alpha * std[F]
  /// (batched MC-dropout, one PredictWithUncertaintyBatch per objective).
  /// With uncertainty_alpha == 0 (or an empty input) this is the identity.
  /// Deterministic -- the per-point seed contract makes it a pure function
  /// of (problem, points) -- which is what makes it cacheable.
  std::vector<MooPoint> ConservativeRank(
      const MooProblem& problem, const std::vector<MooPoint>& points) const;

  const SolverOptions& options() const { return options_; }

 private:
  ModelServer* server_;
  SolverOptions options_;
  /// Lives as long as the optimizer; options_.pf.mogd.pool points here
  /// unless the caller supplied a pool of their own.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace udao

#endif  // UDAO_TUNING_UDAO_H_
