#include "moo/hierarchical.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "common/check.h"
#include "common/fault_injector.h"
#include "model/objective_model.h"

namespace udao {

namespace {

// The per-stage knob subspace: the BatchParamSpace() specs at the
// BatchStageKnobs() indices, in that order. No categoricals, so encoded
// dimension == knob count.
const ParamSpace& StageKnobSpace() {
  static const ParamSpace& space = *new ParamSpace([] {
    const ParamSpace& full = BatchParamSpace();
    std::vector<ParamSpec> specs;
    for (int idx : BatchStageKnobs()) specs.push_back(full.spec(idx));
    return specs;
  }());
  return space;
}

double Clamp01(double v) { return std::min(1.0, std::max(0.0, v)); }

// Builds the analytic objective of one stage subproblem: encoded per-stage
// knobs -> relaxed raw values (no integer rounding -- the descent needs a
// slope) -> effective conf over `base_raw` -> relaxed stage seconds. The
// gradient falls back to CallableModel's central finite differences.
std::shared_ptr<const ObjectiveModel> MakeStageModel(const SparkEngine* engine,
                                                     Vector base_raw,
                                                     StageProfile stage,
                                                     WorkloadClass wclass) {
  const ParamSpace& sub = StageKnobSpace();
  const std::vector<int>& idx = BatchStageKnobs();
  auto fn = [engine, base_raw = std::move(base_raw), stage, wclass,
             &sub, &idx](const Vector& x) {
    Vector raw = base_raw;
    for (size_t j = 0; j < idx.size(); ++j) {
      const ParamSpec& s = sub.spec(static_cast<int>(j));
      raw[idx[j]] = s.lo + Clamp01(x[j]) * (s.hi - s.lo);
    }
    return engine->StageSecondsRelaxed(stage, SparkConf::FromRaw(raw), wclass);
  };
  return std::make_shared<CallableModel>("stage-latency", sub.EncodedDim(),
                                         std::move(fn));
}

// Strict Pareto dominance for minimization.
bool DominatesMin(const Vector& a, const Vector& b) {
  bool strict = false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] > b[i]) return false;
    if (a[i] < b[i]) strict = true;
  }
  return strict;
}

}  // namespace

HierarchicalMoo::HierarchicalMoo(const SparkEngine* engine,
                                 HierarchicalConfig config)
    : engine_(engine), config_(std::move(config)),
      inline_solver_(config_.mogd),
      solver_(config_.co_solver != nullptr ? config_.co_solver
                                           : &inline_solver_) {
  UDAO_CHECK(engine_ != nullptr);
}

std::map<int, double> HierarchicalMoo::SolveOneStage(
    const Vector& base_raw, const StageProfile& stage, WorkloadClass wclass,
    const StopToken& stop) const {
  const ParamSpace& sub = StageKnobSpace();
  std::vector<ObjectiveSpec> objectives(1);
  objectives[0].name = "stage_latency_s";
  objectives[0].model = MakeStageModel(engine_, base_raw, stage, wclass);
  const MooProblem problem(&sub, std::move(objectives));

  const CoResult result = solver_->Minimize(problem, 0, nullptr, stop);

  // CoResult.raw is the rounded decode of the relaxed solution: already a
  // valid knob assignment (Decode clamps and quantizes).
  std::map<int, double> chosen;
  const std::vector<int>& idx = BatchStageKnobs();
  for (size_t j = 0; j < idx.size(); ++j) chosen[idx[j]] = result.raw[j];
  return chosen;
}

StatusOr<StageConfOverlay> HierarchicalMoo::ResolveStages(
    const Vector& base_raw, const std::vector<StageProfile>& stages,
    int first_stage, WorkloadClass wclass, const StopToken& stop) const {
  if (Status fault = UDAO_FAULT_SITE("moo.stage_resolve"); !fault.ok()) {
    return fault;
  }
  Status valid = BatchParamSpace().Validate(base_raw);
  if (!valid.ok()) return valid;
  if (first_stage < 0 || first_stage > static_cast<int>(stages.size())) {
    return Status::InvalidArgument("first_stage out of range");
  }

  StageConfOverlay overlay;
  for (int s = first_stage; s < static_cast<int>(stages.size()); ++s) {
    // All-or-nothing: a half-tuned plan is worse than the incumbent the
    // caller already has, so an expired budget fails the whole re-solve.
    if (stop.ShouldStop()) {
      return Status::DeadlineExceeded("stage re-solve budget exhausted");
    }
    overlay.overrides[s] = SolveOneStage(base_raw, stages[s], wclass, stop);
  }
  return overlay;
}

StatusOr<HierarchicalResult> HierarchicalMoo::Solve(
    const Dataflow& flow, const Vector& base_raw, const StopToken& stop) const {
  Status flow_ok = flow.Validate();
  if (!flow_ok.ok()) return flow_ok;
  const ParamSpace& full = BatchParamSpace();
  Status valid = full.Validate(base_raw);
  if (!valid.ok()) return valid;

  const WorkloadClass wclass = flow.workload_class();
  const int candidates = std::max(1, config_.context_candidates);

  HierarchicalResult result;
  std::vector<HierarchicalPoint> points;
  for (int i = 0; i < candidates; ++i) {
    if (stop.ShouldStop()) {
      result.degraded = true;
      break;
    }
    // Context diagonal: resource knobs swept jointly from the cheapest to
    // the largest allocation. Deterministic by construction.
    const double u =
        candidates == 1 ? 0.5 : static_cast<double>(i) / (candidates - 1);
    Vector candidate_raw = base_raw;
    for (int knob : BatchContextKnobs()) {
      const ParamSpec& s = full.spec(knob);
      candidate_raw[knob] =
          std::min(s.hi, std::max(s.lo, std::round(s.lo + u * (s.hi - s.lo))));
    }

    // Planner's view: estimated profiles under this candidate's plan-time
    // knobs. (Boundary re-solves later correct against observed profiles.)
    const std::vector<StageProfile> stages =
        engine_->PlanStages(flow, candidate_raw, /*planner_estimates=*/true);

    StatusOr<StageConfOverlay> overlay =
        ResolveStages(candidate_raw, stages, 0, wclass, stop);
    if (!overlay.ok()) {
      result.degraded = true;
      break;
    }

    // Compose: exact (quantized) stage costs under the rounded choices.
    HierarchicalPoint point;
    point.overlay = std::move(overlay).value();
    double latency = engine_->options().job_overhead_s;
    double worst_stage_s = -1.0;
    int dominant = 0;
    for (int s = 0; s < static_cast<int>(stages.size()); ++s) {
      const Vector eff = point.overlay.Resolve(s, candidate_raw);
      const double stage_s =
          engine_->StageSeconds(stages[s], SparkConf::FromRaw(eff), wclass);
      latency += stage_s;
      if (stage_s > worst_stage_s) {
        worst_stage_s = stage_s;
        dominant = s;
      }
    }
    // Flat fallback conf: the dominant stage's knobs folded into the base.
    point.conf_raw = point.overlay.Resolve(dominant, candidate_raw);
    point.objectives = {latency,
                        SparkConf::FromRaw(candidate_raw).TotalCores()};
    points.push_back(std::move(point));
  }

  if (points.empty()) {
    return Status::DeadlineExceeded("no context candidate solved in budget");
  }
  // Keep the mutually non-dominated candidates, in sweep order.
  for (size_t i = 0; i < points.size(); ++i) {
    bool dominated = false;
    for (size_t j = 0; j < points.size(); ++j) {
      if (j != i &&
          DominatesMin(points[j].objectives, points[i].objectives)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) result.points.push_back(points[i]);
  }
  return result;
}

}  // namespace udao
