#include "tuning/udao.h"

#include <chrono>
#include <cstdio>

#include "common/byte_key.h"
#include "common/check.h"
#include "model/analytic_models.h"
#include "workload/trace_gen.h"

namespace udao {

void SolverOptions::AppendFingerprint(std::string* out) const {
  AppendPod(out, pf.parallel);
  AppendPod(out, pf.grid_per_dim);
  AppendPod(out, pf.use_exhaustive);
  AppendPod(out, pf.exhaustive_budget);
  AppendPod(out, pf.max_probes);
  AppendPod(out, pf.fifo_queue);
  AppendPod(out, pf.mogd.multistart);
  AppendPod(out, pf.mogd.max_iters);
  AppendPod(out, pf.mogd.learning_rate);
  AppendPod(out, pf.mogd.alpha);
  AppendPod(out, pf.mogd.seed);
  AppendPod(out, frontier_points);
  AppendPod(out, workload_aware);
  AppendPod(out, uncertainty_alpha);
}

std::string SolverOptions::Fingerprint() const {
  std::string out;
  AppendFingerprint(&out);
  return out;
}

std::string SolverOptions::FingerprintHex() const { return ToHex(Fingerprint()); }

Udao::Udao(ModelServer* server, SolverOptions options)
    : server_(server), options_(options) {
  UDAO_CHECK(server_ != nullptr);
  if (options_.pf.mogd.pool == nullptr && options_.solver_threads > 1) {
    pool_ = std::make_unique<ThreadPool>(options_.solver_threads);
    options_.pf.mogd.pool = pool_.get();
  }
}

Status Udao::Validate(const UdaoRequest& request) {
  if (request.space == nullptr) {
    return Status::InvalidArgument("request needs a parameter space");
  }
  if (request.objectives.empty()) {
    return Status::InvalidArgument("request needs at least one objective");
  }
  if (!request.preference_weights.empty() &&
      request.preference_weights.size() != request.objectives.size()) {
    return Status::InvalidArgument("one preference weight per objective");
  }
  return Status::Ok();
}

StatusOr<std::vector<ObjectiveSpec>> Udao::ResolveObjectives(
    const UdaoRequest& request) const {
  Status valid = Validate(request);
  if (!valid.ok()) return valid;
  // Retrieve the latest task-specific models (Fig. 1(a), step 1).
  std::vector<ObjectiveSpec> objectives;
  for (const ObjectiveSpec& spec : request.objectives) {
    ObjectiveSpec obj = spec;
    if (obj.model == nullptr) {
      if (obj.name == objectives::kCostCores &&
          request.space == &BatchParamSpace()) {
        obj.model = MakeCostCoresModel();
      } else if (obj.name == objectives::kCostCores &&
                 request.space == &StreamParamSpace()) {
        obj.model = MakeStreamCostCoresModel();
      } else {
        StatusOr<std::shared_ptr<const ObjectiveModel>> model =
            server_->GetModel(request.workload_id, obj.name);
        if (!model.ok()) return model.status();
        // Learned models of physical quantities get a non-negativity floor
        // so the optimizer cannot chase extrapolated negative predictions.
        obj.model = std::make_shared<NonNegativeModel>(*model);
      }
    }
    objectives.push_back(std::move(obj));
  }
  return objectives;
}

std::vector<MooPoint> Udao::ConservativeRank(
    const MooProblem& problem, const std::vector<MooPoint>& points) const {
  std::vector<MooPoint> ranked = points;
  if (options_.uncertainty_alpha <= 0.0 || ranked.empty()) return ranked;
  // Batched re-rank: one PredictWithUncertaintyBatch per objective instead
  // of a scalar MC-dropout per point, so ranking a frontier -- a densified
  // one in particular -- runs one fused forward stream per stochastic
  // sample. Bitwise-identical to a per-point loop (the batch surface keeps
  // the per-point seed contract).
  const int k = problem.NumObjectives();
  const int dim = static_cast<int>(ranked.front().conf_encoded.size());
  Matrix x(static_cast<int>(ranked.size()), dim);
  for (size_t i = 0; i < ranked.size(); ++i) {
    for (int d = 0; d < dim; ++d) {
      x(static_cast<int>(i), d) = ranked[i].conf_encoded[d];
    }
  }
  Vector mean;
  Vector stddev;
  for (int j = 0; j < k; ++j) {
    problem.EvaluateWithUncertaintyBatch(j, x, &mean, &stddev);
    for (size_t i = 0; i < ranked.size(); ++i) {
      ranked[i].objectives[j] =
          mean[i] + options_.uncertainty_alpha * stddev[i];
    }
  }
  return ranked;
}

std::optional<double> Udao::DefaultLatency(const UdaoRequest& request,
                                           const MooProblem& problem) const {
  if (!options_.workload_aware || problem.NumObjectives() != 2 ||
      request.objectives[0].name != objectives::kLatency) {
    return std::nullopt;
  }
  const Vector default_encoded =
      request.space->Encode(request.space->Defaults());
  return problem.ToNatural(0, problem.EvaluateOne(0, default_encoded));
}

StatusOr<UdaoRecommendation> Udao::Recommend(
    const UdaoRequest& request, const MooProblem& problem,
    const PfResult& frontier, const std::vector<MooPoint>* ranked_in,
    std::optional<double> default_latency) const {
  Status valid = Validate(request);
  if (!valid.ok()) return valid;
  if (frontier.frontier.empty()) {
    return Status::FailedPrecondition(
        "no Pareto point satisfies the requested constraints");
  }
  const auto t0 = std::chrono::steady_clock::now();

  // Recommend via (workload-aware) Weighted Utopia Nearest (step 3).
  const int k = problem.NumObjectives();
  Vector external = request.preference_weights;
  if (external.empty()) external.assign(k, 1.0 / k);
  Vector weights = external;
  if (!default_latency.has_value()) {
    default_latency = DefaultLatency(request, problem);
  }
  if (default_latency.has_value()) {
    // Expert internal weights keyed to the default-configuration latency.
    weights = CombineWeights(WorkloadAwareInternalWeights(*default_latency),
                             external);
  } else {
    double sum = 0.0;
    for (double w : weights) sum += w;
    if (sum > 0) {
      for (double& w : weights) w /= sum;
    }
  }

  // Conservative re-ranking under model uncertainty: evaluate each frontier
  // point at F~ = E[F] + alpha * std[F] (minimization orientation) before
  // choosing, which demotes points whose predicted appeal sits on sparse
  // training coverage. A caller-supplied ranking is read in place.
  std::vector<MooPoint> own_ranked;
  if (ranked_in == nullptr) {
    own_ranked = ConservativeRank(problem, frontier.frontier);
  }
  const std::vector<MooPoint>& ranked =
      ranked_in != nullptr ? *ranked_in : own_ranked;
  UDAO_CHECK_EQ(ranked.size(), frontier.frontier.size());
  std::optional<MooPoint> choice;
  switch (request.options.policy) {
    case RecommendPolicy::kWun:
      break;  // the fallback below is the WUN pick
    case RecommendPolicy::kKnee:
      if (k == 2) choice = KneePoint(ranked, request.options.slope_side);
      break;
    case RecommendPolicy::kSlope:
      if (k == 2) {
        choice = SlopeMaximization(ranked, request.options.slope_side);
      }
      break;
  }
  if (!choice.has_value()) {
    choice = WeightedUtopiaNearest(ranked, frontier.utopia, frontier.nadir,
                                   weights);
  }
  UDAO_CHECK(choice.has_value());
  // Report the conservative estimates the system acted on ("F~ offers a more
  // conservative estimate of F ... given the model uncertainty", IV-B.3);
  // with alpha = 0 these are the plain model predictions.
  const Vector& chosen_objectives = choice->objectives;

  UdaoRecommendation rec;
  rec.conf_encoded = choice->conf_encoded;
  rec.conf_raw = request.space->Decode(choice->conf_encoded);
  rec.predicted_objectives.resize(k);
  for (int j = 0; j < k; ++j) {
    rec.predicted_objectives[j] = problem.ToNatural(j, chosen_objectives[j]);
  }
  rec.frontier = frontier;
  rec.weights_used = weights;
  rec.knob_names.reserve(request.space->NumParams());
  for (const ParamSpec& spec : request.space->specs()) {
    rec.knob_names.push_back(spec.name);
  }
  rec.degraded = frontier.degraded;
  rec.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return rec;
}

namespace {

void JsonDouble(std::string* out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out->append(buf);
}

void JsonString(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    if (c == '"' || c == '\\') out->push_back('\\');
    out->push_back(c);
  }
  out->push_back('"');
}

void JsonVector(std::string* out, const Vector& v) {
  out->push_back('[');
  for (size_t i = 0; i < v.size(); ++i) {
    if (i) out->push_back(',');
    JsonDouble(out, v[i]);
  }
  out->push_back(']');
}

}  // namespace

std::string RecommendationJson(const UdaoRecommendation& rec) {
  std::string out = "{";
  // Named knobs when the recommendation is self-describing (names zip with
  // values); the raw vector is always present as the fallback.
  if (rec.knob_names.size() == rec.conf_raw.size()) {
    out += "\"conf\":{";
    for (size_t i = 0; i < rec.knob_names.size(); ++i) {
      if (i) out.push_back(',');
      JsonString(&out, rec.knob_names[i]);
      out.push_back(':');
      JsonDouble(&out, rec.conf_raw[i]);
    }
    out += "},";
  }
  out += "\"conf_raw\":";
  JsonVector(&out, rec.conf_raw);
  out += ",\"predicted_objectives\":";
  JsonVector(&out, rec.predicted_objectives);
  out += ",\"weights_used\":";
  JsonVector(&out, rec.weights_used);
  out += ",\"frontier_points\":";
  JsonDouble(&out, static_cast<double>(rec.frontier.frontier.size()));
  out += ",\"degraded\":";
  out += rec.degraded ? "true" : "false";
  out += ",\"seconds\":";
  JsonDouble(&out, rec.seconds);
  out += ",\"queue_wait_ms\":";
  JsonDouble(&out, rec.queue_wait_ms);
  // Stage-level refinement. std::map iteration makes both levels ordered,
  // hence byte-stable across runs.
  out += ",\"stage_overlay\":{";
  bool first_stage = true;
  for (const auto& [stage, knobs] : rec.stage_overlay.overrides) {
    if (!first_stage) out.push_back(',');
    first_stage = false;
    JsonString(&out, std::to_string(stage));
    out += ":{";
    bool first_knob = true;
    for (const auto& [knob, value] : knobs) {
      if (!first_knob) out.push_back(',');
      first_knob = false;
      if (static_cast<size_t>(knob) < rec.knob_names.size()) {
        JsonString(&out, rec.knob_names[knob]);
      } else {
        JsonString(&out, std::to_string(knob));
      }
      out.push_back(':');
      JsonDouble(&out, value);
    }
    out += "}";
  }
  out += "},\"stage_confs\":[";
  for (size_t s = 0; s < rec.stage_confs.size(); ++s) {
    if (s) out.push_back(',');
    JsonVector(&out, rec.stage_confs[s]);
  }
  out += "]}";
  return out;
}

StatusOr<UdaoRecommendation> Udao::Optimize(const UdaoRequest& request) {
  const auto t0 = std::chrono::steady_clock::now();
  const StopToken stop = request.Stop();
  if (request.options.cancel.IsCancelled()) {
    return Status::DeadlineExceeded("request cancelled before solving");
  }
  StatusOr<std::vector<ObjectiveSpec>> objectives = ResolveObjectives(request);
  if (!objectives.ok()) return objectives.status();
  MooProblem problem(request.space, std::move(*objectives));

  // Compute the Pareto frontier (step 2). With a stop token armed this is
  // anytime: expiry mid-run yields the best-so-far frontier, degraded.
  ProgressiveFrontier pf(&problem, options_.pf);
  const PfResult& frontier = pf.Run(options_.frontier_points, stop);
  if (frontier.degraded && frontier.frontier.empty()) {
    return Status::DeadlineExceeded(
        "budget expired before any Pareto point was found");
  }

  StatusOr<UdaoRecommendation> rec = Recommend(request, problem, frontier);
  if (!rec.ok()) return rec.status();
  rec->seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return rec;
}

}  // namespace udao
