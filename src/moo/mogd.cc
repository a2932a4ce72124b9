#include "moo/mogd.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "common/matrix.h"
#include "common/metrics_registry.h"
#include "common/random.h"
#include "nn/adam.h"

namespace udao {

namespace {

constexpr double kFeasibilityTol = 1e-6;

// One registry flush per completed solve: the inner descent loops accumulate
// into the local SolvePerf and the totals land here, so instrumentation cost
// never sits inside an Adam iteration.
void FlushSolveMetrics(const SolvePerf& perf, int restarts, bool feasible) {
#if UDAO_METRICS_ENABLED
  MetricsRegistry& m = MetricsRegistry::Global();
  m.AddCounter("udao.mogd.solves");
  m.AddCounter("udao.mogd.restarts", restarts);
  m.AddCounter("udao.mogd.iterations", perf.iterations);
  m.AddCounter("udao.mogd.model_evals", perf.model_evals);
  m.AddCounter("udao.mogd.batch_calls", perf.batch_calls);
  if (!feasible) m.AddCounter("udao.mogd.infeasible_solves");
  m.Observe("udao.mogd.solve_ms", perf.solve_seconds * 1e3);
  m.Observe("udao.mogd.eval_ms", perf.eval_seconds * 1e3);
#else
  (void)perf;
  (void)restarts;
  (void)feasible;
#endif
}

void ClipToUnitBox(double* x, int dim) {
  for (int d = 0; d < dim; ++d) x[d] = std::min(1.0, std::max(0.0, x[d]));
}

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// Draws the multistart initial points: start 0 is the center of the box,
// later starts are uniform draws taken start-major, so start s consumes the
// same random numbers it would if the starts descended one at a time.
Matrix DrawStarts(int multistart, int dim, Rng* rng) {
  Matrix x(multistart, dim);
  double* row0 = x.RowPtr(0);
  for (int d = 0; d < dim; ++d) row0[d] = 0.5;
  for (int s = 1; s < multistart; ++s) {
    double* row = x.RowPtr(s);
    for (int d = 0; d < dim; ++d) row[d] = rng->Uniform();
  }
  return x;
}

// Debug-only finite sweeps over model results. A NaN objective would pass
// every feasibility comparison as "infeasible" silently (NaN compares false),
// and a NaN gradient permanently corrupts Adam's moment estimates -- both
// make the solver return plausible-looking garbage instead of crashing.
void DCheckFiniteModelOutputs(const Vector& values) {
  for (const double v : values) UDAO_DCHECK_FINITE(v);
}

void DCheckFiniteModelOutputs(const Matrix& m) {
  for (const double v : m.data()) UDAO_DCHECK_FINITE(v);
}

// Per-start incumbent. Keeping the best per start and merging in start
// order reproduces the global first-best-wins bookkeeping of descending one
// start at a time exactly (strict < keeps the earliest).
struct StartBest {
  bool found = false;
  Vector x;
  Vector objectives;
  double target_value = std::numeric_limits<double>::infinity();
};

}  // namespace

MogdSolver::MogdSolver(MogdConfig config) : config_(config) {
  UDAO_CHECK_GT(config_.multistart, 0);
  UDAO_CHECK_GT(config_.max_iters, 0);
}

std::optional<CoResult> MogdSolver::SolveCo(const MooProblem& problem,
                                            const CoProblem& co,
                                            SolvePerf* perf,
                                            const StopToken& stop) const {
  return SolveCoSeeded(problem, co, config_.seed, perf, stop);
}

std::optional<CoResult> MogdSolver::SolveCoSeeded(
    const MooProblem& problem, const CoProblem& co, uint64_t seed,
    SolvePerf* perf, const StopToken& stop) const {
  std::vector<SolvePerf> perfs;
  std::vector<std::optional<CoResult>> results =
      SolveCoFused(problem, {&co}, {seed}, {&stop}, &perfs);
  if (perf != nullptr) perf->Merge(perfs[0]);
  return std::move(results[0]);
}

std::vector<std::optional<CoResult>> MogdSolver::SolveCoFused(
    const MooProblem& problem, const std::vector<const CoProblem*>& cos,
    const std::vector<uint64_t>& seeds,
    const std::vector<const StopToken*>& stops,
    std::vector<SolvePerf>* perfs) const {
  UDAO_TRACE_SPAN("mogd.solve_co_fused");
  const int K = static_cast<int>(cos.size());
  UDAO_CHECK_EQ(static_cast<int>(seeds.size()), K);
  UDAO_CHECK_EQ(static_cast<int>(stops.size()), K);
  std::vector<std::optional<CoResult>> results(K);
  if (perfs != nullptr) perfs->resize(K);
  if (K == 0) return results;

  const auto t0 = std::chrono::steady_clock::now();
  const int k = problem.NumObjectives();
  const int dim = problem.EncodedDim();
  const int S = config_.multistart;

  // Structural validation, per problem.
  for (int p = 0; p < K; ++p) {
    const CoProblem& co = *cos[p];
    UDAO_CHECK(co.target >= 0 && co.target < k);
    UDAO_CHECK_EQ(static_cast<int>(co.lower.size()), k);
    UDAO_CHECK_EQ(static_cast<int>(co.upper.size()), k);
    for (int j = 0; j < k; ++j) UDAO_CHECK(co.lower[j] <= co.upper[j]);
  }

  // Rows [p*S, (p+1)*S) of x belong to problem p. Every problem draws its
  // starts from its own seed and keeps its own Adam moments (the same rows
  // of the shared moment block), incumbents and spans, so its trajectory is
  // byte-for-byte what a group of one (SolveCoSeeded(seeds[p])) computes --
  // batch model evaluation is row-independent, so co-residency in one fused
  // call changes nothing. Every row that steps in iteration i has stepped
  // in each earlier one (a problem stops for good), so one bias correction
  // per iteration serves all of them.
  Matrix x(K * S, dim);
  std::vector<Vector> spans(K, Vector(k));
  Adam adam(static_cast<size_t>(K) * S * dim,
            AdamConfig{.learning_rate = config_.learning_rate});
  std::vector<StartBest> best(static_cast<size_t>(K) * S);
  std::vector<SolvePerf> local(K);
  std::vector<char> active(K, 1);
  for (int p = 0; p < K; ++p) {
    const CoProblem& co = *cos[p];
    for (int j = 0; j < k; ++j) {
      spans[p][j] = std::max(1e-9, co.upper[j] - co.lower[j]);
    }
    Rng rng(seeds[p]);
    Matrix starts = DrawStarts(S, dim, &rng);
    std::copy(starts.RowPtr(0), starts.RowPtr(0) + S * dim, x.RowPtr(p * S));
  }

  // Fused evaluation over the still-participating problems (`parts`): their
  // rows are packed into xe and every objective is evaluated in ONE batched
  // model call for the whole group -- the cross-request GEMM share. f[j][r]
  // and grads[j](r, d) are indexed by packed row r = pi*S + s.
  std::vector<Vector> f(k);
  std::vector<Matrix> grads(k);
  Vector mean;
  Vector stddev;
  std::vector<int> parts;
  parts.reserve(K);
  Matrix xe;
  auto evaluate = [&]() {
    const int P = static_cast<int>(parts.size());
    // Resize reuses xe's allocation as participants drop out; every row is
    // overwritten by the packing copies below.
    xe.Resize(P * S, dim);
    for (int pi = 0; pi < P; ++pi) {
      const int p = parts[pi];
      std::copy(x.RowPtr(p * S), x.RowPtr(p * S) + S * dim, xe.RowPtr(pi * S));
    }
    const auto e0 = std::chrono::steady_clock::now();
    for (int j = 0; j < k; ++j) {
      if (config_.alpha > 0.0) {
        // Values come from the uncertainty-adjusted surface; the descent
        // direction still follows the mean's gradient (the uncertainty term
        // shifts values without steering the search), so the fused values
        // from GradientBatch are discarded.
        problem.EvaluateWithUncertaintyBatch(j, xe, &mean, &stddev);
        problem.GradientBatch(j, xe, &grads[j]);
        f[j].resize(P * S);
        for (int r = 0; r < P * S; ++r) {
          f[j][r] = mean[r] + config_.alpha * stddev[r];
        }
      } else {
        problem.GradientBatch(j, xe, &grads[j], &f[j]);
      }
      DCheckFiniteModelOutputs(f[j]);
      DCheckFiniteModelOutputs(grads[j]);
    }
    // model_evals is exact per problem; batch_calls counts each problem's
    // logical calls (the physical call is shared); the shared wall time is
    // split evenly among the participants.
    const double secs = SecondsSince(e0);
    for (int pi = 0; pi < P; ++pi) {
      SolvePerf& lp = local[parts[pi]];
      lp.model_evals += static_cast<long long>(S) * k;
      lp.batch_calls += k;
      lp.eval_seconds += secs / P;
    }
  };

  Vector fs(k);
  auto consider = [&]() {
    for (int pi = 0; pi < static_cast<int>(parts.size()); ++pi) {
      const int p = parts[pi];
      const CoProblem& co = *cos[p];
      for (int s = 0; s < S; ++s) {
        const int r = pi * S + s;
        bool feasible = true;
        for (int j = 0; j < k && feasible; ++j) {
          const double fn = (f[j][r] - co.lower[j]) / spans[p][j];
          feasible = fn >= -kFeasibilityTol && fn <= 1.0 + kFeasibilityTol;
        }
        if (!feasible) continue;
        if (!co.linear.empty()) {
          for (int j = 0; j < k; ++j) fs[j] = f[j][r];
          for (const CoProblem::LinearConstraint& lc : co.linear) {
            if (Dot(lc.normal, fs) - lc.offset > kFeasibilityTol) {
              feasible = false;
              break;
            }
          }
          if (!feasible) continue;
        }
        StartBest& b = best[p * S + s];
        if (!b.found || f[co.target][r] < b.target_value) {
          b.found = true;
          b.x.assign(xe.RowPtr(r), xe.RowPtr(r) + dim);
          b.objectives.resize(k);
          for (int j = 0; j < k; ++j) b.objectives[j] = f[j][r];
          b.target_value = f[co.target][r];
        }
      }
    }
  };

  // Merge problem p's per-start incumbents in start order (strict < keeps
  // the earliest start) and flush its metrics.
  auto finalize = [&](int p) {
    std::optional<CoResult> out;
    for (int s = 0; s < S; ++s) {
      const StartBest& b = best[p * S + s];
      if (!b.found) continue;
      if (!out.has_value() || b.target_value < out->target_value) {
        CoResult result;
        result.x = b.x;
        result.raw = problem.space().Decode(b.x);
        result.objectives = b.objectives;
        result.target_value = b.target_value;
        out = std::move(result);
      }
    }
    local[p].solve_seconds = SecondsSince(t0);
    FlushSolveMetrics(local[p], config_.multistart, out.has_value());
    if (out.has_value()) out->perf = local[p];
    if (perfs != nullptr) (*perfs)[p].Merge(local[p]);
    results[p] = std::move(out);
  };

  Matrix loss_grads(S, dim);
  std::vector<char> stopping(K, 0);
  int remaining = K;
  for (int iter = 0; iter < config_.max_iters && remaining > 0; ++iter) {
    // Per-problem anytime stop, once per lockstep iteration: iteration 0
    // always runs; a problem whose StopToken fired gets THIS iteration's
    // evaluate+consider as its trailing pass and then freezes -- no step,
    // no further participation -- while its batchmates keep descending, so
    // its result is the one it would get in a group of its own.
    parts.clear();
    for (int p = 0; p < K; ++p) {
      if (!active[p]) continue;
      stopping[p] = (iter > 0 && stops[p]->ShouldStop()) ? 1 : 0;
      parts.push_back(p);
    }
    evaluate();
    consider();
    adam.BeginStep();
    for (int pi = 0; pi < static_cast<int>(parts.size()); ++pi) {
      const int p = parts[pi];
      if (stopping[p]) {
        active[p] = 0;
        --remaining;
        finalize(p);
        continue;
      }
      const CoProblem& co = *cos[p];
      for (int s = 0; s < S; ++s) {
        const int r = pi * S + s;
        // Loss gradient per Eq. 3 for problem p, start s.
        double* loss_grad = loss_grads.RowPtr(s);
        std::fill(loss_grad, loss_grad + dim, 0.0);
        for (int j = 0; j < k; ++j) {
          const double fn = (f[j][r] - co.lower[j]) / spans[p][j];
          double coeff = 0.0;
          if (fn < 0.0 || fn > 1.0) {
            coeff = 2.0 * (fn - 0.5) / spans[p][j];
          } else if (j == co.target) {
            coeff = 2.0 * fn / spans[p][j];
          }
          if (coeff != 0.0) {
            const double* g = grads[j].RowPtr(r);
            for (int d = 0; d < dim; ++d) loss_grad[d] += coeff * g[d];
          }
        }
        for (const CoProblem::LinearConstraint& lc : co.linear) {
          for (int j = 0; j < k; ++j) fs[j] = f[j][r];
          const double g = Dot(lc.normal, fs) - lc.offset;
          if (g > 0.0) {
            for (int j = 0; j < k; ++j) {
              if (lc.normal[j] == 0.0) continue;
              const double* gj = grads[j].RowPtr(r);
              for (int d = 0; d < dim; ++d) {
                loss_grad[d] += 2.0 * g * lc.normal[j] * gj[d];
              }
            }
          }
        }
      }
      // Problem p's rows and moments are contiguous: one update for all S
      // starts, then each row is clipped.
      adam.Update(static_cast<size_t>(p) * S * dim, x.RowPtr(p * S),
                  loss_grads.RowPtr(0), S * dim);
      for (int s = 0; s < S; ++s) ClipToUnitBox(x.RowPtr(p * S + s), dim);
      local[p].iterations += S;
    }
  }

  // Trailing evaluate + consider for the problems that ran every iteration.
  parts.clear();
  for (int p = 0; p < K; ++p) {
    if (active[p]) parts.push_back(p);
  }
  if (!parts.empty()) {
    evaluate();
    consider();
    for (int p : parts) finalize(p);
  }
  return results;
}

std::vector<std::optional<CoResult>> MogdSolver::SolveBatch(
    const MooProblem& problem, const std::vector<CoProblem>& problems,
    SolvePerf* perf, const StopToken& stop) {
  UDAO_TRACE_SPAN("mogd.solve_batch");
  UDAO_METRIC_COUNTER_ADD("udao.mogd.solve_batches", 1);
  UDAO_METRIC_OBSERVE("udao.mogd.solve_batch_size",
                      static_cast<double>(problems.size()));
  std::vector<std::optional<CoResult>> results(problems.size());
  if (problems.empty()) return results;
  // Per-problem counters land in a fixed slot each, so the aggregate is
  // identical whether the batch ran inline or on the pool.
  std::vector<SolvePerf> perfs(problems.size());
  auto solve_one = [&](int i) {
    results[i] =
        SolveCoSeeded(problem, problems[i], config_.seed + 1000 * i,
                      &perfs[i], stop);
  };
  const int n = static_cast<int>(problems.size());
  if (config_.pool == nullptr) {
    for (int i = 0; i < n; ++i) solve_one(i);
  } else {
    // The calling thread descends too, so a batch of one never leaves it.
    config_.pool->ParallelFor(n, solve_one);
  }
  if (perf != nullptr) {
    for (const SolvePerf& p : perfs) perf->Merge(p);
  }
  return results;
}

CoResult MogdSolver::Minimize(const MooProblem& problem, int target,
                              SolvePerf* perf, const StopToken& stop) {
  UDAO_TRACE_SPAN("mogd.minimize");
  const auto t0 = std::chrono::steady_clock::now();
  SolvePerf local;
  const int dim = problem.EncodedDim();
  const int S = config_.multistart;
  Rng rng(config_.seed + 7 * target);
  Matrix x = DrawStarts(S, dim, &rng);

  // Each iteration considers the point *after* its Adam step, so values are
  // needed at the stepped points: one gradient batch before the step and one
  // value batch after it per iteration.
  std::vector<StartBest> best(S);
  Matrix grads;
  Vector values;
  Adam adam(static_cast<size_t>(S) * dim,
            AdamConfig{.learning_rate = config_.learning_rate});

  for (int iter = 0; iter < config_.max_iters; ++iter) {
    // Anytime stop. Iteration 0 always completes (gradient step + value
    // batch + consider), so at least one per-start incumbent exists and the
    // finiteness UDAO_CHECK below holds under any budget.
    if (iter > 0 && stop.ShouldStop()) break;
    const auto g0 = std::chrono::steady_clock::now();
    problem.GradientBatch(target, x, &grads);
    DCheckFiniteModelOutputs(grads);
    local.model_evals += S;
    local.batch_calls += 1;
    local.eval_seconds += SecondsSince(g0);
    // Every start steps every iteration: one update over the whole
    // [S, dim] block, then each row is clipped.
    adam.BeginStep();
    adam.Update(0, x.RowPtr(0), grads.RowPtr(0), S * dim);
    for (int s = 0; s < S; ++s) ClipToUnitBox(x.RowPtr(s), dim);
    local.iterations += S;
    const auto v0 = std::chrono::steady_clock::now();
    problem.EvaluateOneBatch(target, x, &values);
    DCheckFiniteModelOutputs(values);
    local.model_evals += S;
    local.batch_calls += 1;
    local.eval_seconds += SecondsSince(v0);
    for (int s = 0; s < S; ++s) {
      StartBest& b = best[s];
      if (values[s] < b.target_value) {
        b.found = true;
        b.x.assign(x.RowPtr(s), x.RowPtr(s) + dim);
        b.target_value = values[s];
      }
    }
  }

  CoResult out;
  out.target_value = std::numeric_limits<double>::infinity();
  for (int s = 0; s < S; ++s) {
    const StartBest& b = best[s];
    if (b.found && b.target_value < out.target_value) {
      out.x = b.x;
      out.target_value = b.target_value;
    }
  }
  UDAO_CHECK(std::isfinite(out.target_value));
  out.raw = problem.space().Decode(out.x);
  out.objectives = problem.Evaluate(out.x);
  local.model_evals += problem.NumObjectives();
  local.batch_calls += problem.NumObjectives();
  local.solve_seconds = SecondsSince(t0);
  FlushSolveMetrics(local, config_.multistart, /*feasible=*/true);
  out.perf = local;
  if (perf != nullptr) perf->Merge(local);
  return out;
}

}  // namespace udao
