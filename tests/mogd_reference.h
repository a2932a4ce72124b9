#ifndef UDAO_TESTS_MOGD_REFERENCE_H_
#define UDAO_TESTS_MOGD_REFERENCE_H_

// One-start-at-a-time MOGD (Section IV-B): each start runs all of its Adam
// iterations before the next start draws its initial point, and the best
// feasible point seen on any trajectory wins (the earliest on ties). This is
// the descent as the paper states it, kept only as the reference the
// lockstep MogdSolver must reproduce bit for bit; it has no deadline, perf
// counter or metrics code.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "common/matrix.h"
#include "common/random.h"
#include "moo/mogd.h"
#include "moo/problem.h"
#include "nn/adam.h"

namespace udao {
namespace testing_reference {

/// Start 0 is the center of the box; later starts are uniform draws.
inline Vector ReferenceStart(int start, int dim, Rng* rng) {
  Vector x(dim, 0.5);
  if (start > 0) {
    for (double& v : x) v = rng->Uniform();
  }
  return x;
}

inline void ReferenceClip(Vector* x) {
  for (double& v : *x) v = std::min(1.0, std::max(0.0, v));
}

/// What MogdSolver::SolveCoSeeded(problem, co, seed, ...) returns when its
/// stop token never fires.
inline std::optional<CoResult> ReferenceSolveCo(const MooProblem& problem,
                                                const CoProblem& co,
                                                const MogdConfig& config,
                                                uint64_t seed) {
  constexpr double kFeasibilityTol = 1e-6;
  const int k = problem.NumObjectives();
  const int dim = problem.EncodedDim();
  Vector spans(k);
  for (int j = 0; j < k; ++j) {
    spans[j] = std::max(1e-9, co.upper[j] - co.lower[j]);
  }

  // Objective values (uncertainty-adjusted when alpha > 0) and the mean's
  // gradients at x.
  auto evaluate = [&](const Vector& x, Vector* f,
                      std::vector<Vector>* grads) {
    f->resize(k);
    grads->resize(k);
    for (int j = 0; j < k; ++j) {
      if (config.alpha > 0.0) {
        double mean = 0.0;
        double stddev = 0.0;
        problem.EvaluateWithUncertainty(j, x, &mean, &stddev);
        (*f)[j] = mean + config.alpha * stddev;
      } else {
        (*f)[j] = problem.EvaluateOne(j, x);
      }
      (*grads)[j] = problem.Gradient(j, x);
    }
  };

  std::optional<CoResult> best;
  auto consider = [&](const Vector& x, const Vector& f) {
    for (int j = 0; j < k; ++j) {
      const double fn = (f[j] - co.lower[j]) / spans[j];
      if (fn < -kFeasibilityTol || fn > 1.0 + kFeasibilityTol) return;
    }
    for (const CoProblem::LinearConstraint& lc : co.linear) {
      if (Dot(lc.normal, f) - lc.offset > kFeasibilityTol) return;
    }
    if (!best.has_value() || f[co.target] < best->target_value) {
      CoResult result;
      result.x = x;
      result.raw = problem.space().Decode(x);
      result.objectives = f;
      result.target_value = f[co.target];
      best = std::move(result);
    }
  };

  Rng rng(seed);
  for (int start = 0; start < config.multistart; ++start) {
    Vector x = ReferenceStart(start, dim, &rng);
    Adam adam(dim, AdamConfig{.learning_rate = config.learning_rate});
    Vector f;
    std::vector<Vector> grads;
    for (int iter = 0; iter < config.max_iters; ++iter) {
      evaluate(x, &f, &grads);
      consider(x, f);
      // Loss gradient per Eq. 3.
      Vector loss_grad(dim, 0.0);
      for (int j = 0; j < k; ++j) {
        const double fn = (f[j] - co.lower[j]) / spans[j];
        double coeff = 0.0;
        if (fn < 0.0 || fn > 1.0) {
          coeff = 2.0 * (fn - 0.5) / spans[j];
        } else if (j == co.target) {
          coeff = 2.0 * fn / spans[j];
        }
        if (coeff != 0.0) {
          for (int d = 0; d < dim; ++d) loss_grad[d] += coeff * grads[j][d];
        }
      }
      for (const CoProblem::LinearConstraint& lc : co.linear) {
        const double g = Dot(lc.normal, f) - lc.offset;
        if (g > 0.0) {
          for (int j = 0; j < k; ++j) {
            if (lc.normal[j] == 0.0) continue;
            for (int d = 0; d < dim; ++d) {
              loss_grad[d] += 2.0 * g * lc.normal[j] * grads[j][d];
            }
          }
        }
      }
      adam.Step(&x, loss_grad);
      ReferenceClip(&x);
    }
    evaluate(x, &f, &grads);
    consider(x, f);
  }
  return best;
}

/// What MogdSolver::Minimize(problem, target) returns when its stop token
/// never fires: every start considers the point after each Adam step.
inline CoResult ReferenceMinimize(const MooProblem& problem, int target,
                                  const MogdConfig& config) {
  const int dim = problem.EncodedDim();
  Rng rng(config.seed + 7 * target);
  CoResult best;
  best.target_value = std::numeric_limits<double>::infinity();
  for (int start = 0; start < config.multistart; ++start) {
    Vector x = ReferenceStart(start, dim, &rng);
    Adam adam(dim, AdamConfig{.learning_rate = config.learning_rate});
    for (int iter = 0; iter < config.max_iters; ++iter) {
      adam.Step(&x, problem.Gradient(target, x));
      ReferenceClip(&x);
      const double v = problem.EvaluateOne(target, x);
      if (v < best.target_value) {
        best.x = x;
        best.target_value = v;
      }
    }
  }
  best.raw = problem.space().Decode(best.x);
  best.objectives = problem.Evaluate(best.x);
  return best;
}

}  // namespace testing_reference
}  // namespace udao

#endif  // UDAO_TESTS_MOGD_REFERENCE_H_
