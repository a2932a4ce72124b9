#ifndef UDAO_TESTS_TEST_PROBLEMS_H_
#define UDAO_TESTS_TEST_PROBLEMS_H_

#include <cmath>
#include <memory>

#include "model/objective_model.h"
#include "moo/problem.h"
#include "spark/conf.h"

namespace udao {
namespace testing_problems {

/// A two-continuous-knob parameter space over [0,1]^2 (EncodedDim == 2).
inline const ParamSpace& UnitSpace2() {
  static const ParamSpace& space = *new ParamSpace({
      {"u0", ParamType::kContinuous, 0.0, 1.0, {}, 0.5},
      {"u1", ParamType::kContinuous, 0.0, 1.0, {}, 0.5},
  });
  return space;
}

/// Convex bi-objective problem with known frontier:
///   F1 = x0 + x1,  F2 = (1 - x0)^2 + x1.
/// Pareto-optimal iff x1 = 0; the frontier is F2 = (1 - F1)^2, F1 in [0,1].
inline MooProblem ConvexProblem() {
  auto f1 = std::make_shared<CallableModel>(
      "f1", 2, [](const Vector& x) { return x[0] + x[1]; });
  auto f2 = std::make_shared<CallableModel>("f2", 2, [](const Vector& x) {
    return (1.0 - x[0]) * (1.0 - x[0]) + x[1];
  });
  return MooProblem(&UnitSpace2(),
                    {ObjectiveSpec{"f1", f1}, ObjectiveSpec{"f2", f2}});
}

/// ZDT2-style problem whose frontier (F2 = 1 - F1^2) is non-convex, the
/// regime where Weighted Sum only reaches the endpoints.
inline MooProblem ConcaveProblem() {
  auto f1 = std::make_shared<CallableModel>(
      "f1", 2, [](const Vector& x) { return x[0]; });
  auto f2 = std::make_shared<CallableModel>("f2", 2, [](const Vector& x) {
    const double g = 1.0 + 9.0 * x[1];
    return g * (1.0 - (x[0] / g) * (x[0] / g));
  });
  return MooProblem(&UnitSpace2(),
                    {ObjectiveSpec{"f1", f1}, ObjectiveSpec{"f2", f2}});
}

/// Three-objective problem over the same space: F3 trades against both.
inline MooProblem Tri() {
  auto f1 = std::make_shared<CallableModel>(
      "f1", 2, [](const Vector& x) { return x[0]; });
  auto f2 = std::make_shared<CallableModel>(
      "f2", 2, [](const Vector& x) { return x[1]; });
  auto f3 = std::make_shared<CallableModel>("f3", 2, [](const Vector& x) {
    return (1 - x[0]) * (1 - x[0]) + (1 - x[1]) * (1 - x[1]);
  });
  return MooProblem(&UnitSpace2(), {ObjectiveSpec{"f1", f1},
                                    ObjectiveSpec{"f2", f2},
                                    ObjectiveSpec{"f3", f3}});
}

}  // namespace testing_problems
}  // namespace udao

#endif  // UDAO_TESTS_TEST_PROBLEMS_H_
