#ifndef UDAO_MOO_PROBLEM_H_
#define UDAO_MOO_PROBLEM_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "model/objective_model.h"
#include "spark/conf.h"

namespace udao {

/// One objective, shared by every layer of the stack (the tuning-facing
/// `UdaoRequest` and the solver-facing `MooProblem` use this same struct).
///
/// Conventions:
///  - Direction: `minimize` describes the *natural* orientation of the
///    objective ("latency: minimize", "throughput: maximize"). The solver
///    layer negates maximization objectives internally so the whole problem
///    is a minimization (Problem III.1); values reported back to callers are
///    always in the natural orientation.
///  - Bounds: `lower`/`upper` are the optional user value constraints
///    F_i in [lower, upper], stated in the natural (un-negated) orientation.
///    ±kInf means unbounded on that side.
///  - Model resolution: the tuning layer accepts a null `model` and resolves
///    it by `name` against its trained-model registry (or trains one from
///    traces). By the time a `MooProblem` is constructed the model must be
///    non-null; MooProblem checks this.
struct ObjectiveSpec {
  std::string name;
  std::shared_ptr<const ObjectiveModel> model;
  bool minimize = true;
  double lower = -kInf;
  double upper = kInf;

  static constexpr double kInf = 1e300;
};

/// The multi-objective optimization problem (Problem III.1): k objective
/// models over one parameter space. All evaluation happens in the encoded
/// [0,1]^D space; callers convert to raw knob values via space().Decode().
class MooProblem {
 public:
  MooProblem(const ParamSpace* space, std::vector<ObjectiveSpec> objectives);

  int NumObjectives() const { return static_cast<int>(objectives_.size()); }
  int EncodedDim() const { return space_->EncodedDim(); }
  const ParamSpace& space() const { return *space_; }
  const ObjectiveSpec& objective(int i) const { return objectives_[i]; }

  /// Evaluates all objectives at encoded point x, in minimization
  /// orientation (maximization objectives come back negated).
  Vector Evaluate(const Vector& x) const;

  /// Evaluates one objective (minimization orientation).
  double EvaluateOne(int i, const Vector& x) const;

  /// Gradient of objective i (minimization orientation).
  Vector Gradient(int i, const Vector& x) const;

  /// Mean/stddev of objective i (minimization orientation: mean negated for
  /// maximization objectives, stddev unchanged).
  void EvaluateWithUncertainty(int i, const Vector& x, double* mean,
                               double* stddev) const;

  /// Batched forms over rows of `x`, in minimization orientation. These
  /// forward to the model's batch surface, so DNN objectives collapse to one
  /// GEMM per call; MOGD's lockstep multistart loop and PF-AP's grid cells
  /// enter evaluation through here.
  void EvaluateOneBatch(int i, const Matrix& x, Vector* out) const;
  /// Gradients of objective i for every row; when `values` is non-null it
  /// receives the objective values from the same forward pass (fused
  /// value+gradient -- MOGD needs both each Adam iteration).
  void GradientBatch(int i, const Matrix& x, Matrix* grads,
                     Vector* values = nullptr) const;
  void EvaluateWithUncertaintyBatch(int i, const Matrix& x, Vector* mean,
                                    Vector* stddev) const;

  /// User value constraints in minimization orientation: objective i must lie
  /// in [lower(i), upper(i)] (±ObjectiveSpec::kInf when unbounded).
  double UserLower(int i) const;
  double UserUpper(int i) const;

  /// Converts a value of objective i from minimization orientation back to
  /// its natural sign (identity for minimized objectives).
  double ToNatural(int i, double v) const {
    return objectives_[i].minimize ? v : -v;
  }

 private:
  const ParamSpace* space_;
  std::vector<ObjectiveSpec> objectives_;
};

}  // namespace udao

#endif  // UDAO_MOO_PROBLEM_H_
