#include "moo/exhaustive.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "common/random.h"

namespace udao {

namespace {

// The sweep is evaluated in fixed-size batches through the models' batched
// surface, so a DNN objective costs one fused GEMM per chunk instead of a
// matrix-vector product per candidate. A row's prediction does not depend
// on the rows batched with it (the contract batch_eval_test pins for every
// model class), so the chunked sweep selects exactly the candidates a
// per-point loop would. The chunk bounds peak memory and keeps activations
// cache-resident.
constexpr int kChunk = 1024;

}  // namespace

void ExhaustiveSolver::SweepBatched(
    const MooProblem& problem,
    const std::function<void(const Matrix& xb, const std::vector<Vector>& f,
                             int rows)>& visit) const {
  // Enumerate in raw-parameter space via a Halton sweep, then encode: the
  // sweep thereby respects integrality/categoricality of every knob. The
  // candidates stream straight into the chunk matrix through the
  // allocation-free HaltonPoint / FromUnitTo / EncodeTo forms -- at MINLP
  // budgets (hundreds of thousands of points) per-point Vector returns would
  // dominate the sweep.
  const ParamSpace& space = problem.space();
  const int k = problem.NumObjectives();
  const int np = space.NumParams();
  const int dim = space.EncodedDim();
  Matrix xb;
  std::vector<Vector> f(k);
  Vector unit(np);
  Vector raw(np);
  for (int start = 0; start < budget_; start += kChunk) {
    const int rows = std::min(kChunk, budget_ - start);
    xb.Resize(rows, dim);
    for (int r = 0; r < rows; ++r) {
      HaltonPoint(start + r, np, unit.data());
      space.FromUnitTo(unit.data(), raw.data());
      space.EncodeTo(raw.data(), xb.RowPtr(r));
    }
    for (int j = 0; j < k; ++j) problem.EvaluateOneBatch(j, xb, &f[j]);
    visit(xb, f, rows);
  }
}

std::vector<MooPoint> ExhaustiveSolver::Frontier(
    const MooProblem& problem) const {
  const int k = problem.NumObjectives();
  std::vector<MooPoint> points;
  points.reserve(budget_);
  SweepBatched(problem, [&](const Matrix& xb, const std::vector<Vector>& f,
                            int rows) {
    for (int r = 0; r < rows; ++r) {
      Vector fr(k);
      for (int j = 0; j < k; ++j) fr[j] = f[j][r];
      points.push_back(MooPoint{
          std::move(fr), Vector(xb.RowPtr(r), xb.RowPtr(r) + xb.cols())});
    }
  });
  return ParetoFilter(std::move(points));
}

std::optional<CoResult> ExhaustiveSolver::SolveCo(const MooProblem& problem,
                                                  const CoProblem& co) const {
  const int k = problem.NumObjectives();
  UDAO_CHECK_EQ(static_cast<int>(co.lower.size()), k);
  UDAO_CHECK_EQ(static_cast<int>(co.upper.size()), k);
  std::optional<CoResult> best;
  Vector fr(k);
  SweepBatched(problem, [&](const Matrix& xb, const std::vector<Vector>& f,
                            int rows) {
    for (int r = 0; r < rows; ++r) {
      for (int j = 0; j < k; ++j) fr[j] = f[j][r];
      bool feasible = true;
      for (int j = 0; j < k && feasible; ++j) {
        feasible = fr[j] >= co.lower[j] && fr[j] <= co.upper[j];
      }
      for (const CoProblem::LinearConstraint& lc : co.linear) {
        if (!feasible) break;
        feasible = Dot(lc.normal, fr) <= lc.offset;
      }
      if (!feasible) continue;
      if (!best.has_value() || fr[co.target] < best->target_value) {
        const Vector x(xb.RowPtr(r), xb.RowPtr(r) + xb.cols());
        best = CoResult{x, problem.space().Decode(x), fr, fr[co.target]};
      }
    }
  });
  return best;
}

CoResult ExhaustiveSolver::Minimize(const MooProblem& problem,
                                    int target) const {
  const int k = problem.NumObjectives();
  CoResult best;
  best.target_value = std::numeric_limits<double>::infinity();
  Vector fr(k);
  SweepBatched(problem, [&](const Matrix& xb, const std::vector<Vector>& f,
                            int rows) {
    for (int r = 0; r < rows; ++r) {
      if (f[target][r] >= best.target_value) continue;
      for (int j = 0; j < k; ++j) fr[j] = f[j][r];
      const Vector x(xb.RowPtr(r), xb.RowPtr(r) + xb.cols());
      best = CoResult{x, problem.space().Decode(x), fr, fr[target]};
    }
  });
  UDAO_CHECK(std::isfinite(best.target_value));
  return best;
}

}  // namespace udao
