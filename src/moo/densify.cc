#include "moo/densify.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/matrix.h"
#include "common/metrics_registry.h"
#include "common/random.h"

namespace udao {

namespace {

// ProgressiveFrontier::AddPoint's near-duplicate predicate, parameterized on
// the tolerance: true when the two objective vectors agree to within `tol`
// relative in every coordinate.
bool NearDuplicate(const Vector& a, const Vector& b, double tol) {
  for (size_t j = 0; j < a.size(); ++j) {
    const double scale = std::max({1.0, std::abs(a[j]), std::abs(b[j])});
    if (std::abs(a[j] - b[j]) > tol * scale) return false;
  }
  return true;
}

}  // namespace

std::vector<MooPoint> DensifyFrontier(const MooProblem& problem,
                                      const std::vector<MooPoint>& frontier,
                                      const DensifyConfig& config,
                                      const StopToken& stop,
                                      DensifyStats* stats) {
  DensifyStats local;
  if (stats == nullptr) stats = &local;
  *stats = DensifyStats{};
  if (frontier.empty() || config.samples_per_point <= 0 ||
      config.max_candidates <= 0) {
    return frontier;
  }
  const int k = problem.NumObjectives();
  const int dim = problem.EncodedDim();
  const int n = static_cast<int>(frontier.size());
  // Equal per-incumbent budget under the global cap (deterministic: depends
  // only on sizes, never on timing).
  const int per_point =
      std::min(config.samples_per_point, std::max(1, config.max_candidates / n));
  const int total = n * per_point;

  if (stop.ShouldStop()) {
    stats->stopped = true;
    return frontier;
  }

  // Sample all candidates up front. Incumbent i's jitter stream is seeded
  // seed + 1000*i (the MogdSolver slot-seed convention), so the candidate set
  // is a pure function of (frontier, config) -- insensitive to thread counts
  // and to how many densifications ran before this one.
  Matrix x(total, dim);
  for (int i = 0; i < n; ++i) {
    UDAO_CHECK_EQ(static_cast<int>(frontier[i].conf_encoded.size()), dim);
    Rng rng(config.seed + 1000 * static_cast<uint64_t>(i));
    for (int s = 0; s < per_point; ++s) {
      double* row = x.RowPtr(i * per_point + s);
      for (int d = 0; d < dim; ++d) {
        const double v =
            frontier[i].conf_encoded[d] + rng.Gaussian(0.0, config.radius);
        row[d] = std::min(1.0, std::max(0.0, v));
      }
    }
  }

  // Batch-evaluate every objective over the candidate block, kEvalRows rows
  // per PredictBatch. Rows are independent, so the values equal one
  // whole-block call's, while the MLP activation temporaries -- bump-allocated
  // in the calling thread's kernel arena, which keeps its peak for the
  // thread's life -- stay bounded by kEvalRows rather than max_candidates.
  constexpr int kEvalRows = 64;
  std::vector<Vector> values(k, Vector(total));
  Matrix block;
  Vector block_values;
  for (int j = 0; j < k; ++j) {
    if (stop.ShouldStop()) {
      stats->stopped = true;
      return frontier;
    }
    for (int r0 = 0; r0 < total; r0 += kEvalRows) {
      const int rows = std::min(kEvalRows, total - r0);
      block.Resize(rows, dim);
      std::copy(x.RowPtr(r0), x.RowPtr(r0) + static_cast<size_t>(rows) * dim,
                block.RowPtr(0));
      problem.EvaluateOneBatch(j, block, &block_values);
      std::copy(block_values.begin(), block_values.end(),
                values[j].begin() + r0);
    }
  }
  stats->candidates = total;

  // Merge: feasibility, then near-dup, then dominance -- candidates in
  // deterministic sample order against the growing resident set. An accepted
  // candidate evicts the residents it dominates (stable erase), so the
  // result stays mutually non-dominated and every input point is weakly
  // dominated by something that survived.
  std::vector<MooPoint> merged = frontier;
  for (int c = 0; c < total; ++c) {
    Vector obj(k);
    for (int j = 0; j < k; ++j) obj[j] = values[j][c];
    // User value constraints (Problem III.1), minimization orientation, with
    // the same slack PF::Initialize grants its reference points.
    bool feasible = true;
    for (int j = 0; j < k && feasible; ++j) {
      feasible = obj[j] >= problem.UserLower(j) - 1e-9 &&
                 obj[j] <= problem.UserUpper(j) + 1e-9;
    }
    if (!feasible) continue;
    bool drop = false;
    for (const MooPoint& p : merged) {
      if (NearDuplicate(p.objectives, obj, config.dedup_tolerance) ||
          Dominates(p.objectives, obj)) {
        drop = true;
        break;
      }
    }
    if (drop) continue;
    size_t w = 0;
    for (size_t r = 0; r < merged.size(); ++r) {
      if (Dominates(obj, merged[r].objectives)) {
        ++stats->evicted;
        continue;
      }
      if (w != r) merged[w] = std::move(merged[r]);
      ++w;
    }
    merged.resize(w);
    merged.push_back(MooPoint{std::move(obj), x.Row(c)});
    ++stats->added;
  }
  UDAO_METRIC_COUNTER_ADD("udao.densify.candidates", total);
  UDAO_METRIC_COUNTER_ADD("udao.densify.points_added", stats->added);
  return merged;
}

}  // namespace udao
