#include "moo/progressive_frontier.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/check.h"
#include "common/fault_injector.h"
#include "common/metrics_registry.h"

namespace udao {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

ProgressiveFrontier::ProgressiveFrontier(const MooProblem* problem,
                                         PfConfig config)
    : problem_(problem), config_(config), mogd_(config.mogd),
      solver_(config.co_solver != nullptr ? config.co_solver : &mogd_),
      exhaustive_(config.exhaustive_budget) {
  UDAO_CHECK(problem_ != nullptr);
  UDAO_CHECK_GE(config_.grid_per_dim, 2);
}

std::optional<CoResult> ProgressiveFrontier::Solve(const CoProblem& co,
                                                   const StopToken& stop) {
  // The exhaustive reference solver ignores the token: it exists for small
  // deterministic baselines, not the serving path.
  if (config_.use_exhaustive) return exhaustive_.SolveCo(*problem_, co);
  // A 1-problem batch carries seed `mogd.seed + 1000*0` == `mogd.seed`.
  std::vector<std::optional<CoResult>> solved =
      solver_->SolveBatch(*problem_, {co}, &result_.perf, stop);
  UDAO_CHECK_EQ(static_cast<int>(solved.size()), 1);
  return std::move(solved[0]);
}

CoResult ProgressiveFrontier::SolveMin(int target, const StopToken& stop) {
  if (config_.use_exhaustive) return exhaustive_.Minimize(*problem_, target);
  return solver_->Minimize(*problem_, target, &result_.perf, stop);
}

double ProgressiveFrontier::QueueVolume() const {
#ifndef NDEBUG
  // Cross-check the incrementally maintained sum against a recomputation
  // (priority_queue lacks iteration, hence the copy). The running +=/-= sum
  // is NOT bitwise-equal to the heap-order sum: each push/pop contributes
  // O(eps) relative rounding, and cancellation amplifies it, so the
  // tolerance scales with how many updates fed the running sum since the
  // last exact resync (the empty-queue pin in Run()).
  std::priority_queue<Rect> copy = queue_;
  double recomputed = 0;
  while (!copy.empty()) {
    recomputed += copy.top().volume;
    copy.pop();
  }
  const double scale = std::max({1.0, recomputed, queue_volume_});
  const double tol =
      std::max(1e-6, 1e-12 * static_cast<double>(volume_updates_));
  UDAO_CHECK(std::abs(recomputed - queue_volume_) <= tol * scale);
#endif
  return queue_volume_;
}

void ProgressiveFrontier::Snapshot() {
  PfSnapshot snap;
  snap.seconds = elapsed_s_;
  snap.num_points = static_cast<int>(result_.frontier.size());
  snap.uncertain_percent =
      initial_volume_ > 0
          ? 100.0 * std::min(1.0, QueueVolume() / initial_volume_)
          : 0.0;
  result_.uncertain_percent = snap.uncertain_percent;
  result_.history.push_back(snap);
}

void ProgressiveFrontier::AddPoint(const CoResult& co) {
  // Drop near-duplicates (relative tolerance): distinct probes can converge
  // onto the same frontier point up to solver precision.
  for (const MooPoint& p : result_.frontier) {
    bool same = true;
    for (size_t j = 0; j < p.objectives.size(); ++j) {
      const double scale = std::max({1.0, std::abs(p.objectives[j]),
                                     std::abs(co.objectives[j])});
      if (std::abs(p.objectives[j] - co.objectives[j]) > 1e-6 * scale) {
        same = false;
        break;
      }
    }
    if (same) return;
  }
  // Single-pass incremental insert (the resident frontier is mutually
  // non-dominated, so re-running the full O(n^2) ParetoFilter per insertion
  // is redundant): a candidate dominated by any resident point is dropped,
  // and by transitivity a surviving candidate can only evict points it
  // itself dominates. The stable erase keeps survivor order identical to
  // what ParetoFilter produced.
  for (const MooPoint& p : result_.frontier) {
    if (Dominates(p.objectives, co.objectives)) return;
  }
  result_.frontier.erase(
      std::remove_if(result_.frontier.begin(), result_.frontier.end(),
                     [&co](const MooPoint& p) {
                       return Dominates(co.objectives, p.objectives);
                     }),
      result_.frontier.end());
  result_.frontier.push_back(MooPoint{co.objectives, co.x});
  UDAO_METRIC_COUNTER_ADD("udao.pf.points_added", 1);
}

void ProgressiveFrontier::PushSplit(const Vector& u, const Vector& n,
                                    const Vector& m, bool drop_all_lower,
                                    bool drop_all_upper) {
  const int k = problem_->NumObjectives();
  const int cells = 1 << k;
  for (int mask = 0; mask < cells; ++mask) {
    if (drop_all_lower && mask == 0) continue;
    if (drop_all_upper && mask == cells - 1) continue;
    Rect rect;
    rect.utopia.resize(k);
    rect.nadir.resize(k);
    for (int d = 0; d < k; ++d) {
      if (mask & (1 << d)) {
        rect.utopia[d] = m[d];
        rect.nadir[d] = n[d];
      } else {
        rect.utopia[d] = u[d];
        rect.nadir[d] = m[d];
      }
    }
    rect.volume = HyperrectVolume(rect.utopia, rect.nadir);
    rect.priority =
        config_.fifo_queue ? -(next_seq_++) : rect.volume;
    // Rects below the volume floor are dropped entirely, so they never enter
    // the running sum either.
    if (rect.volume > 1e-12 * std::max(1.0, initial_volume_)) {
      queue_volume_ += rect.volume;
      ++volume_updates_;
      queue_.push(std::move(rect));
      UDAO_METRIC_COUNTER_ADD("udao.pf.rects_pushed", 1);
    }
  }
  UDAO_METRIC_COUNTER_ADD("udao.pf.splits", 1);
}

void ProgressiveFrontier::Initialize(const StopToken& stop) {
  UDAO_TRACE_SPAN("pf.initialize");
  UDAO_METRIC_COUNTER_ADD("udao.pf.initializes", 1);
  initialized_ = true;
  const int k = problem_->NumObjectives();
  const auto start = Clock::now();

  // Reference points: one single-objective minimization per objective
  // (line 2 of Algorithm 1). These run even under an expired budget --
  // Minimize is stop-aware and degrades to one iteration per objective --
  // because without them there is no box, no frontier seed, and nothing
  // best-so-far to return.
  std::vector<CoResult> plans;
  plans.reserve(k);
  for (int i = 0; i < k; ++i) plans.push_back(SolveMin(i, stop));

  Vector utopia(k);
  Vector nadir(k);
  for (int j = 0; j < k; ++j) {
    utopia[j] = plans[0].objectives[j];
    nadir[j] = plans[0].objectives[j];
    for (int i = 1; i < k; ++i) {
      utopia[j] = std::min(utopia[j], plans[i].objectives[j]);
      nadir[j] = std::max(nadir[j], plans[i].objectives[j]);
    }
    // User value constraints shrink the search box (Problem III.1).
    utopia[j] = std::max(utopia[j], problem_->UserLower(j));
    nadir[j] = std::min(nadir[j], problem_->UserUpper(j));
    // Degenerate axis (constant objective): widen so volumes stay positive.
    // An inverted axis (a bound outside the reachable range) stays inverted,
    // so the box is empty below rather than a sliver past the bound.
    const double width = nadir[j] - utopia[j];
    if (width >= 0.0 && width < 1e-12) {
      nadir[j] = utopia[j] + std::max(1e-9, 1e-9 * std::abs(utopia[j]));
    }
  }
  result_.utopia = utopia;
  result_.nadir = nadir;
  if (HyperrectVolume(utopia, nadir) <= 0.0) {
    box_empty_ = true;
    // Reference solves cut short by `stop` may stop above an objective's
    // true minimum, so the emptiness they imply is not proven: the result
    // is degraded, not infeasible (and serving layers do not cache it).
    if (stop.ShouldStop()) {
      result_.degraded = true;
      UDAO_METRIC_COUNTER_ADD("udao.pf.degraded_runs", 1);
    }
    elapsed_s_ += SecondsSince(start);
    result_.uncertain_percent = 0.0;
    return;
  }

  initial_volume_ = HyperrectVolume(utopia, nadir);
  queue_.push(Rect{utopia, nadir, initial_volume_,
                   config_.fifo_queue ? -(next_seq_++) : initial_volume_});
  queue_volume_ = initial_volume_;  // exact: single-element sum
  volume_updates_ = 0;

  // Reference points that satisfy the user constraints seed the frontier.
  for (const CoResult& plan : plans) {
    bool ok = true;
    for (int j = 0; j < k && ok; ++j) {
      ok = plan.objectives[j] >= problem_->UserLower(j) - 1e-9 &&
           plan.objectives[j] <= problem_->UserUpper(j) + 1e-9;
    }
    if (ok) AddPoint(plan);
  }
  elapsed_s_ += SecondsSince(start);
  Snapshot();
}

const PfResult& ProgressiveFrontier::Run(int total_points) {
  return Run(total_points, StopToken());
}

const PfResult& ProgressiveFrontier::Run(int total_points,
                                         const StopToken& stop) {
  if (!initialized_) Initialize(stop);
  if (box_empty_) return result_;
  const int k = problem_->NumObjectives();
  int probes_this_call = 0;

  while (static_cast<int>(result_.frontier.size()) < total_points &&
         !queue_.empty() && probes_this_call < config_.max_probes) {
    // Anytime exit (Section III's incremental property made operational):
    // the queue keeps its remaining rectangles, so a later Run() on the
    // same instance resumes exactly where this one stopped.
    if (stop.ShouldStop()) {
      result_.degraded = true;
      UDAO_METRIC_COUNTER_ADD("udao.pf.degraded_runs", 1);
      return result_;
    }
    UDAO_TRACE_SPAN("pf.probe");
    // Latency-injection site for deterministic deadline tests (the injected
    // Status is irrelevant here: PF has no per-probe error channel).
    (void)UDAO_FAULT_SITE("pf.probe");
    const auto start = Clock::now();
    Rect rect = queue_.top();
    queue_.pop();
    queue_volume_ -= rect.volume;
    ++volume_updates_;
    // An empty queue pins the sum to exactly 0, shedding any +=/-= drift.
    if (queue_.empty()) {
      queue_volume_ = 0;
      volume_updates_ = 0;
    }

    if (!config_.parallel) {
      // Middle-point probe (Definition III.3): search the lower half-box.
      Vector middle(k);
      for (int d = 0; d < k; ++d) {
        middle[d] = 0.5 * (rect.utopia[d] + rect.nadir[d]);
      }
      CoProblem co;
      co.target = 0;
      co.lower = rect.utopia;
      co.upper = middle;
      std::optional<CoResult> found = Solve(co, stop);
      ++result_.probes;
      ++probes_this_call;
      UDAO_METRIC_COUNTER_ADD("udao.pf.probes", 1);
      UDAO_METRIC_COUNTER_ADD("udao.pf.subspace_solves", 1);
      if (found.has_value()) {
        AddPoint(*found);
        // Split the whole rectangle at fM; [U, fM] is empty (else fM not
        // optimal) and [fM, N] is dominated (Fig. 2(a)).
        PushSplit(rect.utopia, rect.nadir, found->objectives,
                  /*drop_all_lower=*/true, /*drop_all_upper=*/true);
      } else {
        // The probed half-box is infeasible: drop it, keep the rest.
        PushSplit(rect.utopia, rect.nadir, middle, /*drop_all_lower=*/true,
                  /*drop_all_upper=*/false);
      }
    } else {
      // PF-AP: partition into an l^k grid and solve all cell CO problems
      // simultaneously (Section IV-C).
      const int l = config_.grid_per_dim;
      int cells = 1;
      for (int d = 0; d < k; ++d) cells *= l;
      std::vector<CoProblem> cos;
      std::vector<std::pair<Vector, Vector>> bounds;
      cos.reserve(cells);
      for (int cell = 0; cell < cells; ++cell) {
        Vector lo(k);
        Vector hi(k);
        int rem = cell;
        for (int d = 0; d < k; ++d) {
          const int idx = rem % l;
          rem /= l;
          const double step = (rect.nadir[d] - rect.utopia[d]) / l;
          lo[d] = rect.utopia[d] + idx * step;
          hi[d] = lo[d] + step;
        }
        CoProblem co;
        co.target = 0;
        co.lower = lo;
        co.upper = hi;
        cos.push_back(std::move(co));
        bounds.emplace_back(std::move(lo), std::move(hi));
      }
      std::vector<std::optional<CoResult>> solved =
          config_.use_exhaustive
              ? [&] {
                  std::vector<std::optional<CoResult>> r(cos.size());
                  for (size_t i = 0; i < cos.size(); ++i) {
                    r[i] = exhaustive_.SolveCo(*problem_, cos[i]);
                  }
                  return r;
                }()
          : solver_->SolveBatch(*problem_, cos, &result_.perf, stop);
      result_.probes += cells;
      ++probes_this_call;
      UDAO_METRIC_COUNTER_ADD("udao.pf.probes", 1);
      UDAO_METRIC_COUNTER_ADD("udao.pf.subspace_solves", cells);
      for (size_t i = 0; i < solved.size(); ++i) {
        if (!solved[i].has_value()) continue;  // cell proven empty
        AddPoint(*solved[i]);
        // The found point minimizes the target within the cell: the
        // all-lower corner holds no additional frontier mass and the
        // all-upper corner is dominated.
        PushSplit(bounds[i].first, bounds[i].second, solved[i]->objectives,
                  /*drop_all_lower=*/true, /*drop_all_upper=*/true);
      }
    }
    const double probe_s = SecondsSince(start);
    elapsed_s_ += probe_s;
    UDAO_METRIC_OBSERVE("udao.pf.probe_ms", probe_s * 1e3);
    Snapshot();
  }
  // Reaching the point target / exhausting the space / hitting the probe cap
  // is a normal completion: a previously degraded result is now whole again.
  result_.degraded = false;
  return result_;
}

}  // namespace udao
