// Deadline-aware anytime solving: the Deadline/CancellationToken/StopToken
// primitives, the FaultInjector that makes expiry deterministic in tests,
// and the contract that every layer of the solve stack (MOGD, PF, Udao,
// UdaoService) returns a valid best-so-far answer -- never a crash, never a
// silent empty result -- when the budget dies at the worst possible moment.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <thread>

#include "common/deadline.h"
#include "common/fault_injector.h"
#include "moo/mogd.h"
#include "moo/progressive_frontier.h"
#include "serving/udao_service.h"
#include "test_problems.h"
#include "tuning/udao.h"

namespace udao {
namespace {

using testing_problems::UnitSpace2;

// ---------------------------------------------------------------- Deadline

TEST(DeadlineTest, NeverHasNoDeadlineAndInfiniteBudget) {
  const Deadline d = Deadline::Never();
  EXPECT_FALSE(d.has_deadline());
  EXPECT_FALSE(d.IsExpired());
  EXPECT_TRUE(std::isinf(d.RemainingMs()));
}

TEST(DeadlineTest, ZeroAndNegativeBudgetsAreAlreadyExpired) {
  EXPECT_TRUE(Deadline::AfterMs(0.0).IsExpired());
  EXPECT_TRUE(Deadline::AfterMs(-5.0).IsExpired());
  EXPECT_LE(Deadline::AfterMs(-5.0).RemainingMs(), 0.0);
}

TEST(DeadlineTest, GenerousBudgetIsNotExpired) {
  const Deadline d = Deadline::AfterMs(1e6);
  EXPECT_TRUE(d.has_deadline());
  EXPECT_FALSE(d.IsExpired());
  EXPECT_GT(d.RemainingMs(), 0.0);
}

TEST(DeadlineTest, EarlierPicksTheSoonerDeadline) {
  const Deadline never = Deadline::Never();
  const Deadline soon = Deadline::AfterMs(10.0);
  const Deadline late = Deadline::AfterMs(1e6);
  EXPECT_FALSE(Deadline::Earlier(never, never).has_deadline());
  // Never is the identity element on either side.
  EXPECT_GT(Deadline::Earlier(never, late).RemainingMs(), 1e3);
  EXPECT_GT(Deadline::Earlier(late, never).RemainingMs(), 1e3);
  EXPECT_LT(Deadline::Earlier(late, soon).RemainingMs(), 1e3);
  EXPECT_LT(Deadline::Earlier(soon, late).RemainingMs(), 1e3);
}

// ------------------------------------------------------------ Cancellation

TEST(CancellationTest, DefaultTokenNeverCancels) {
  const CancellationToken token;
  EXPECT_FALSE(token.CanBeCancelled());
  EXPECT_FALSE(token.IsCancelled());
}

TEST(CancellationTest, CancelReachesEveryTokenCopyAndIsIdempotent) {
  CancellationSource source;
  const CancellationToken a = source.token();
  const CancellationToken b = a;
  EXPECT_TRUE(a.CanBeCancelled());
  EXPECT_FALSE(a.IsCancelled());
  source.Cancel();
  source.Cancel();
  EXPECT_TRUE(source.IsCancelled());
  EXPECT_TRUE(a.IsCancelled());
  EXPECT_TRUE(b.IsCancelled());
}

TEST(StopTokenTest, DefaultNeverStops) {
  const StopToken token;
  EXPECT_FALSE(token.CanStop());
  EXPECT_FALSE(token.ShouldStop());
}

TEST(StopTokenTest, StopsOnEitherSignal) {
  EXPECT_TRUE(StopToken(Deadline::AfterMs(0.0)).ShouldStop());
  CancellationSource source;
  const StopToken token(Deadline::Never(), source.token());
  EXPECT_TRUE(token.CanStop());
  EXPECT_FALSE(token.ShouldStop());
  source.Cancel();
  EXPECT_TRUE(token.ShouldStop());
}

// ----------------------------------------------------------- FaultInjector

TEST(FaultInjectorTest, FailNextFiresExactlyCountTimesThenDisarms) {
  FaultInjector& fi = FaultInjector::Global();
  fi.Reset();
  fi.FailNext("test.site", Status::Unavailable("injected"), 2);
  EXPECT_EQ(fi.Traverse("test.site").code(), StatusCode::kUnavailable);
  EXPECT_EQ(fi.Traverse("other.site").code(), StatusCode::kOk);
  EXPECT_EQ(fi.Traverse("test.site").code(), StatusCode::kUnavailable);
  EXPECT_TRUE(fi.Traverse("test.site").ok());  // auto-disarmed after count
  fi.Reset();
}

TEST(FaultInjectorTest, DelayNextStallsTheTraversal) {
  FaultInjector& fi = FaultInjector::Global();
  fi.Reset();
  fi.DelayNext("test.delay", 30.0, 1);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_TRUE(fi.Traverse("test.delay").ok());
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  EXPECT_GE(ms, 25.0);  // sleep_for may round, never undershoots by much
  fi.Reset();
}

TEST(FaultInjectorTest, ResetDisarmsEverything) {
  FaultInjector& fi = FaultInjector::Global();
  fi.FailNext("test.a", Status::NotFound("x"), 100);
  fi.DelayNext("test.b", 1000.0, 100);
  fi.Reset();
  EXPECT_TRUE(fi.Traverse("test.a").ok());
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_TRUE(fi.Traverse("test.b").ok());
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  EXPECT_LT(ms, 100.0);
}

// ------------------------------------------------------------- MOGD anytime

TEST(DeadlineSolveTest, MinimizeWithExpiredBudgetReturnsFiniteIncumbent) {
  const MooProblem problem = testing_problems::ConvexProblem();
  MogdConfig config;
  config.multistart = 4;
  config.max_iters = 50;
  MogdSolver solver(config);
  // The first iteration is unconditional, so even a dead-on-arrival budget
  // produces a real evaluated point (the UDAO_CHECK(isfinite) inside
  // Minimize depends on this).
  const CoResult r = solver.Minimize(problem, 0, nullptr,
                                     StopToken(Deadline::AfterMs(0.0)));
  EXPECT_TRUE(std::isfinite(r.target_value));
  EXPECT_FALSE(r.x.empty());
  EXPECT_FALSE(r.objectives.empty());
}

TEST(DeadlineSolveTest, SolveCoWithExpiredBudgetStillEvaluatesOnce) {
  const MooProblem problem = testing_problems::ConvexProblem();
  CoProblem co;
  co.target = 0;
  co.lower = {0.0, 0.0};
  co.upper = {10.0, 10.0};  // wide open: the first evaluation is feasible
  MogdConfig config;
  config.multistart = 4;
  config.max_iters = 50;
  const MogdSolver solver(config);
  const auto r = solver.SolveCo(problem, co, nullptr,
                                StopToken(Deadline::AfterMs(0.0)));
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(std::isfinite(r->target_value));
}

// --------------------------------------------------------------- PF anytime

PfConfig SmallPf() {
  PfConfig cfg;
  cfg.mogd.multistart = 2;
  cfg.mogd.max_iters = 20;
  return cfg;
}

TEST(DeadlineSolveTest, PfExpiredBudgetReturnsDegradedSeedFrontier) {
  const MooProblem problem = testing_problems::ConvexProblem();
  ProgressiveFrontier pf(&problem, SmallPf());
  const PfResult partial = pf.Run(10, StopToken(Deadline::AfterMs(0.0)));
  EXPECT_TRUE(partial.degraded);
  // Initialize's reference solves always run: there is a best-so-far
  // frontier to hand back even under a zero budget.
  EXPECT_FALSE(partial.frontier.empty());

  // Anytime resume: the queue survived the early exit, so a later Run on the
  // same instance completes the frontier and clears the degraded tag.
  const PfResult& full = pf.Run(10);
  EXPECT_FALSE(full.degraded);
  EXPECT_GE(full.frontier.size(), partial.frontier.size());
}

TEST(DeadlineSolveTest, DeadlineExpiringDuringFirstExpansionDegrades) {
  const MooProblem problem = testing_problems::ConvexProblem();
  ProgressiveFrontier pf(&problem, SmallPf());
  // A 60 ms stall on the first probe guarantees the 30 ms budget dies inside
  // the first expansion, not before it -- the mid-flight case.
  FaultInjector::Global().Reset();
  FaultInjector::Global().DelayNext("pf.probe", 60.0, 1);
  const PfResult r = pf.Run(32, StopToken(Deadline::AfterMs(30.0)));
  FaultInjector::Global().Reset();
  EXPECT_TRUE(r.degraded);
  EXPECT_FALSE(r.frontier.empty());
  EXPECT_LT(r.frontier.size(), 32u);
}

// ------------------------------------------------------------ Udao / service

SolverOptions FastOptions() {
  SolverOptions options;
  options.pf.mogd.multistart = 4;
  options.pf.mogd.max_iters = 40;
  options.solver_threads = 2;
  options.frontier_points = 8;
  return options;
}

UdaoRequest ConvexRequest() {
  static const MooProblem& problem =
      *new MooProblem(testing_problems::ConvexProblem());
  UdaoRequest request;
  request.workload_id = "w";
  request.space = &UnitSpace2();
  request.objectives = {problem.objective(0), problem.objective(1)};
  return request;
}

TEST(DeadlineSolveTest, CancelledBeforeSolvingFailsWithDeadlineExceeded) {
  ModelServer server;
  Udao optimizer(&server, FastOptions());
  UdaoRequest request = ConvexRequest();
  CancellationSource source;
  source.Cancel();
  request.options.cancel = source.token();
  const auto rec = optimizer.Optimize(request);
  ASSERT_FALSE(rec.ok());
  EXPECT_EQ(rec.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(DeadlineSolveTest, ZeroBudgetOptimizeAnswersDegraded) {
  ModelServer server;
  Udao optimizer(&server, FastOptions());
  UdaoRequest request = ConvexRequest();
  request.options.deadline = Deadline::AfterMs(0.0);
  const auto rec = optimizer.Optimize(request);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_TRUE(rec->degraded);
  EXPECT_FALSE(rec->frontier.frontier.empty());
  EXPECT_FALSE(rec->conf_raw.empty());
}

// The minimum of f1 = x0 + x1 that PF's reference solves report under a
// fired token (one Adam iteration each). The true minimum is 0; this one
// lies above it.
double CutShortF1Minimum(const PfConfig& config) {
  const MooProblem problem = testing_problems::ConvexProblem();
  ProgressiveFrontier pf(&problem, config);
  return pf.Run(1, StopToken(Deadline::AfterMs(0.0))).utopia[0];
}

// A bound between the cut-short minimum and the true one: the box is empty
// only because the budget cut the reference solves short, so the answer is
// degraded (DeadlineExceeded), not infeasible (FailedPrecondition).
TEST(DeadlineSolveTest, EmptyBoxFromCutShortSolvesIsDegraded) {
  const SolverOptions options = FastOptions();
  const double cut_short_min = CutShortF1Minimum(options.pf);
  ASSERT_GT(cut_short_min, 0.01);
  UdaoRequest request = ConvexRequest();
  request.objectives[0].upper = cut_short_min / 2;
  const MooProblem bounded(request.space, request.objectives);

  ProgressiveFrontier expired(&bounded, options.pf);
  const PfResult& cut = expired.Run(8, StopToken(Deadline::AfterMs(0.0)));
  EXPECT_TRUE(cut.frontier.empty());
  EXPECT_TRUE(cut.degraded);
  ProgressiveFrontier unbudgeted(&bounded, options.pf);
  const PfResult& full = unbudgeted.Run(8);
  EXPECT_FALSE(full.frontier.empty());
  EXPECT_FALSE(full.degraded);

  ModelServer server;
  Udao optimizer(&server, options);
  request.options.deadline = Deadline::AfterMs(0.0);
  const auto rec = optimizer.Optimize(request);
  ASSERT_FALSE(rec.ok());
  EXPECT_EQ(rec.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(DeadlineServiceTest, ExpiredBudgetNeverReachesTheSolver) {
  // A request whose budget is already dead at dequeue is failed by the
  // admission queue itself: no miss is counted because Handle never runs --
  // solving for a caller that already gave up is the overload death spiral.
  ModelServer server;
  UdaoServiceConfig config;
  config.udao = FastOptions();
  config.admission_threads = 2;
  UdaoService service(&server, config);

  UdaoRequest zero = ConvexRequest();
  zero.options.deadline = Deadline::AfterMs(0.0);
  const auto rec = service.Submit(zero).Wait();
  ASSERT_FALSE(rec.ok());
  EXPECT_EQ(rec.status().code(), StatusCode::kDeadlineExceeded);
  const UdaoServiceStats s = service.stats();
  EXPECT_EQ(s.requests, 1);
  EXPECT_EQ(s.deadline_exceeded, 1);
  EXPECT_EQ(s.errors, 1);
  EXPECT_EQ(s.cache_misses, 0);
  EXPECT_EQ(service.CacheSize(), 0);
}

TEST(DeadlineServiceTest, DegradedFrontiersAreNeverCached) {
  ModelServer server;
  UdaoServiceConfig config;
  config.udao = FastOptions();
  config.admission_threads = 2;
  UdaoService service(&server, config);

  // A budget generous enough to survive the admission queue but -- thanks to
  // a 500 ms stall injected into the first PF probe -- guaranteed dead
  // before the frontier completes: the solve runs and comes back truncated.
  UdaoRequest budgeted = ConvexRequest();
  budgeted.options.deadline = Deadline::AfterMs(250.0);
  FaultInjector::Global().Reset();
  FaultInjector::Global().DelayNext("pf.probe", 500.0, 1);
  const auto degraded = service.Submit(budgeted).Wait();
  FaultInjector::Global().Reset();
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_TRUE(degraded->degraded);
  EXPECT_FALSE(degraded->frontier.frontier.empty());
  EXPECT_EQ(service.CacheSize(), 0);  // budget-truncated: not cacheable

  // The same key without a budget computes the complete frontier and caches
  // it -- a second miss, never a hit on degraded leftovers.
  const auto full = service.Submit(ConvexRequest()).Wait();
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  EXPECT_FALSE(full->degraded);
  EXPECT_EQ(service.CacheSize(), 1);
  const UdaoServiceStats s = service.stats();
  EXPECT_EQ(s.cache_misses, 2);
  EXPECT_EQ(s.cache_hits, 0);
  EXPECT_EQ(s.degraded, 1);
  EXPECT_EQ(s.errors, 0);
}

// The service form of EmptyBoxFromCutShortSolvesIsDegraded: the verdict of
// cut-short reference solves must not be cached, or every later request for
// the key would read "infeasible" for a feasible bound.
TEST(DeadlineServiceTest, EmptyBoxFromCutShortSolvesIsNotCached) {
  ModelServer server;
  UdaoServiceConfig config;
  config.udao = FastOptions();
  config.admission_threads = 2;
  UdaoService service(&server, config);

  // f1's first evaluation stalls past the budget, so the request clears
  // the admission queue and its reference solves then run under a fired
  // token.
  auto stalled = std::make_shared<std::atomic<bool>>(false);
  UdaoRequest request = ConvexRequest();
  request.objectives[0].model = std::make_shared<CallableModel>(
      "f1", 2, [stalled](const Vector& x) {
        if (!stalled->exchange(true)) {
          std::this_thread::sleep_for(std::chrono::milliseconds(500));
        }
        return x[0] + x[1];
      });
  request.objectives[0].upper = CutShortF1Minimum(config.udao.pf) / 2;
  UdaoRequest budgeted = request;
  budgeted.options.deadline = Deadline::AfterMs(250.0);
  const auto cut = service.Submit(budgeted).Wait();
  ASSERT_FALSE(cut.ok());
  EXPECT_EQ(cut.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(service.CacheSize(), 0);

  // The same key without a budget finds the bound feasible.
  const auto full = service.Submit(request).Wait();
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  EXPECT_FALSE(full->frontier.frontier.empty());
  EXPECT_EQ(service.CacheSize(), 1);
  EXPECT_EQ(service.stats().cache_misses, 2);
}

// ----------------------------------------------------- options fingerprint

TEST(SolverOptionsTest, FingerprintIsCanonicalAndExcludesThreading) {
  const SolverOptions base;
  EXPECT_EQ(base.Fingerprint(), SolverOptions().Fingerprint());
  EXPECT_FALSE(base.Fingerprint().empty());
  // Hex rendering is stable and matches the raw fingerprint's length.
  EXPECT_EQ(base.FingerprintHex().size(), 2 * base.Fingerprint().size());

  // Threading never changes solutions, so it never changes the fingerprint.
  SolverOptions threaded = base;
  threaded.solver_threads = 16;
  static ThreadPool pool(2);
  threaded.pf.mogd.pool = &pool;
  EXPECT_EQ(threaded.Fingerprint(), base.Fingerprint());

  // Every solver-behavior field does.
  SolverOptions points = base;
  points.frontier_points += 1;
  EXPECT_NE(points.Fingerprint(), base.Fingerprint());
  SolverOptions mogd = base;
  mogd.pf.mogd.learning_rate *= 2.0;
  EXPECT_NE(mogd.Fingerprint(), base.Fingerprint());
  SolverOptions alpha = base;
  alpha.uncertainty_alpha = 0.0;
  EXPECT_NE(alpha.Fingerprint(), base.Fingerprint());
}

}  // namespace
}  // namespace udao
