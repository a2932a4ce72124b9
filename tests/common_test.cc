#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <functional>
#include <future>
#include <limits>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/matrix.h"
#include "common/random.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/thread_pool.h"

namespace udao {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad knob");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad knob");
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = Status::NotFound("missing");
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

// ---------------------------------------------------------------- Matrix

TEST(MatrixTest, MultiplyMatchesHandComputation) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix b = Matrix::FromRows({{5, 6}, {7, 8}});
  Matrix c = a.Multiply(b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19);
  EXPECT_DOUBLE_EQ(c(0, 1), 22);
  EXPECT_DOUBLE_EQ(c(1, 0), 43);
  EXPECT_DOUBLE_EQ(c(1, 1), 50);
}

TEST(MatrixTest, TransposeRoundTrips) {
  Matrix a = Matrix::FromRows({{1, 2, 3}, {4, 5, 6}});
  Matrix t = a.Transpose();
  EXPECT_EQ(t.rows(), 3);
  EXPECT_EQ(t.cols(), 2);
  Matrix tt = t.Transpose();
  for (int r = 0; r < 2; ++r) {
    for (int c = 0; c < 3; ++c) EXPECT_DOUBLE_EQ(tt(r, c), a(r, c));
  }
}

TEST(MatrixTest, ApplyAndApplyTranspose) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}, {5, 6}});
  Vector v = {1, 1};
  Vector av = a.Apply(v);
  EXPECT_EQ(av, (Vector{3, 7, 11}));
  Vector w = {1, 1, 1};
  Vector atw = a.ApplyTranspose(w);
  EXPECT_EQ(atw, (Vector{9, 12}));
}

TEST(MatrixTest, IdentityIsMultiplicativeUnit) {
  Matrix a = Matrix::FromRows({{2, -1}, {0.5, 3}});
  Matrix i = Matrix::Identity(2);
  Matrix ai = a.Multiply(i);
  for (int r = 0; r < 2; ++r) {
    for (int c = 0; c < 2; ++c) EXPECT_DOUBLE_EQ(ai(r, c), a(r, c));
  }
}

TEST(CholeskyTest, FactorReconstructsSpdMatrix) {
  Matrix a = Matrix::FromRows({{4, 2, 0.5}, {2, 5, 1}, {0.5, 1, 3}});
  StatusOr<Matrix> l = CholeskyFactor(a);
  ASSERT_TRUE(l.ok());
  Matrix rec = l->Multiply(l->Transpose());
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 3; ++c) EXPECT_NEAR(rec(r, c), a(r, c), 1e-12);
  }
}

TEST(CholeskyTest, RejectsIndefiniteMatrix) {
  Matrix a = Matrix::FromRows({{1, 2}, {2, 1}});  // eigenvalues 3, -1
  StatusOr<Matrix> l = CholeskyFactor(a);
  EXPECT_FALSE(l.ok());
  EXPECT_EQ(l.status().code(), StatusCode::kNumericalError);
}

TEST(SolveSpdTest, SolvesLinearSystem) {
  Matrix a = Matrix::FromRows({{4, 1}, {1, 3}});
  Vector b = {1, 2};
  StatusOr<Vector> x = SolveSpd(a, b);
  ASSERT_TRUE(x.ok());
  Vector ax = a.Apply(*x);
  EXPECT_NEAR(ax[0], b[0], 1e-12);
  EXPECT_NEAR(ax[1], b[1], 1e-12);
}

TEST(VectorOpsTest, DotNormDistance) {
  Vector a = {3, 4};
  Vector b = {0, 0};
  EXPECT_DOUBLE_EQ(Dot(a, a), 25);
  EXPECT_DOUBLE_EQ(Norm2(a), 5);
  EXPECT_DOUBLE_EQ(SquaredDistance(a, b), 25);
}

// Property: for random SPD matrices A = M M^T + nI, SolveSpd returns x with
// ||Ax - b|| tiny.
class SpdSolveProperty : public ::testing::TestWithParam<int> {};

TEST_P(SpdSolveProperty, ResidualIsTiny) {
  const int n = GetParam();
  Rng rng(1234 + n);
  Matrix m(n, n);
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < n; ++c) m(r, c) = rng.Gaussian();
  }
  Matrix a = m.Multiply(m.Transpose());
  for (int i = 0; i < n; ++i) a(i, i) += n;  // well conditioned
  Vector b(n);
  for (int i = 0; i < n; ++i) b[i] = rng.Uniform(-1, 1);
  StatusOr<Vector> x = SolveSpd(a, b);
  ASSERT_TRUE(x.ok());
  Vector ax = a.Apply(*x);
  for (int i = 0; i < n; ++i) EXPECT_NEAR(ax[i], b[i], 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SpdSolveProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ---------------------------------------------------------------- Random

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(), b.Uniform());
  }
}

TEST(RngTest, UniformStaysInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform(2.0, 5.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(RngTest, UniformIntCoversRangeInclusive) {
  Rng rng(11);
  std::set<int> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformInt(1, 4));
  EXPECT_EQ(seen, (std::set<int>{1, 2, 3, 4}));
}

TEST(LatinHypercubeTest, EachStratumHitOnce) {
  Rng rng(5);
  const int n = 16;
  auto pts = LatinHypercube(n, 3, &rng);
  ASSERT_EQ(pts.size(), static_cast<size_t>(n));
  for (int d = 0; d < 3; ++d) {
    std::set<int> strata;
    for (const auto& p : pts) {
      EXPECT_GE(p[d], 0.0);
      EXPECT_LT(p[d], 1.0);
      strata.insert(static_cast<int>(p[d] * n));
    }
    EXPECT_EQ(strata.size(), static_cast<size_t>(n));
  }
}

TEST(HaltonTest, DeterministicAndInUnitCube) {
  auto a = HaltonSequence(50, 4);
  auto b = HaltonSequence(50, 4);
  EXPECT_EQ(a, b);
  for (const auto& p : a) {
    for (double v : p) {
      EXPECT_GT(v, 0.0);
      EXPECT_LT(v, 1.0);
    }
  }
}

TEST(HaltonTest, FirstBase2ValuesMatchKnownSequence) {
  auto pts = HaltonSequence(4, 1);
  EXPECT_DOUBLE_EQ(pts[0][0], 0.5);
  EXPECT_DOUBLE_EQ(pts[1][0], 0.25);
  EXPECT_DOUBLE_EQ(pts[2][0], 0.75);
  EXPECT_DOUBLE_EQ(pts[3][0], 0.125);
}

// ---------------------------------------------------------------- Stats

TEST(StatsTest, MeanAndStdDev) {
  std::vector<double> v = {2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(Mean(v), 5.0);
  EXPECT_NEAR(StdDev(v), 2.13809, 1e-4);
}

TEST(StatsTest, EmptyInputsAreSafe) {
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(StdDev({}), 0.0);
  EXPECT_DOUBLE_EQ(StdDev({1.0}), 0.0);
}

TEST(StatsTest, PercentileInterpolates) {
  std::vector<double> v = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 1);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 4);
  EXPECT_DOUBLE_EQ(Median(v), 2.5);
}

TEST(StatsTest, WeightedMapeMatchesDefinition) {
  std::vector<double> actual = {100, 10};
  std::vector<double> pred = {90, 20};
  // (10 + 10) / 110
  EXPECT_NEAR(WeightedMape(actual, pred), 20.0 / 110.0, 1e-12);
}

TEST(StatsTest, WeightedMapePerfectPrediction) {
  std::vector<double> actual = {5, 7, 9};
  EXPECT_DOUBLE_EQ(WeightedMape(actual, actual), 0.0);
}

// ---------------------------------------------------------------- ThreadPool

TEST(ThreadPoolTest, RunsAllSubmittedTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
  }  // the destructor drains the queue
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(64);
  pool.ParallelFor(64, [&hits](int i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, AtLeastOneThreadEvenIfZeroRequested) {
  ThreadPool pool(0);
  EXPECT_GE(pool.num_threads(), 1);
  std::promise<void> ran;
  std::future<void> done = ran.get_future();
  pool.Submit([&ran] { ran.set_value(); });
  EXPECT_EQ(done.wait_for(std::chrono::seconds(20)),
            std::future_status::ready);
}

// Occupies one pool worker until Release() (or destruction).
class BlockedWorker {
 public:
  explicit BlockedWorker(ThreadPool* pool) {
    pool->Submit([gate = gate_] { gate.wait(); });
  }
  ~BlockedWorker() { Release(); }
  BlockedWorker(const BlockedWorker&) = delete;
  BlockedWorker& operator=(const BlockedWorker&) = delete;
  void Release() {
    if (!released_) release_.set_value();
    released_ = true;
  }

 private:
  std::promise<void> release_;
  std::shared_future<void> gate_ = release_.get_future().share();
  bool released_ = false;
};

TEST(ThreadPoolTest, ParallelForZeroNeverWaitsOnUnrelatedTasks) {
  ThreadPool pool(1);
  // Block the lone worker on a task we control. If ParallelFor(0) waited
  // for pool-wide idle it would deadlock here (the blocker cannot finish
  // until after the call returns), which ctest reports as a timeout.
  BlockedWorker blocked(&pool);
  int calls = 0;
  pool.ParallelFor(0, [&calls](int) { ++calls; });
  pool.ParallelFor(-3, [&calls](int) { ++calls; });
  EXPECT_EQ(calls, 0);
  blocked.Release();
}

constexpr std::chrono::seconds kBound(20);

// The calling thread claims ParallelFor indices too, so the call completes
// while every worker is busy, and then the caller ran every index. A pool
// whose ParallelFor only waits for its workers hangs here, so the call runs
// on a side thread and its completion is awaited with a bound.
TEST(ThreadPoolTest, ParallelForCompletesWhileTheOnlyWorkerIsBlocked) {
  ThreadPool pool(1);
  BlockedWorker blocked(&pool);
  std::vector<std::thread::id> ran_on(8);
  std::thread::id caller;
  std::promise<void> finished;
  std::future<void> done = finished.get_future();
  std::thread side([&] {
    caller = std::this_thread::get_id();
    pool.ParallelFor(8, [&ran_on](int i) {
      ran_on[i] = std::this_thread::get_id();
    });
    finished.set_value();
  });
  const bool completed =
      done.wait_for(kBound) == std::future_status::ready;
  blocked.Release();
  side.join();
  ASSERT_TRUE(completed);
  for (const std::thread::id id : ran_on) EXPECT_EQ(id, caller);
}

// ParallelFor issued from inside a task of the same pool completes: the task
// claims indices itself instead of waiting for the pool it occupies to go
// idle. The pool is deliberately leaked if the call never completes, so a
// regression fails here instead of hanging the suite in ~ThreadPool.
TEST(ThreadPoolTest, ParallelForFromInsideAPoolTaskCompletes) {
  auto* pool = new ThreadPool(2);
  auto calls = std::make_shared<std::atomic<int>>(0);
  auto finished = std::make_shared<std::promise<void>>();
  std::future<void> done = finished->get_future();
  pool->Submit([pool, calls, finished] {
    pool->ParallelFor(8, [&calls](int) { calls->fetch_add(1); });
    finished->set_value();
  });
  ASSERT_EQ(done.wait_for(kBound), std::future_status::ready);
  EXPECT_EQ(calls->load(), 8);
  delete pool;
}

// Helpers that start after every index is taken return without calling fn:
// with the lone worker blocked, the caller runs all four indices and its
// helper stays queued; once released, that helper finds nothing to claim.
TEST(ThreadPoolTest, LateHelpersNeverCallFn) {
  std::atomic<int> calls{0};
  bool completed = false;
  int calls_at_return = 0;
  {
    ThreadPool pool(1);
    BlockedWorker blocked(&pool);
    std::promise<void> finished;
    std::future<void> done = finished.get_future();
    std::thread side([&] {
      pool.ParallelFor(4, [&calls](int) { calls.fetch_add(1); });
      finished.set_value();
    });
    completed = done.wait_for(kBound) == std::future_status::ready;
    calls_at_return = calls.load();
    blocked.Release();
    side.join();
  }  // the destructor drains the queue: the late helper has run
  ASSERT_TRUE(completed);
  EXPECT_EQ(calls_at_return, 4);
  EXPECT_EQ(calls.load(), 4);
}

TEST(ThreadPoolTest, SubmitFromTaskDuringShutdownStillRuns) {
  std::atomic<bool> follow_up_ran{false};
  {
    ThreadPool pool(1);
    // The outer task is still executing when the destructor flips the
    // shutdown flag; its follow-up submission must be drained, not dropped.
    std::atomic<bool>* flag = &follow_up_ran;
    ThreadPool* p = &pool;
    pool.Submit([p, flag] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      p->Submit([flag] { flag->store(true); });
    });
  }
  EXPECT_TRUE(follow_up_ran.load());
}

// ---------------------------------------------------------------- Check

TEST(CheckTest, PassingChecksAreSilent) {
  UDAO_CHECK(true);
  UDAO_CHECK_EQ(2, 2);
  UDAO_CHECK_LT(1, 2);
  UDAO_CHECK_FINITE(0.0);
  UDAO_CHECK_FINITE(-1e300);
  UDAO_DCHECK(true);
  UDAO_DCHECK_FINITE(1.5);
}

TEST(CheckDeathTest, CheckFailureAbortsWithLocation) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(UDAO_CHECK(1 == 2), "UDAO_CHECK failed");
}

TEST(CheckDeathTest, CheckOpPrintsOperands) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(UDAO_CHECK_LT(5, 3), "5 < 3");
}

TEST(CheckDeathTest, CheckFiniteAbortsOnNanAndInf) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(UDAO_CHECK_FINITE(std::nan("")), "UDAO_CHECK_FINITE");
  // An infinity literal, not 1.0/0.0: under the strict-UBSan build
  // (float-divide-by-zero, non-recoverable) the division itself would abort
  // before CHECK_FINITE gets to print.
  EXPECT_DEATH(UDAO_CHECK_FINITE(std::numeric_limits<double>::infinity()),
               "UDAO_CHECK_FINITE");
}

#ifdef NDEBUG
TEST(CheckTest, DcheckCompilesOutInReleaseBuilds) {
  // Deliberately-false conditions: Release keeps UDAO_CHECK but drops
  // UDAO_DCHECK, the contract udao_lint's no-assert rule exists to protect.
  UDAO_DCHECK(false);
  UDAO_DCHECK_FINITE(std::nan(""));
}
#else
TEST(CheckDeathTest, DcheckAbortsInDebugBuilds) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(UDAO_DCHECK(false), "UDAO_CHECK failed");
  EXPECT_DEATH(UDAO_DCHECK_FINITE(std::nan("")), "UDAO_CHECK_FINITE");
}
#endif

}  // namespace
}  // namespace udao
