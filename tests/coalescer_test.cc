// SolveCoalescer: sharing the CO subproblems of concurrent requests must be
// invisible in the results -- every problem solves bitwise-identically to a
// solo run with the same seed, whichever call or thread descended it, or
// whether the memo or an in-flight twin served it -- and visible only in the
// counters (descents, dedup and memo hits) and the wall clock. Also covers
// the serving layer's RequestTicket/Submit surface and shard routing, which
// exist to feed the coalescer concurrent traffic, and its stage-level
// refinement, whose per-stage solves the coalescer also serves.
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <optional>
#include <thread>
#include <vector>

#include "common/fault_injector.h"
#include "common/random.h"
#include "model/analytic_models.h"
#include "moo/progressive_frontier.h"
#include "moo/solve_coalescer.h"
#include "serving/udao_service.h"
#include "spark/engine.h"
#include "test_problems.h"
#include "workload/tpcxbb.h"

namespace udao {
namespace {

using testing_problems::ConvexProblem;
using testing_problems::UnitSpace2;

MogdConfig FastMogd() {
  MogdConfig cfg;
  cfg.multistart = 4;
  cfg.max_iters = 40;
  return cfg;
}

std::vector<CoProblem> ProbeLadder(int n) {
  std::vector<CoProblem> problems;
  for (int i = 0; i < n; ++i) {
    CoProblem co;
    co.target = i % 2;
    co.lower = {i * 0.1, 0.0};
    co.upper = {i * 0.1 + 0.3, 1.5};
    problems.push_back(co);
  }
  return problems;
}

void ExpectBitwiseEqual(const std::optional<CoResult>& a,
                        const std::optional<CoResult>& b, int i) {
  ASSERT_EQ(a.has_value(), b.has_value()) << "problem " << i;
  if (!a.has_value()) return;
  EXPECT_EQ(a->x, b->x) << "problem " << i;
  EXPECT_EQ(a->raw, b->raw) << "problem " << i;
  EXPECT_EQ(a->objectives, b->objectives) << "problem " << i;
  EXPECT_EQ(a->target_value, b->target_value) << "problem " << i;
}

// The fused kernel itself: one SolveCoFused call over K problems must equal
// K seeded solo solves bit for bit (same seeds, same trajectories).
TEST(SolveCoalescerTest, FusedSolveMatchesSeededSoloSolvesBitwise) {
  const MooProblem problem = ConvexProblem();
  const MogdConfig cfg = FastMogd();
  MogdSolver solver(cfg);
  const std::vector<CoProblem> problems = ProbeLadder(5);

  std::vector<const CoProblem*> cos;
  std::vector<uint64_t> seeds;
  const StopToken none;
  std::vector<const StopToken*> stops;
  for (size_t i = 0; i < problems.size(); ++i) {
    cos.push_back(&problems[i]);
    seeds.push_back(cfg.seed + 17 * i);  // any seeds; solo uses the same
    stops.push_back(&none);
  }
  std::vector<SolvePerf> perfs;
  const auto fused = solver.SolveCoFused(problem, cos, seeds, stops, &perfs);

  ASSERT_EQ(fused.size(), problems.size());
  for (size_t i = 0; i < problems.size(); ++i) {
    const auto solo =
        solver.SolveCoSeeded(problem, problems[i], seeds[i], nullptr, none);
    ExpectBitwiseEqual(fused[i], solo, static_cast<int>(i));
  }
}

// The full coalescer path for one submission must reproduce
// MogdSolver::SolveBatch bitwise: same per-slot seed contract, same results,
// one descent per problem.
TEST(SolveCoalescerTest, SingleSubmissionMatchesSolveBatchBitwise) {
  const MooProblem problem = ConvexProblem();
  SolveCoalescerConfig cc;
  cc.mogd = FastMogd();
  SolveCoalescer coalescer(cc);
  const std::vector<CoProblem> problems = ProbeLadder(6);

  const auto coalesced =
      coalescer.SolveBatch(problem, problems, nullptr, StopToken());
  MogdSolver solo(cc.mogd);
  const auto reference = solo.SolveBatch(problem, problems);

  ASSERT_EQ(coalesced.size(), reference.size());
  for (size_t i = 0; i < problems.size(); ++i) {
    ExpectBitwiseEqual(coalesced[i], reference[i], static_cast<int>(i));
  }
  EXPECT_EQ(coalescer.stats().submissions, 1);
  EXPECT_EQ(coalescer.stats().descents, 6);
}

// Two concurrent submissions of distinct problems against one MooProblem:
// each caller descends its own problem and must get exactly its solo-solve
// result.
TEST(SolveCoalescerTest, ConcurrentSubmissionsStayBitwiseIdentical) {
  const MooProblem problem = ConvexProblem();
  SolveCoalescerConfig cc;
  cc.mogd = FastMogd();
  SolveCoalescer coalescer(cc);

  const std::vector<CoProblem> pa = {ProbeLadder(3)[0]};
  const std::vector<CoProblem> pb = {ProbeLadder(3)[2]};
  std::vector<std::optional<CoResult>> ra, rb;
  std::thread ta([&] {
    ra = coalescer.SolveBatch(problem, pa, nullptr, StopToken());
  });
  std::thread tb([&] {
    rb = coalescer.SolveBatch(problem, pb, nullptr, StopToken());
  });
  ta.join();
  tb.join();

  MogdSolver solo(cc.mogd);
  ExpectBitwiseEqual(ra[0], solo.SolveBatch(problem, pa)[0], 0);
  ExpectBitwiseEqual(rb[0], solo.SolveBatch(problem, pb)[0], 1);

  const SolveCoalescer::Stats stats = coalescer.stats();
  EXPECT_EQ(stats.submissions, 2);
  EXPECT_EQ(stats.descents, 2);
}

// A cancelled submission never perturbs (or stalls) a concurrent one: the
// surviving submission's result must remain bitwise identical to its solo
// solve, and the doomed one still delivers. (A cancel-only submission is
// dedup-eligible, so its descent runs under the never-stop token -- a twin
// could join it mid-flight -- and cancellation lands between probes at the
// frontier layer instead; deadline-armed submissions keep per-iteration
// freezing, covered by the deadline tests.)
TEST(SolveCoalescerTest, CancelledSubmissionDoesNotPerturbBatchmates) {
  const MooProblem problem = ConvexProblem();
  SolveCoalescerConfig cc;
  cc.mogd = FastMogd();
  SolveCoalescer coalescer(cc);

  CancellationSource source;
  source.Cancel();  // doomed from the start: freezes at the first stop check
  const StopToken doomed(Deadline(), source.token());

  const std::vector<CoProblem> pa = {ProbeLadder(3)[0]};
  const std::vector<CoProblem> pb = {ProbeLadder(3)[2]};
  std::vector<std::optional<CoResult>> ra, rb;
  std::thread ta(
      [&] { ra = coalescer.SolveBatch(problem, pa, nullptr, doomed); });
  std::thread tb([&] {
    rb = coalescer.SolveBatch(problem, pb, nullptr, StopToken());
  });
  ta.join();
  tb.join();

  // The survivor is untouched by the other call's cancellation.
  MogdSolver solo(cc.mogd);
  ExpectBitwiseEqual(rb[0], solo.SolveBatch(problem, pb)[0], 1);
  // The doomed submission still delivered instead of hanging its caller.
  ASSERT_EQ(ra.size(), 1u);
}

// Identical subproblems submitted concurrently collapse to one descent. The
// gate: each thread bumps `entered` before calling, and the target
// objective's model spins until both have, so the representative cannot
// finish before the second call is issued -- the second is then served
// either by joining the in-flight solve (singleflight) or, if it lost the
// race to the representative's delivery, by the memo. Never by a second
// descent, and always with the bits a solo solve produces.
TEST(SolveCoalescerTest, IdenticalConcurrentSubmissionsShareOneDescent) {
  std::atomic<int> entered{0};
  auto f1 = std::make_shared<CallableModel>(
      "g1", 2, [&entered](const Vector& x) {
        while (entered.load() < 2) std::this_thread::yield();
        return x[0] + x[1];
      });
  auto f2 = std::make_shared<CallableModel>("g2", 2, [](const Vector& x) {
    return (1.0 - x[0]) * (1.0 - x[0]) + x[1];
  });
  const MooProblem problem(&UnitSpace2(),
                           {ObjectiveSpec{"g1", f1}, ObjectiveSpec{"g2", f2}});
  SolveCoalescerConfig cc;
  cc.mogd = FastMogd();
  SolveCoalescer coalescer(cc);

  const std::vector<CoProblem> shared = {ProbeLadder(3)[0]};
  std::vector<std::optional<CoResult>> ra, rb;
  std::thread ta([&] {
    entered.fetch_add(1);
    ra = coalescer.SolveBatch(problem, shared, nullptr, StopToken());
  });
  std::thread tb([&] {
    entered.fetch_add(1);
    rb = coalescer.SolveBatch(problem, shared, nullptr, StopToken());
  });
  ta.join();
  tb.join();

  MogdSolver solo(cc.mogd);
  const auto reference = solo.SolveBatch(problem, shared);
  ExpectBitwiseEqual(ra[0], reference[0], 0);
  ExpectBitwiseEqual(rb[0], reference[0], 1);

  const SolveCoalescer::Stats stats = coalescer.stats();
  EXPECT_EQ(stats.submissions, 2);
  EXPECT_EQ(stats.dedup_hits + stats.memo_hits, 1);
  EXPECT_EQ(stats.descents, 1);
}

// A resubmitted subproblem after its twin completed is served from the memo:
// no new descent, bitwise-identical bits.
TEST(SolveCoalescerTest, RepeatedSubmissionHitsTheMemo) {
  const MooProblem problem = ConvexProblem();
  SolveCoalescerConfig cc;
  cc.mogd = FastMogd();
  SolveCoalescer coalescer(cc);
  const std::vector<CoProblem> problems = ProbeLadder(3);

  const auto first =
      coalescer.SolveBatch(problem, problems, nullptr, StopToken());
  const long long descents_after_first = coalescer.stats().descents;
  const auto second =
      coalescer.SolveBatch(problem, problems, nullptr, StopToken());

  for (size_t i = 0; i < problems.size(); ++i) {
    ExpectBitwiseEqual(second[i], first[i], static_cast<int>(i));
  }
  const SolveCoalescer::Stats stats = coalescer.stats();
  EXPECT_EQ(stats.memo_hits, static_cast<long long>(problems.size()));
  EXPECT_EQ(stats.descents, descents_after_first);  // nothing re-descended
}

// memo_capacity = 0 turns the memo off: the repeat really re-solves (and,
// being deterministic, still matches bitwise).
TEST(SolveCoalescerTest, MemoCapacityZeroDisablesTheMemo) {
  const MooProblem problem = ConvexProblem();
  SolveCoalescerConfig cc;
  cc.mogd = FastMogd();
  cc.memo_capacity = 0;
  SolveCoalescer coalescer(cc);
  const std::vector<CoProblem> problems = ProbeLadder(3);

  const auto first =
      coalescer.SolveBatch(problem, problems, nullptr, StopToken());
  const long long descents_after_first = coalescer.stats().descents;
  const auto second =
      coalescer.SolveBatch(problem, problems, nullptr, StopToken());

  for (size_t i = 0; i < problems.size(); ++i) {
    ExpectBitwiseEqual(second[i], first[i], static_cast<int>(i));
  }
  const SolveCoalescer::Stats stats = coalescer.stats();
  EXPECT_EQ(stats.memo_hits, 0);
  EXPECT_GT(stats.descents, descents_after_first);
}

// With memo_capacity = 2, a third distinct subproblem evicts the coldest
// entry: repeats of the two newer ones hit, a repeat of the evicted one
// descends again (and, being deterministic, still matches bitwise).
TEST(SolveCoalescerTest, MemoEvictsTheColdestEntryPastCapacity) {
  const MooProblem problem = ConvexProblem();
  SolveCoalescerConfig cc;
  cc.mogd = FastMogd();
  cc.memo_capacity = 2;
  SolveCoalescer coalescer(cc);
  const std::vector<CoProblem> ladder = ProbeLadder(3);
  auto solve = [&](int i) {
    return coalescer.SolveBatch(problem, {ladder[i]}, nullptr, StopToken())[0];
  };

  std::vector<std::optional<CoResult>> first;
  for (int i = 0; i < 3; ++i) first.push_back(solve(i));
  EXPECT_EQ(coalescer.stats().descents, 3);

  ExpectBitwiseEqual(solve(1), first[1], 1);
  ExpectBitwiseEqual(solve(2), first[2], 2);
  EXPECT_EQ(coalescer.stats().memo_hits, 2);
  EXPECT_EQ(coalescer.stats().descents, 3);

  ExpectBitwiseEqual(solve(0), first[0], 0);
  EXPECT_EQ(coalescer.stats().memo_hits, 2);
  EXPECT_EQ(coalescer.stats().descents, 4);
}

// Memo keys carry an interned id of the space's structure, not its address
// alone: a structurally different space rebuilt at a recycled address never
// shares an entry with the old one. std::optional stores its value inline,
// so re-emplacing reuses the exact same address deterministically. The
// models work in the encoded space, so only the decoded `raw` knobs would
// betray a stale hit; the new space stretches u0's range to tell them apart.
TEST(SolveCoalescerTest, RecycledSpaceAddressWithDifferentStructureMisses) {
  const MooProblem convex = ConvexProblem();
  const std::vector<ObjectiveSpec> objectives = {convex.objective(0),
                                                 convex.objective(1)};
  SolveCoalescerConfig cc;
  cc.mogd = FastMogd();
  SolveCoalescer coalescer(cc);
  const std::vector<CoProblem> problems = ProbeLadder(3);

  std::optional<ParamSpace> space;
  space.emplace(std::vector<ParamSpec>{
      {"u0", ParamType::kContinuous, 0.0, 1.0, {}, 0.5},
      {"u1", ParamType::kContinuous, 0.0, 1.0, {}, 0.5},
  });
  const ParamSpace* address = &*space;
  const auto before = coalescer.SolveBatch(MooProblem(&*space, objectives),
                                           problems, nullptr, StopToken());

  space.emplace(std::vector<ParamSpec>{
      {"u0", ParamType::kContinuous, 0.0, 2.0, {}, 0.5},
      {"u1", ParamType::kContinuous, 0.0, 1.0, {}, 0.5},
  });
  ASSERT_EQ(&*space, address);  // the address really was recycled
  const MooProblem rebuilt(&*space, objectives);
  const auto after =
      coalescer.SolveBatch(rebuilt, problems, nullptr, StopToken());

  const SolveCoalescer::Stats stats = coalescer.stats();
  EXPECT_EQ(stats.memo_hits, 0);
  EXPECT_EQ(stats.descents, 2 * static_cast<long long>(problems.size()));
  const auto reference = MogdSolver(cc.mogd).SolveBatch(rebuilt, problems);
  bool raw_moved = false;
  for (size_t i = 0; i < problems.size(); ++i) {
    ExpectBitwiseEqual(after[i], reference[i], static_cast<int>(i));
    if (after[i].has_value() && before[i].has_value()) {
      raw_moved = raw_moved || after[i]->raw != before[i]->raw;
    }
  }
  EXPECT_TRUE(raw_moved);  // a stale hit would have been observable
}

// Deadline-armed submissions bypass dedup and memo entirely: their anytime
// truncation semantics must stay exactly solo, so identical repeats under a
// deadline never share bits with anyone.
TEST(SolveCoalescerTest, DeadlineArmedSubmissionsBypassDedupAndMemo) {
  const MooProblem problem = ConvexProblem();
  SolveCoalescerConfig cc;
  cc.mogd = FastMogd();
  SolveCoalescer coalescer(cc);
  const std::vector<CoProblem> problems = ProbeLadder(2);
  const StopToken armed(Deadline::AfterMs(3600e3));  // far future: never fires

  (void)coalescer.SolveBatch(problem, problems, nullptr, armed);
  (void)coalescer.SolveBatch(problem, problems, nullptr, armed);

  const SolveCoalescer::Stats stats = coalescer.stats();
  EXPECT_EQ(stats.dedup_hits, 0);
  EXPECT_EQ(stats.memo_hits, 0);
}

// SolveBatch descends on the calling thread and on whichever pool workers
// join it. A helper that starts after every unit is taken returns without
// touching the call's state, so a coalescer destroyed while its helpers are
// still queued behind a busy worker leaves nothing for them to touch
// (ASan reports a use-after-free otherwise).
TEST(SolveCoalescerTest, DestroyedWhileLateHelpersAreQueued) {
  ThreadPool pool(1);
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  pool.Submit([gate] { gate.wait(); });  // the lone worker stays busy
  {
    const MooProblem problem = ConvexProblem();
    SolveCoalescerConfig cc;
    cc.mogd = FastMogd();
    cc.mogd.pool = &pool;
    SolveCoalescer coalescer(cc);
    const std::vector<CoProblem> problems = ProbeLadder(4);
    const auto results =
        coalescer.SolveBatch(problem, problems, nullptr, StopToken());
    const auto reference = MogdSolver(FastMogd()).SolveBatch(problem, problems);
    for (size_t i = 0; i < problems.size(); ++i) {
      ExpectBitwiseEqual(results[i], reference[i], static_cast<int>(i));
    }
    EXPECT_EQ(coalescer.stats().descents, 4);
  }
  release.set_value();  // the queued helper runs now, before ~ThreadPool
}

void ExpectBitwiseEqual(const CoResult& a, const CoResult& b) {
  EXPECT_EQ(a.x, b.x);
  EXPECT_EQ(a.raw, b.raw);
  EXPECT_EQ(a.objectives, b.objectives);
  EXPECT_EQ(a.target_value, b.target_value);
}

// Two identical Minimize calls that provably overlap collapse to one
// descent. The gate: each thread bumps `entered` before calling, and the
// target objective's model spins until both have, so the representative
// cannot finish before the second call is issued -- the second is then
// served either by joining the in-flight solve (dedup) or, if it lost the
// race to the representative's completion, by the memo. Never by a second
// descent.
TEST(SolveCoalescerTest, ConcurrentIdenticalMinimizesShareOneDescent) {
  std::atomic<int> entered{0};
  auto f1 = std::make_shared<CallableModel>(
      "g1", 2, [&entered](const Vector& x) {
        while (entered.load() < 2) std::this_thread::yield();
        return x[0] + x[1];
      });
  auto f2 = std::make_shared<CallableModel>("g2", 2, [](const Vector& x) {
    return (1.0 - x[0]) * (1.0 - x[0]) + x[1];
  });
  const MooProblem problem(&testing_problems::UnitSpace2(),
                           {ObjectiveSpec{"g1", f1}, ObjectiveSpec{"g2", f2}});
  SolveCoalescerConfig cc;
  cc.mogd = FastMogd();
  SolveCoalescer coalescer(cc);

  CoResult ra, rb;
  std::thread ta([&] {
    entered.fetch_add(1);
    ra = coalescer.Minimize(problem, 0, nullptr, StopToken());
  });
  std::thread tb([&] {
    entered.fetch_add(1);
    rb = coalescer.Minimize(problem, 0, nullptr, StopToken());
  });
  ta.join();
  tb.join();

  MogdSolver solo(cc.mogd);
  const CoResult reference = solo.Minimize(problem, 0);
  ExpectBitwiseEqual(ra, reference);
  ExpectBitwiseEqual(rb, reference);

  const SolveCoalescer::Stats stats = coalescer.stats();
  EXPECT_EQ(stats.min_solves, 2);
  EXPECT_EQ(stats.min_dedup_hits + stats.min_memo_hits, 1);
}

// A sequential repeat of the same Minimize is served from the memo:
// no new descent, same bits as a solo MogdSolver::Minimize.
TEST(SolveCoalescerTest, RepeatedMinimizeHitsTheMemo) {
  const MooProblem problem = ConvexProblem();
  SolveCoalescerConfig cc;
  cc.mogd = FastMogd();
  SolveCoalescer coalescer(cc);

  const CoResult first = coalescer.Minimize(problem, 1, nullptr, StopToken());
  const CoResult second = coalescer.Minimize(problem, 1, nullptr, StopToken());
  MogdSolver solo(cc.mogd);
  const CoResult reference = solo.Minimize(problem, 1);
  ExpectBitwiseEqual(first, reference);
  ExpectBitwiseEqual(second, reference);

  const SolveCoalescer::Stats stats = coalescer.stats();
  EXPECT_EQ(stats.min_solves, 2);
  EXPECT_EQ(stats.min_dedup_hits, 0);
  EXPECT_EQ(stats.min_memo_hits, 1);
}

// Deadline-armed Minimize calls stay exactly solo: no registration, no
// memo -- the same anytime opt-out SolveBatch's dedup applies.
TEST(SolveCoalescerTest, DeadlineArmedMinimizeBypassesDedupAndMemo) {
  const MooProblem problem = ConvexProblem();
  SolveCoalescerConfig cc;
  cc.mogd = FastMogd();
  SolveCoalescer coalescer(cc);
  const StopToken armed(Deadline::AfterMs(3600e3));  // far future: never fires

  (void)coalescer.Minimize(problem, 0, nullptr, armed);
  (void)coalescer.Minimize(problem, 0, nullptr, armed);

  const SolveCoalescer::Stats stats = coalescer.stats();
  EXPECT_EQ(stats.min_solves, 0);
  EXPECT_EQ(stats.min_dedup_hits, 0);
  EXPECT_EQ(stats.min_memo_hits, 0);
}

// PF's Initialize now routes its per-objective reference-point solves
// through the CoBatchSolver: the coalescer sees one Minimize per objective,
// and the frontier stays bitwise-identical to the unrouted run.
TEST(SolveCoalescerTest, PfInitializeRoutesMinimizeThroughCoalescer) {
  const MooProblem problem = ConvexProblem();
  PfConfig base;
  base.mogd = FastMogd();
  ProgressiveFrontier solo_pf(&problem, base);
  const PfResult solo = solo_pf.Run(6);

  SolveCoalescerConfig cc;
  cc.mogd = base.mogd;
  SolveCoalescer coalescer(cc);
  PfConfig routed = base;
  routed.co_solver = &coalescer;
  ProgressiveFrontier routed_pf(&problem, routed);
  const PfResult result = routed_pf.Run(6);

  ASSERT_EQ(result.frontier.size(), solo.frontier.size());
  for (size_t i = 0; i < result.frontier.size(); ++i) {
    EXPECT_EQ(result.frontier[i].objectives, solo.frontier[i].objectives);
    EXPECT_EQ(result.frontier[i].conf_encoded, solo.frontier[i].conf_encoded);
  }
  EXPECT_EQ(result.utopia, solo.utopia);
  EXPECT_EQ(result.nadir, solo.nadir);
  EXPECT_EQ(coalescer.stats().min_solves, 2);  // one per objective
}

// ------------------------------------------------------------ serving layer

UdaoServiceConfig FastServiceConfig() {
  UdaoServiceConfig config;
  config.udao.pf.mogd.multistart = 4;
  config.udao.pf.mogd.max_iters = 40;
  config.udao.solver_threads = 2;
  config.udao.frontier_points = 8;
  config.admission_threads = 2;
  return config;
}

UdaoRequest ConvexRequest() {
  static const MooProblem& problem = *new MooProblem(ConvexProblem());
  UdaoRequest request;
  request.workload_id = "w";
  request.space = &UnitSpace2();
  request.objectives = {problem.objective(0), problem.objective(1)};
  return request;
}

// Submit/Wait is the synchronous path now; the ticket must deliver the same
// result repeatedly (Wait idempotence) and expose it to TryGet once done.
TEST(RequestTicketTest, SubmitWaitAndTryGetDeliverTheResult) {
  ModelServer server;
  UdaoService service(&server, FastServiceConfig());

  RequestTicket ticket = service.Submit(ConvexRequest());
  ASSERT_TRUE(ticket.Valid());
  const auto first = ticket.Wait();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(first->frontier.frontier.empty());

  // Idempotent: a second Wait and a TryGet see the same delivered result.
  const auto again = ticket.Wait();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(first->conf_encoded, again->conf_encoded);
  const auto polled = ticket.TryGet();
  ASSERT_TRUE(polled.has_value());
  ASSERT_TRUE(polled->ok());
  EXPECT_EQ(first->conf_encoded, (*polled)->conf_encoded);

  EXPECT_FALSE(RequestTicket().Valid());
}

// Ticket cancellation composes with queue-deadline enforcement: a request
// cancelled while still queued is never solved and resolves to an explicit
// DeadlineExceeded, not a hang and not a silent drop.
TEST(RequestTicketTest, CancelWhileQueuedResolvesExplicitly) {
  ModelServer server;
  UdaoServiceConfig config = FastServiceConfig();
  config.admission_threads = 1;  // one worker, deliberately busy below
  UdaoService service(&server, config);

  FaultInjector::Global().Reset();
  FaultInjector::Global().DelayNext("pf.probe", 60.0, 1);
  RequestTicket blocker = service.Submit(ConvexRequest());

  UdaoRequest queued = ConvexRequest();
  queued.objectives[0].upper = 0.9;  // distinct key: cannot ride the cache
  RequestTicket ticket = service.Submit(queued);
  EXPECT_FALSE(ticket.TryGet().has_value());  // still queued behind blocker
  ticket.Cancel();

  const auto result = ticket.Wait();
  FaultInjector::Global().Reset();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(blocker.Wait().ok());
}

// Shard routing is a pure function of the workload id, and the per-shard
// stats split carries exactly the traffic routed there (aggregate view stays
// schema-compatible with the pre-sharding counters).
TEST(UdaoServiceShardingTest, ShardRoutingIsStableAndStatsSplitPerShard) {
  ModelServer server;
  UdaoService service(&server, FastServiceConfig());

  const int shard = service.ShardOf("w");
  for (int i = 0; i < 8; ++i) EXPECT_EQ(service.ShardOf("w"), shard);
  ASSERT_GE(shard, 0);
  ASSERT_LT(shard, service.config().cache_shards);

  ASSERT_TRUE(service.Submit(ConvexRequest()).Wait().ok());  // miss
  ASSERT_TRUE(service.Submit(ConvexRequest()).Wait().ok());  // hit

  const UdaoServiceStats s = service.stats();
  ASSERT_EQ(static_cast<int>(s.shards.size()), service.config().cache_shards);
  EXPECT_EQ(s.shards[shard].cache_misses, 1);
  EXPECT_EQ(s.shards[shard].cache_hits, 1);
  EXPECT_EQ(s.cache_misses, 1);
  EXPECT_EQ(s.cache_hits, 1);
  for (int i = 0; i < static_cast<int>(s.shards.size()); ++i) {
    if (i == shard) continue;
    EXPECT_EQ(s.shards[i].cache_hits + s.shards[i].cache_misses, 0)
        << "traffic leaked into shard " << i;
  }
}

// Coalesced serving must stay bitwise-identical to the coalescing-off
// service AND the plain optimizer -- the tentpole determinism guarantee at
// the API boundary, under genuinely concurrent submissions.
TEST(UdaoServiceCoalescingTest, ConcurrentSubmissionsMatchSoloBitwise) {
  ModelServer server;
  Udao direct(&server, FastServiceConfig().udao);

  UdaoServiceConfig off = FastServiceConfig();
  off.coalesce_solves = false;
  off.frontier_cache_capacity = 0;  // force every request to really solve
  UdaoServiceConfig on = FastServiceConfig();
  on.coalesce_solves = true;
  on.frontier_cache_capacity = 0;
  on.admission_threads = 4;

  constexpr int kVariants = 6;
  auto variant = [](int i) {
    UdaoRequest request = ConvexRequest();
    request.objectives[0].upper = 1.6 - 0.1 * i;  // distinct cache keys
    return request;
  };

  std::vector<StatusOr<UdaoRecommendation>> baseline;
  for (int i = 0; i < kVariants; ++i) {
    baseline.push_back(direct.Optimize(variant(i)));
    ASSERT_TRUE(baseline.back().ok()) << baseline.back().status().ToString();
  }

  for (const UdaoServiceConfig& cfg : {off, on}) {
    UdaoService service(&server, cfg);
    std::vector<RequestTicket> tickets(kVariants);
    for (int i = 0; i < kVariants; ++i) {
      tickets[i] = service.Submit(variant(i));
    }
    for (int i = 0; i < kVariants; ++i) {
      const auto got = tickets[i].Wait();
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(got->conf_encoded, baseline[i]->conf_encoded) << i;
      EXPECT_EQ(got->predicted_objectives, baseline[i]->predicted_objectives)
          << i;
      ASSERT_EQ(got->frontier.frontier.size(),
                baseline[i]->frontier.frontier.size())
          << i;
      for (size_t p = 0; p < got->frontier.frontier.size(); ++p) {
        EXPECT_EQ(got->frontier.frontier[p].conf_encoded,
                  baseline[i]->frontier.frontier[p].conf_encoded)
            << i << "/" << p;
        EXPECT_EQ(got->frontier.frontier[p].objectives,
                  baseline[i]->frontier.frontier[p].objectives)
            << i << "/" << p;
      }
    }
  }
}

// Stage-level refinement (kStage) must not depend on coalesce_solves either:
// with it off the per-stage solves run on the service's own HierarchicalMoo
// solver, with it on they go through the coalescer, and both must descend
// with the same MogdConfig to return the same per-stage knobs.
TEST(UdaoServiceCoalescingTest, StageRefinementMatchesWithCoalescingOnAndOff) {
  const SparkEngine engine;
  const BatchWorkload job = MakeTpcxbbWorkload(1);
  UdaoRequest request;
  request.workload_id = job.id;
  request.space = &BatchParamSpace();
  request.flow = &job.flow;
  request.objectives = {
      ObjectiveSpec{"lat", MakeAnalyticBatchLatencyModel(AnalyticWorkload{})},
      ObjectiveSpec{"cost", MakeCostCoresModel()}};
  request.preference_weights = {0.9, 0.1};
  request.options.adaptive.granularity = AdaptiveGranularity::kStage;
  request.options.adaptive.resolve_budget_ms = 10000.0;  // no deadline binds

  ModelServer server;
  std::vector<UdaoRecommendation> recs;
  for (const bool coalesce : {true, false}) {
    UdaoServiceConfig config;
    config.engine = &engine;
    config.coalesce_solves = coalesce;
    UdaoService service(&server, config);
    auto rec = service.Submit(request).Wait();
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
    ASSERT_FALSE(rec->stage_overlay.empty()) << "coalesce=" << coalesce;
    recs.push_back(std::move(*rec));
  }
  EXPECT_EQ(recs[0].conf_raw, recs[1].conf_raw);
  EXPECT_EQ(recs[0].stage_overlay.overrides, recs[1].stage_overlay.overrides);
  EXPECT_EQ(recs[0].stage_confs, recs[1].stage_confs);
}

// One batched request's model resolution failing must not poison its
// concurrent batchmate: exactly the faulted request errors, the other
// completes with a full frontier.
TEST(UdaoServiceCoalescingTest, ModelFaultHitsOnlyTheFaultedRequest) {
  ModelServerConfig cfg;
  cfg.kind = ModelKind::kGp;
  cfg.gp.hyper_opt_steps = 5;
  ModelServer server(cfg);
  Rng rng(5);
  for (int i = 0; i < 24; ++i) {
    const Vector x = {rng.Uniform(), rng.Uniform()};
    server.Ingest("wa", "lat", x, 1.0 + x[0] + x[1]);
    server.Ingest("wb", "lat", x, 2.0 + x[0] - 0.5 * x[1]);
  }

  UdaoServiceConfig config = FastServiceConfig();
  config.frontier_cache_capacity = 0;
  UdaoService service(&server, config);

  auto request_for = [](const std::string& workload) {
    UdaoRequest request = ConvexRequest();
    request.workload_id = workload;
    request.objectives[0] = ObjectiveSpec{.name = "lat"};  // server-resolved
    return request;
  };
  // Warm both models so the faulted run below fails at resolve, not train.
  ASSERT_TRUE(service.Submit(request_for("wa")).Wait().ok());
  ASSERT_TRUE(service.Submit(request_for("wb")).Wait().ok());

  FaultInjector::Global().Reset();
  FaultInjector::Global().FailNext("model_server.get_model",
                                   Status::Unavailable("injected"), 1);
  RequestTicket ta = service.Submit(request_for("wa"));
  RequestTicket tb = service.Submit(request_for("wb"));
  const auto ra = ta.Wait();
  const auto rb = tb.Wait();
  FaultInjector::Global().Reset();

  // Exactly one request absorbed the injected fault (whichever resolved
  // first); its batchmate is untouched.
  const int failures = (ra.ok() ? 0 : 1) + (rb.ok() ? 0 : 1);
  EXPECT_EQ(failures, 1);
  const auto& survivor = ra.ok() ? ra : rb;
  EXPECT_FALSE(survivor->frontier.frontier.empty());
  const auto& victim = ra.ok() ? rb : ra;
  EXPECT_EQ(victim.status().code(), StatusCode::kUnavailable);
}

}  // namespace
}  // namespace udao
