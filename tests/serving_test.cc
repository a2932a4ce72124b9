// UdaoService: the serving layer's frontier cache must be invisible in the
// results (a cache hit returns bitwise what a cold solve returns), visible
// in the counters (hits / misses / invalidations), and safely invalidated
// by model-server generation bumps (an Ingest that makes a served model due
// for a retrain or fine-tune).
#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <thread>
#include <vector>

#include "common/fault_injector.h"
#include "common/random.h"
#include "model/analytic_models.h"
#include "serving/udao_service.h"
#include "spark/engine.h"
#include "test_problems.h"
#include "workload/tpcxbb.h"

namespace udao {
namespace {

using testing_problems::UnitSpace2;

SolverOptions FastOptions() {
  SolverOptions options;
  options.pf.mogd.multistart = 4;
  options.pf.mogd.max_iters = 40;
  options.solver_threads = 2;
  options.frontier_points = 8;
  return options;
}

UdaoServiceConfig FastServiceConfig() {
  UdaoServiceConfig config;
  config.udao = FastOptions();
  config.admission_threads = 2;
  return config;
}

// The ConvexProblem objectives as a request (explicit models, so the model
// server is only consulted for its generation counter).
UdaoRequest ConvexRequest() {
  static const MooProblem& problem =
      *new MooProblem(testing_problems::ConvexProblem());
  UdaoRequest request;
  request.workload_id = "w";
  request.space = &UnitSpace2();
  request.objectives = {problem.objective(0), problem.objective(1)};
  return request;
}

void ExpectBitwiseEqual(const UdaoRecommendation& a,
                        const UdaoRecommendation& b) {
  ASSERT_EQ(a.frontier.frontier.size(), b.frontier.frontier.size());
  for (size_t i = 0; i < a.frontier.frontier.size(); ++i) {
    EXPECT_EQ(a.frontier.frontier[i].conf_encoded,
              b.frontier.frontier[i].conf_encoded)
        << "frontier point " << i;
    EXPECT_EQ(a.frontier.frontier[i].objectives,
              b.frontier.frontier[i].objectives)
        << "frontier point " << i;
  }
  EXPECT_EQ(a.frontier.utopia, b.frontier.utopia);
  EXPECT_EQ(a.frontier.nadir, b.frontier.nadir);
  EXPECT_EQ(a.conf_encoded, b.conf_encoded);
  EXPECT_EQ(a.conf_raw, b.conf_raw);
  EXPECT_EQ(a.predicted_objectives, b.predicted_objectives);
  EXPECT_EQ(a.weights_used, b.weights_used);
}

TEST(UdaoServiceTest, CacheHitIsBitwiseIdenticalToColdSolve) {
  ModelServer server;
  // Ground truth: the plain optimizer, no cache anywhere.
  Udao direct(&server, FastOptions());
  auto baseline = direct.Optimize(ConvexRequest());
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  UdaoService service(&server, FastServiceConfig());
  auto cold = service.Submit(ConvexRequest()).Wait();
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  auto warm = service.Submit(ConvexRequest()).Wait();
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();

  ExpectBitwiseEqual(*baseline, *cold);
  ExpectBitwiseEqual(*cold, *warm);

  const UdaoServiceStats s = service.stats();
  EXPECT_EQ(s.requests, 2);
  EXPECT_EQ(s.cache_misses, 1);
  EXPECT_EQ(s.cache_hits, 1);
  EXPECT_EQ(s.invalidations, 0);
  EXPECT_EQ(s.errors, 0);
  EXPECT_EQ(service.CacheSize(), 1);
}

TEST(UdaoServiceTest, WeightAndPolicyOnlyVariationsShareOneFrontier) {
  ModelServer server;
  Udao direct(&server, FastOptions());
  UdaoService service(&server, FastServiceConfig());

  // Prime the cache.
  ASSERT_TRUE(service.Submit(ConvexRequest()).Wait().ok());

  // Different preference weights: served from the cached frontier, yet
  // bitwise identical to what a cold optimizer computes for those weights.
  UdaoRequest weighted = ConvexRequest();
  weighted.preference_weights = {0.9, 0.1};
  auto from_cache = service.Submit(weighted).Wait();
  ASSERT_TRUE(from_cache.ok()) << from_cache.status().ToString();
  auto from_cold = direct.Optimize(weighted);
  ASSERT_TRUE(from_cold.ok());
  ExpectBitwiseEqual(*from_cold, *from_cache);

  // Different recommendation policy: also weight-only as far as step 2 is
  // concerned.
  UdaoRequest knee = ConvexRequest();
  knee.options.policy = RecommendPolicy::kKnee;
  auto knee_cached = service.Submit(knee).Wait();
  ASSERT_TRUE(knee_cached.ok());
  auto knee_cold = direct.Optimize(knee);
  ASSERT_TRUE(knee_cold.ok());
  ExpectBitwiseEqual(*knee_cold, *knee_cached);

  const UdaoServiceStats s = service.stats();
  EXPECT_EQ(s.requests, 3);
  EXPECT_EQ(s.cache_misses, 1);
  EXPECT_EQ(s.cache_hits, 2);
}

TEST(UdaoServiceTest, ConstraintChangesMissTheCache) {
  ModelServer server;
  UdaoService service(&server, FastServiceConfig());
  ASSERT_TRUE(service.Submit(ConvexRequest()).Wait().ok());

  // A different value constraint changes what PF computes: new key.
  UdaoRequest constrained = ConvexRequest();
  constrained.objectives[0].upper = 0.8;
  ASSERT_TRUE(service.Submit(constrained).Wait().ok());

  const UdaoServiceStats s = service.stats();
  EXPECT_EQ(s.cache_misses, 2);
  EXPECT_EQ(s.cache_hits, 0);
  EXPECT_EQ(service.CacheSize(), 2);
}

TEST(UdaoServiceTest, ModelChangeInvalidatesCachedFrontier) {
  // Workload "w" has a served model, so traces that make it due for a
  // fine-tune move the workload's generation.
  ModelServerConfig cfg;
  cfg.kind = ModelKind::kGp;
  cfg.gp.hyper_opt_steps = 5;
  ModelServer server(cfg);
  Rng rng(5);
  auto ingest = [&server, &rng] {
    const Vector x = {rng.Uniform(), rng.Uniform()};
    ASSERT_TRUE(server.Ingest("w", "lat", x, 1.0 + x[0] + x[1]).ok());
  };
  for (int i = 0; i < 24; ++i) ingest();
  ASSERT_TRUE(server.GetModel("w", "lat").ok());

  UdaoService service(&server, FastServiceConfig());
  UdaoRequest other = ConvexRequest();
  other.workload_id = "v";
  ASSERT_TRUE(service.Submit(ConvexRequest()).Wait().ok());
  ASSERT_TRUE(service.Submit(ConvexRequest()).Wait().ok());
  ASSERT_TRUE(service.Submit(other).Wait().ok());
  EXPECT_EQ(service.stats().cache_hits, 1);

  // The served model becomes due: the workload's generation moves, so the
  // cached frontier may rest on out-of-date models and must not be served.
  for (int i = 0; i < cfg.finetune_threshold; ++i) ingest();
  ASSERT_TRUE(service.Submit(ConvexRequest()).Wait().ok());
  UdaoServiceStats s = service.stats();
  EXPECT_EQ(s.invalidations, 1);
  EXPECT_EQ(s.cache_misses, 3);

  // Generation is per-workload: other workloads' entries are untouched, and
  // the recomputed entry serves hits again.
  ASSERT_TRUE(service.Submit(other).Wait().ok());
  ASSERT_TRUE(service.Submit(ConvexRequest()).Wait().ok());
  s = service.stats();
  EXPECT_EQ(s.cache_hits, 3);
  EXPECT_EQ(s.invalidations, 1);
}

TEST(UdaoServiceTest, LazyFirstTrainCausesNoSpuriousRecompute) {
  // Server-resolved models: the first request's resolve triggers the initial
  // (lazy) train. A first train replaces no served model, so it leaves the
  // generation alone and every later request hits.
  ModelServerConfig cfg;
  cfg.kind = ModelKind::kGp;
  cfg.gp.hyper_opt_steps = 5;
  ModelServer server(cfg);
  Rng rng(5);
  for (int i = 0; i < 24; ++i) {
    const Vector x = {rng.Uniform(), rng.Uniform()};
    server.Ingest("w", "lat", x, 1.0 + x[0] + x[1]);
  }

  UdaoService service(&server, FastServiceConfig());
  UdaoRequest request = ConvexRequest();
  request.objectives[0] = ObjectiveSpec{.name = "lat"};  // server-resolved

  ASSERT_TRUE(service.Submit(request).Wait().ok());  // miss; resolve trains
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(service.Submit(request).Wait().ok());  // hit
  }

  const UdaoServiceStats s = service.stats();
  EXPECT_EQ(s.cache_misses, 1);
  EXPECT_EQ(s.invalidations, 0);
  EXPECT_EQ(s.cache_hits, 3);
  EXPECT_EQ(s.errors, 0);
}

// Traces below the fine-tune threshold change no served model, so the
// cached frontier keeps answering, and answers exactly what a fresh solve
// would. The crossing trace invalidates it, and the recompute answers
// exactly what a fresh solve on the fine-tuned model would.
TEST(UdaoServiceTest, HitsEqualFreshSolvesUntilServedModelIsDue) {
  ModelServerConfig cfg;
  cfg.kind = ModelKind::kDnn;
  cfg.dnn.hidden = {8};
  cfg.dnn.train.epochs = 30;
  cfg.finetune_epochs = 10;
  ModelServer server(cfg);
  Rng rng(11);
  auto ingest = [&server, &rng] {
    const Vector x = {rng.Uniform(), rng.Uniform()};
    ASSERT_TRUE(server.Ingest("w", "lat", x, 1.0 + x[0] + x[1]).ok());
  };
  for (int i = 0; i < 24; ++i) ingest();

  UdaoService service(&server, FastServiceConfig());
  UdaoRequest request = ConvexRequest();
  request.objectives[0] = ObjectiveSpec{.name = "lat"};  // server-resolved
  ASSERT_TRUE(service.Submit(request).Wait().ok());  // miss; resolve trains

  for (int i = 0; i < cfg.finetune_threshold - 1; ++i) ingest();
  auto hit = service.Submit(request).Wait();
  ASSERT_TRUE(hit.ok()) << hit.status().ToString();
  UdaoServiceStats s = service.stats();
  EXPECT_EQ(s.cache_hits, 1);
  EXPECT_EQ(s.cache_misses, 1);
  EXPECT_EQ(s.invalidations, 0);
  {
    UdaoService fresh(&server, FastServiceConfig());
    auto expected = fresh.Submit(request).Wait();
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    ExpectBitwiseEqual(*hit, *expected);
  }

  ingest();  // crosses finetune_threshold: the served model is due
  auto recomputed = service.Submit(request).Wait();
  ASSERT_TRUE(recomputed.ok()) << recomputed.status().ToString();
  s = service.stats();
  EXPECT_EQ(s.cache_hits, 1);
  EXPECT_EQ(s.cache_misses, 2);
  EXPECT_EQ(s.invalidations, 1);
  UdaoService fresh(&server, FastServiceConfig());
  auto expected = fresh.Submit(request).Wait();
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  ExpectBitwiseEqual(*recomputed, *expected);
}

TEST(UdaoServiceTest, LruEvictsLeastRecentlyUsedFrontier) {
  ModelServer server;
  UdaoServiceConfig config = FastServiceConfig();
  config.frontier_cache_capacity = 1;
  UdaoService service(&server, config);

  UdaoRequest a = ConvexRequest();
  UdaoRequest b = ConvexRequest();
  b.objectives[0].upper = 0.8;

  ASSERT_TRUE(service.Submit(a).Wait().ok());  // miss, cached
  ASSERT_TRUE(service.Submit(b).Wait().ok());  // miss, evicts a
  EXPECT_EQ(service.CacheSize(), 1);
  ASSERT_TRUE(service.Submit(b).Wait().ok());  // hit
  ASSERT_TRUE(service.Submit(a).Wait().ok());  // miss again (was evicted)

  const UdaoServiceStats s = service.stats();
  EXPECT_EQ(s.cache_misses, 3);
  EXPECT_EQ(s.cache_hits, 1);
  EXPECT_GE(s.evictions, 2);
}

// At capacity 1 recency cannot matter; with two entries per shard a hit must
// refresh its entry so the next eviction takes the other one.
TEST(UdaoServiceTest, CacheHitRefreshesRecencyForEviction) {
  ModelServer server;
  UdaoServiceConfig config = FastServiceConfig();
  config.frontier_cache_capacity = 2 * config.cache_shards;
  UdaoService service(&server, config);

  // One workload id, so every key routes to the same shard.
  UdaoRequest a = ConvexRequest();
  UdaoRequest b = ConvexRequest();
  b.objectives[0].upper = 0.8;
  UdaoRequest c = ConvexRequest();
  c.objectives[0].upper = 0.7;

  ASSERT_TRUE(service.Submit(a).Wait().ok());  // miss
  ASSERT_TRUE(service.Submit(b).Wait().ok());  // miss
  ASSERT_TRUE(service.Submit(a).Wait().ok());  // hit: a is now newer than b
  ASSERT_TRUE(service.Submit(c).Wait().ok());  // miss, evicts b (not a)
  ASSERT_TRUE(service.Submit(a).Wait().ok());  // hit
  ASSERT_TRUE(service.Submit(b).Wait().ok());  // miss (was evicted)

  const UdaoServiceStats s = service.stats();
  EXPECT_EQ(s.cache_hits, 2);
  EXPECT_EQ(s.cache_misses, 4);
  EXPECT_EQ(s.evictions, 2);
  EXPECT_EQ(service.CacheSize(), 2);
}

TEST(UdaoServiceTest, InvalidRequestsAreCountedAsErrors) {
  ModelServer server;
  UdaoService service(&server, FastServiceConfig());
  UdaoRequest bad;  // no space, no objectives
  auto rec = service.Submit(bad).Wait();
  EXPECT_FALSE(rec.ok());
  EXPECT_EQ(rec.status().code(), StatusCode::kInvalidArgument);
  const UdaoServiceStats s = service.stats();
  EXPECT_EQ(s.requests, 1);
  EXPECT_EQ(s.errors, 1);
  EXPECT_EQ(service.CacheSize(), 0);
}

TEST(UdaoServiceTest, RecycledSpaceAddressWithDifferentStructureMisses) {
  // The lifetime contract says spaces outlive the service, but a caller that
  // breaks it by destroying a space and building a different one at the
  // recycled address must get a cache miss, never the old space's frontier.
  // std::optional stores its value inline, so re-emplacing reuses the exact
  // same address deterministically.
  ModelServer server;
  UdaoService service(&server, FastServiceConfig());

  std::optional<ParamSpace> space;
  space.emplace(std::vector<ParamSpec>{
      {"u0", ParamType::kContinuous, 0.0, 1.0, {}, 0.5},
      {"u1", ParamType::kContinuous, 0.0, 1.0, {}, 0.5},
  });
  UdaoRequest request = ConvexRequest();
  request.space = &*space;

  ASSERT_TRUE(service.Submit(request).Wait().ok());  // miss, cached
  ASSERT_TRUE(service.Submit(request).Wait().ok());  // hit (same space)

  // Same address, different knob bounds: structurally a different space.
  space.emplace(std::vector<ParamSpec>{
      {"u0", ParamType::kContinuous, 0.0, 2.0, {}, 0.5},
      {"u1", ParamType::kContinuous, 0.0, 1.0, {}, 0.5},
  });
  ASSERT_EQ(request.space, &*space);  // address really was recycled
  ASSERT_TRUE(service.Submit(request).Wait().ok());

  const UdaoServiceStats s = service.stats();
  EXPECT_EQ(s.cache_misses, 2);
  EXPECT_EQ(s.cache_hits, 1);
}

TEST(UdaoServiceTest, DestructorDrainsInflightRequests) {
  // Every request admitted before destruction must complete (and its ticket
  // resolve) before the destructor returns: the admission pool is the
  // last-destroyed member, so draining tasks still see a live cache/mutex.
  ModelServer server;
  constexpr int kRequests = 16;
  std::vector<RequestTicket> tickets;
  tickets.reserve(kRequests);
  {
    UdaoService service(&server, FastServiceConfig());
    for (int i = 0; i < kRequests; ++i) {
      UdaoRequest request = ConvexRequest();
      const double w = 0.1 + 0.05 * i;  // distinct weights, shared frontier
      request.preference_weights = {w, 1.0 - w};
      tickets.push_back(service.Submit(request));
    }
  }  // destructor runs with most requests still queued
  int ok = 0;
  for (RequestTicket& ticket : tickets) {
    ASSERT_TRUE(ticket.TryGet().has_value());  // drain already delivered
    if (ticket.Wait().ok()) ++ok;
  }
  EXPECT_EQ(ok, kRequests);
}

TEST(UdaoServiceTest, ModelFailureUnderStalePolicyServesCachedFrontier) {
  // Server-resolved models, so the "model_server.get_model" fault site sits
  // on this request's resolve path.
  ModelServerConfig cfg;
  cfg.kind = ModelKind::kGp;
  cfg.gp.hyper_opt_steps = 5;
  ModelServer server(cfg);
  Rng rng(5);
  for (int i = 0; i < 24; ++i) {
    const Vector x = {rng.Uniform(), rng.Uniform()};
    server.Ingest("w", "lat", x, 1.0 + x[0] + x[1]);
  }

  UdaoServiceConfig config = FastServiceConfig();
  config.shed_policy = ShedPolicy::kServeStaleCache;
  UdaoService service(&server, config);
  UdaoRequest request = ConvexRequest();
  request.objectives[0] = ObjectiveSpec{.name = "lat"};  // server-resolved

  ASSERT_TRUE(service.Submit(request).Wait().ok());  // miss; resolve trains
  ASSERT_TRUE(service.Submit(request).Wait().ok());  // hit; cache is current

  // New traces make the served model due, which bumps the generation, and
  // the model server faults before the forced recompute can resolve its
  // objectives. The stale policy falls back to the previous-generation
  // frontier, explicitly tagged degraded, instead of failing the request.
  for (int i = 0; i < cfg.finetune_threshold; ++i) {
    const Vector x = {rng.Uniform(), rng.Uniform()};
    ASSERT_TRUE(server.Ingest("w", "lat", x, 1.0 + x[0] + x[1]).ok());
  }
  FaultInjector::Global().Reset();
  FaultInjector::Global().FailNext("model_server.get_model",
                                   Status::Unavailable("injected"), 1);
  auto stale = service.Submit(request).Wait();
  FaultInjector::Global().Reset();
  ASSERT_TRUE(stale.ok()) << stale.status().ToString();
  EXPECT_TRUE(stale->degraded);
  EXPECT_FALSE(stale->frontier.frontier.empty());

  const UdaoServiceStats s = service.stats();
  EXPECT_EQ(s.degraded, 1);
  EXPECT_EQ(s.errors, 0);

  // With the fault gone, the next request recomputes against the new
  // generation and serves a normal (non-degraded) result again.
  auto recovered = service.Submit(request).Wait();
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_FALSE(recovered->degraded);
}

TEST(UdaoServiceTest, QueueWaitTimeIsSurfacedInMetadata) {
  ModelServer server;
  UdaoServiceConfig config = FastServiceConfig();
  config.admission_threads = 1;  // one worker: the second request must queue
  UdaoService service(&server, config);

  // Stall the first request's solve so the second demonstrably waits.
  FaultInjector::Global().Reset();
  FaultInjector::Global().DelayNext("pf.probe", 60.0, 1);
  RequestTicket stalled = service.Submit(ConvexRequest());
  // Distinct key: the waiter cannot ride the first request's cache entry.
  UdaoRequest second = ConvexRequest();
  second.objectives[0].upper = 0.9;
  auto rec = service.Submit(second).Wait();
  FaultInjector::Global().Reset();
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_GT(rec->queue_wait_ms, 5.0);
  EXPECT_FALSE(rec->degraded);
  EXPECT_TRUE(stalled.Wait().ok());
}

TEST(UdaoServiceTest, FullQueueWithRejectPolicyShedsExplicitly) {
  ModelServer server;
  UdaoServiceConfig config = FastServiceConfig();
  config.admission_threads = 1;
  config.max_queue_depth = 1;
  config.shed_policy = ShedPolicy::kReject;
  UdaoService service(&server, config);

  FaultInjector::Global().Reset();
  FaultInjector::Global().DelayNext("pf.probe", 100.0, 1);
  RequestTicket stalled = service.Submit(ConvexRequest());
  // Depth is already 1 (counted at admission), so this request is shed on
  // the caller thread with an explicit error -- it never queues.
  auto shed = service.Submit(ConvexRequest()).Wait();
  EXPECT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kUnavailable);

  const UdaoServiceStats s = service.stats();
  EXPECT_EQ(s.requests, 2);
  EXPECT_EQ(s.sheds, 1);
  EXPECT_EQ(s.errors, 1);

  EXPECT_TRUE(stalled.Wait().ok());
  FaultInjector::Global().Reset();
}

TEST(UdaoServiceTest, FullQueueWithDegradePolicyStillAnswers) {
  ModelServer server;
  UdaoServiceConfig config = FastServiceConfig();
  config.admission_threads = 1;
  config.max_queue_depth = 1;
  config.shed_policy = ShedPolicy::kDegrade;
  config.degraded_budget_ms = 1.0;
  config.frontier_cache_capacity = 0;  // every request really solves
  UdaoService service(&server, config);

  FaultInjector::Global().Reset();
  FaultInjector::Global().DelayNext("pf.probe", 80.0, 1);
  RequestTicket stalled = service.Submit(ConvexRequest());
  // Overflow request is admitted anyway, but its budget is clamped to
  // degraded_budget_ms at dequeue: it must come back quickly as either a
  // valid (possibly truncated) frontier or an explicit deadline error --
  // never be silently rejected, never run unbounded.
  auto rec = service.Submit(ConvexRequest()).Wait();
  FaultInjector::Global().Reset();
  if (rec.ok()) {
    EXPECT_FALSE(rec->frontier.frontier.empty());
  } else {
    EXPECT_EQ(rec.status().code(), StatusCode::kDeadlineExceeded);
  }

  const UdaoServiceStats s = service.stats();
  EXPECT_EQ(s.requests, 2);
  EXPECT_EQ(s.sheds, 1);
  EXPECT_TRUE(stalled.Wait().ok());
}

// ------------------------------------------------------ inline cache hits

// One admission worker, so a stall on it holds every queued request.
UdaoServiceConfig OneWorkerConfig() {
  UdaoServiceConfig config = FastServiceConfig();
  config.admission_threads = 1;
  return config;
}

// Occupies the only admission worker with a miss on another key whose first
// PF probe sleeps `ms`. Callers Reset the fault injector once it has run.
RequestTicket StallWorker(UdaoService* service, double upper, double ms) {
  FaultInjector::Global().Reset();
  FaultInjector::Global().DelayNext("pf.probe", ms, 1);
  UdaoRequest other = ConvexRequest();
  other.objectives[0].upper = upper;
  return service->Submit(other);
}

// A current-generation hit whose ranking is memoized is answered on the
// caller's thread: it is complete when Submit returns although the only
// worker is stalled, it is bitwise what the plain optimizer returns, and it
// is counted exactly as a queued hit.
TEST(UdaoServiceTest, MemoizedHitCompletesInsideSubmit) {
  ModelServer server;
  Udao direct(&server, FastOptions());
  UdaoRequest weighted = ConvexRequest();
  weighted.preference_weights = {0.8, 0.2};
  const auto cold = direct.Optimize(weighted);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();

  UdaoService service(&server, OneWorkerConfig());
  ASSERT_TRUE(service.Submit(ConvexRequest()).Wait().ok());  // miss
  RequestTicket stalled = StallWorker(&service, 0.9, 300.0);
  const auto served = service.Submit(weighted).TryGet();
  ASSERT_TRUE(served.has_value()) << "the hit waited for a worker";
  ASSERT_TRUE(served->ok()) << served->status().ToString();
  ExpectBitwiseEqual(*cold, **served);
  EXPECT_EQ((*served)->queue_wait_ms, 0.0);
  EXPECT_FALSE((*served)->degraded);

  EXPECT_TRUE(stalled.Wait().ok());
  FaultInjector::Global().Reset();
  const UdaoServiceStats s = service.stats();
  EXPECT_EQ(s.requests, 3);
  EXPECT_EQ(s.cache_hits, 1);
  EXPECT_EQ(s.cache_misses, 2);
  EXPECT_EQ(s.errors, 0);
}

// Only memoized hits run inline. Behind a stalled worker, an expired hit, a
// cancelled hit and a densified hit whose variant is not memoized yet all
// wait; once the worker is free each gets the queued path's answer. The
// densified variant is memoized by then, so its repeat is served inline.
TEST(UdaoServiceTest, HitsThatNeedAWorkerStayQueued) {
  ModelServer server;
  UdaoService service(&server, OneWorkerConfig());
  ASSERT_TRUE(service.Submit(ConvexRequest()).Wait().ok());  // miss

  RequestTicket stalled = StallWorker(&service, 0.9, 300.0);
  UdaoRequest expired = ConvexRequest();
  expired.options.deadline = Deadline::AfterMs(0.0);
  RequestTicket t_expired = service.Submit(expired);
  CancellationSource source;
  source.Cancel();
  UdaoRequest cancelled = ConvexRequest();
  cancelled.options.cancel = source.token();
  RequestTicket t_cancelled = service.Submit(cancelled);
  UdaoRequest densify = ConvexRequest();
  densify.options.densify_samples = 16;
  RequestTicket t_densify = service.Submit(densify);
  EXPECT_FALSE(t_expired.TryGet().has_value());
  EXPECT_FALSE(t_cancelled.TryGet().has_value());
  EXPECT_FALSE(t_densify.TryGet().has_value());

  EXPECT_TRUE(stalled.Wait().ok());
  FaultInjector::Global().Reset();
  const auto r_expired = t_expired.Wait();
  ASSERT_FALSE(r_expired.ok());
  EXPECT_EQ(r_expired.status().code(), StatusCode::kDeadlineExceeded);
  const auto r_cancelled = t_cancelled.Wait();
  ASSERT_FALSE(r_cancelled.ok());
  EXPECT_EQ(r_cancelled.status().code(), StatusCode::kDeadlineExceeded);
  const auto densified = t_densify.Wait();
  ASSERT_TRUE(densified.ok()) << densified.status().ToString();
  EXPECT_GT(densified->queue_wait_ms, 0.0);

  RequestTicket stalled_again = StallWorker(&service, 0.8, 300.0);
  const auto repeat = service.Submit(densify).TryGet();
  ASSERT_TRUE(repeat.has_value()) << "the memoized variant waited";
  ASSERT_TRUE(repeat->ok()) << repeat->status().ToString();
  ExpectBitwiseEqual(*densified, **repeat);
  EXPECT_EQ((*repeat)->queue_wait_ms, 0.0);
  EXPECT_TRUE(stalled_again.Wait().ok());
  FaultInjector::Global().Reset();

  // The parent's counts: expired and cancelled requests never reach Lookup.
  const UdaoServiceStats s = service.stats();
  EXPECT_EQ(s.requests, 7);
  EXPECT_EQ(s.cache_hits, 2);
  EXPECT_EQ(s.cache_misses, 3);
  EXPECT_EQ(s.errors, 2);
  EXPECT_EQ(s.deadline_exceeded, 2);
}

// Stage refinement runs only on a worker: a kStage hit on a service with an
// engine waits behind the stalled worker, then returns the refinement the
// cold request got.
TEST(UdaoServiceTest, StageRefinedHitStaysQueued) {
  const SparkEngine engine;
  const BatchWorkload job = MakeTpcxbbWorkload(1);
  UdaoRequest stage;
  stage.workload_id = job.id;
  stage.space = &BatchParamSpace();
  stage.flow = &job.flow;
  stage.objectives = {
      ObjectiveSpec{"lat", MakeAnalyticBatchLatencyModel(AnalyticWorkload{})},
      ObjectiveSpec{"cost", MakeCostCoresModel()}};
  stage.preference_weights = {0.9, 0.1};
  stage.options.adaptive.granularity = AdaptiveGranularity::kStage;
  stage.options.adaptive.resolve_budget_ms = 10000.0;  // no deadline binds

  ModelServer server;
  UdaoServiceConfig config = OneWorkerConfig();
  config.engine = &engine;
  UdaoService service(&server, config);
  const auto cold = service.Submit(stage).Wait();  // miss
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  ASSERT_FALSE(cold->stage_overlay.empty());

  RequestTicket stalled = StallWorker(&service, 0.9, 300.0);
  RequestTicket hit = service.Submit(stage);
  EXPECT_FALSE(hit.TryGet().has_value());
  EXPECT_TRUE(stalled.Wait().ok());
  FaultInjector::Global().Reset();
  const auto warm = hit.Wait();
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_EQ(warm->conf_raw, cold->conf_raw);
  EXPECT_EQ(warm->stage_overlay.overrides, cold->stage_overlay.overrides);
  EXPECT_EQ(warm->stage_confs, cold->stage_confs);
  const UdaoServiceStats s = service.stats();
  EXPECT_EQ(s.cache_hits, 1);
  EXPECT_EQ(s.cache_misses, 2);
}

// A cached infeasible key is a hit like any other: answered inside Submit
// with the queued path's FailedPrecondition, counted as a hit and an error.
// Densification has no points to thicken there, so a densifying repeat is
// served inline too.
TEST(UdaoServiceTest, CachedInfeasibleKeyFailsInline) {
  ModelServer server;
  UdaoService service(&server, OneWorkerConfig());
  // f2 <= 0.1 needs x0 >= 0.68, so f1 = x0 + x1 <= 0.5 cannot hold with it.
  UdaoRequest infeasible = ConvexRequest();
  infeasible.objectives[0].upper = 0.5;
  infeasible.objectives[1].upper = 0.1;
  const auto cold = service.Submit(infeasible).Wait();  // miss
  ASSERT_FALSE(cold.ok());
  EXPECT_EQ(cold.status().code(), StatusCode::kFailedPrecondition);

  RequestTicket stalled = StallWorker(&service, 0.9, 300.0);
  UdaoRequest densify = infeasible;
  densify.options.densify_samples = 8;
  for (const UdaoRequest& request : {infeasible, densify}) {
    const auto warm = service.Submit(request).TryGet();
    ASSERT_TRUE(warm.has_value()) << "the hit waited for a worker";
    ASSERT_FALSE(warm->ok());
    EXPECT_EQ(warm->status().code(), StatusCode::kFailedPrecondition);
    EXPECT_EQ(warm->status().message(), cold.status().message());
  }
  EXPECT_TRUE(stalled.Wait().ok());
  FaultInjector::Global().Reset();
  const UdaoServiceStats s = service.stats();
  EXPECT_EQ(s.requests, 4);
  EXPECT_EQ(s.cache_hits, 2);
  EXPECT_EQ(s.cache_misses, 2);
  EXPECT_EQ(s.errors, 3);
}

// A bound below an objective's reachable range (f1 = x0 + x1 >= 0) leaves
// PF no box to search, so both the plain optimizer and the service answer
// FailedPrecondition instead of a point past the request's own bound.
TEST(UdaoServiceTest, BoundOutsideReachableRangeFails) {
  ModelServer server;
  UdaoRequest request = ConvexRequest();
  request.objectives[0].upper = -1.0;
  Udao direct(&server, FastOptions());
  const auto plain = direct.Optimize(request);
  ASSERT_FALSE(plain.ok());
  EXPECT_EQ(plain.status().code(), StatusCode::kFailedPrecondition);
  UdaoService service(&server, FastServiceConfig());
  const auto served = service.Submit(request).Wait();
  ASSERT_FALSE(served.ok());
  EXPECT_EQ(served.status().code(), StatusCode::kFailedPrecondition);
}

// Overload control runs before the inline path: with the queue full under
// kReject, even a memoized hit is shed with Unavailable.
TEST(UdaoServiceTest, FullQueueWithRejectPolicyShedsHitsToo) {
  ModelServer server;
  UdaoServiceConfig config = OneWorkerConfig();
  config.max_queue_depth = 1;
  config.shed_policy = ShedPolicy::kReject;
  UdaoService service(&server, config);
  ASSERT_TRUE(service.Submit(ConvexRequest()).Wait().ok());  // miss

  RequestTicket stalled = StallWorker(&service, 0.9, 300.0);  // depth 1
  const auto shed = service.Submit(ConvexRequest()).Wait();
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kUnavailable);
  EXPECT_TRUE(stalled.Wait().ok());
  FaultInjector::Global().Reset();
  const UdaoServiceStats s = service.stats();
  EXPECT_EQ(s.sheds, 1);
  EXPECT_EQ(s.errors, 1);
  EXPECT_EQ(s.cache_hits, 0);
  EXPECT_EQ(s.cache_misses, 2);
}

TEST(UdaoServiceTest, TicketTryGetPollsWithoutBlocking) {
  ModelServer server;
  UdaoService service(&server, FastServiceConfig());

  // The async consumption pattern on the unified surface: poll TryGet until
  // the admission worker delivers, never blocking the polling thread.
  RequestTicket ticket = service.Submit(ConvexRequest());
  std::optional<StatusOr<UdaoRecommendation>> result;
  while (!(result = ticket.TryGet()).has_value()) {
    std::this_thread::yield();
  }
  ASSERT_TRUE(result->ok()) << result->status().ToString();
  EXPECT_FALSE((*result)->frontier.frontier.empty());
}

}  // namespace
}  // namespace udao
