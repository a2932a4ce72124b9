// Concurrency stress tests, written to be run under ThreadSanitizer
// (-DCMAKE_BUILD_TYPE=Tsan; tools/check.sh builds and runs them there).
// They also pass in normal builds, where they still catch deadlocks and
// lost-wakeup bugs via the aggressive interleavings below.
//
// Raw std::thread is used deliberately here (the udao_lint raw-thread rule
// covers src/ only): the point is to attack the pool and the solvers from
// *outside* threads the way concurrent request handlers would.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "common/deadline.h"
#include "common/metrics_registry.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "json_lite.h"
#include "model/model_server.h"
#include "nn/kernels.h"
#include "nn/mlp.h"
#include "moo/mogd.h"
#include "serving/udao_service.h"
#include "spark/metrics.h"
#include "test_problems.h"

namespace udao {
namespace {

// ------------------------------------------------------------- ThreadPool

// Submitted tasks and ParallelFor rounds interleave on one pool while two
// threads wait on the tasks' own completion count (mutex-guarded; the last
// task signals it). Every waiter must see all 400 tasks done, and TSan
// checks the count's increments against the waiters' reads.
TEST(RaceStressTest, SubmitParallelForInterleave) {
  ThreadPool pool(4);
  constexpr int kSubmitted = 400;
  Mutex mu;
  CondVar all_done;
  int submitted_work = 0;  // guarded by mu
  std::atomic<int> parallel_work{0};

  std::vector<std::thread> attackers;
  // Two submitters pushing independent task streams.
  for (int t = 0; t < 2; ++t) {
    attackers.emplace_back([&] {
      for (int i = 0; i < kSubmitted / 2; ++i) {
        pool.Submit([&] {
          MutexLock lock(mu);
          if (++submitted_work == kSubmitted) all_done.NotifyAll();
        });
      }
    });
  }
  // One thread running ParallelFor rounds concurrently with the submitters.
  attackers.emplace_back([&pool, &parallel_work] {
    for (int round = 0; round < 20; ++round) {
      pool.ParallelFor(16, [&parallel_work](int) {
        parallel_work.fetch_add(1, std::memory_order_relaxed);
      });
    }
  });
  // Two threads waiting on the submitted tasks' completion count.
  std::atomic<int> observed_incomplete{0};
  for (int t = 0; t < 2; ++t) {
    attackers.emplace_back([&] {
      MutexLock lock(mu);
      while (submitted_work < kSubmitted) all_done.Wait(mu);
      if (submitted_work != kSubmitted) observed_incomplete.fetch_add(1);
    });
  }
  for (std::thread& t : attackers) t.join();
  EXPECT_EQ(observed_incomplete.load(), 0);
  EXPECT_EQ(parallel_work.load(), 20 * 16);
}

// Two callers race each other and the pool's helpers for ParallelFor
// indices. Each index runs exactly once, and its plain (non-atomic) write is
// visible to the caller when ParallelFor returns, whichever thread claimed
// it: TSan checks the claim counter and the completion handshake.
TEST(RaceStressTest, ConcurrentParallelForCallersRaceHelpersForIndices) {
  ThreadPool pool(2);
  std::atomic<int> miscounted{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < 2; ++t) {
    callers.emplace_back([&pool, &miscounted] {
      for (int round = 0; round < 200; ++round) {
        std::vector<int> hits(8, 0);
        pool.ParallelFor(8, [&hits](int i) { ++hits[i]; });
        for (const int h : hits) {
          if (h != 1) miscounted.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(miscounted.load(), 0);
}

TEST(RaceStressTest, TasksSubmittingTasksDuringShutdownAllRun) {
  // A task that chains follow-up work while the destructor is draining: the
  // whole chain must run before destruction completes.
  std::atomic<int> chain{0};
  {
    // `link` outlives the pool: worker-held copies call pool.Submit(link)
    // while the destructor drains, so it must still be alive then.
    std::function<void()> link;
    ThreadPool pool(2);
    link = [&] {
      if (chain.fetch_add(1) < 40) pool.Submit(link);
    };
    for (int i = 0; i < 4; ++i) pool.Submit(link);
    // Destructor starts immediately; submissions race against shutdown.
  }
  EXPECT_GE(chain.load(), 41);
}

// ------------------------------------------------------------- MogdSolver

// Concurrent SolveBatch calls on one shared pool must neither race nor
// change results: every caller gets the same bitwise answer the solver
// produces single-threaded.
TEST(RaceStressTest, ConcurrentSolveBatchOnSharedPoolIsDeterministic) {
  MooProblem problem = testing_problems::ConvexProblem();
  ThreadPool pool(4);
  MogdConfig config;
  config.multistart = 4;
  config.max_iters = 30;
  config.pool = &pool;
  MogdSolver solver(config);

  std::vector<CoProblem> cos(6);
  for (int i = 0; i < 6; ++i) {
    cos[i].target = i % 2;
    cos[i].lower = {0.0, 0.0};
    cos[i].upper = {0.5 + 0.3 * i, 2.0};
  }
  const std::vector<std::optional<CoResult>> baseline =
      solver.SolveBatch(problem, cos);

  constexpr int kCallers = 4;
  std::vector<std::vector<std::optional<CoResult>>> results(kCallers);
  std::vector<std::thread> callers;
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&, t] { results[t] = solver.SolveBatch(problem, cos); });
  }
  for (std::thread& t : callers) t.join();

  for (int t = 0; t < kCallers; ++t) {
    ASSERT_EQ(results[t].size(), baseline.size());
    for (size_t i = 0; i < baseline.size(); ++i) {
      ASSERT_EQ(results[t][i].has_value(), baseline[i].has_value());
      if (!baseline[i].has_value()) continue;
      EXPECT_EQ(results[t][i]->x, baseline[i]->x) << "caller " << t;
      EXPECT_EQ(results[t][i]->objectives, baseline[i]->objectives);
      EXPECT_EQ(results[t][i]->target_value, baseline[i]->target_value);
    }
  }
}

// ------------------------------------------------------------- ModelServer

TEST(RaceStressTest, ConcurrentModelServerLookupsAndIngest) {
  ModelServerConfig cfg;
  cfg.kind = ModelKind::kGp;
  cfg.gp.hyper_opt_steps = 5;
  cfg.retrain_threshold = 8;
  ModelServer server(cfg);

  Rng rng(3);
  auto trace = [&rng] {
    Vector x(4);
    for (double& v : x) v = rng.Uniform();
    return x;
  };
  for (int i = 0; i < 16; ++i) {
    server.Ingest("w", "latency", trace(), 1.0 + rng.Uniform());
    server.Ingest("w", "cost", trace(), 2.0 + rng.Uniform());
  }

  std::atomic<int> model_failures{0};
  std::vector<std::thread> clients;
  // Readers: repeated GetModel on both objectives (exercises the lazy
  // retrain path concurrently with ingestion).
  for (int t = 0; t < 3; ++t) {
    clients.emplace_back([&server, &model_failures, t] {
      const std::string objective = (t % 2 == 0) ? "latency" : "cost";
      for (int i = 0; i < 25; ++i) {
        auto model = server.GetModel("w", objective);
        if (!model.ok() || *model == nullptr) model_failures.fetch_add(1);
      }
    });
  }
  // Writer: keeps ingesting traces (tripping retrains) while readers query.
  clients.emplace_back([&server] {
    Rng wrng(11);
    for (int i = 0; i < 40; ++i) {
      Vector x(4);
      for (double& v : x) v = wrng.Uniform();
      server.Ingest("w", "latency", x, 1.0 + wrng.Uniform());
    }
  });
  // Metadata reader + metrics writer.
  clients.emplace_back([&server] {
    for (int i = 0; i < 40; ++i) {
      (void)server.HasTraces("w", "latency");
      (void)server.NumTraces("w", "cost");
      RuntimeMetrics m;
      m.latency_s = 1.0 + i;
      server.IngestMetrics("w", m);
      (void)server.MeanMetrics("w");
      (void)server.WorkloadsWithMetrics();
    }
  });
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(model_failures.load(), 0);
  auto final_model = server.GetModel("w", "latency");
  ASSERT_TRUE(final_model.ok());
  EXPECT_EQ(server.NumTraces("w", "latency"), 56);
}

// The DNN path is the one where "handed-out models are immutable snapshots"
// is easiest to break: a small trace update fine-tunes network weights, and
// doing that in place would race with (and silently change) every handle a
// caller already holds. Readers here retain a handle and keep calling
// Predict on it while a writer ingests enough traces to trip fine-tunes and
// other readers pull fresh models; the retained handle must keep returning
// the bitwise-identical prediction throughout.
TEST(RaceStressTest, DnnFineTuneLeavesRetainedHandlesUntouched) {
  ModelServerConfig cfg;
  cfg.kind = ModelKind::kDnn;
  cfg.dnn.hidden = {8};
  cfg.dnn.train.epochs = 20;
  cfg.retrain_threshold = 1 << 20;  // Only the initial train is full.
  cfg.finetune_threshold = 4;
  cfg.finetune_epochs = 5;
  ModelServer server(cfg);

  Rng rng(17);
  auto trace = [&rng] {
    Vector x(4);
    for (double& v : x) v = rng.Uniform();
    return x;
  };
  for (int i = 0; i < 8; ++i) {
    server.Ingest("w", "latency", trace(), 1.0 + rng.Uniform());
  }

  auto initial = server.GetModel("w", "latency");
  ASSERT_TRUE(initial.ok());
  const std::shared_ptr<const ObjectiveModel> retained = *initial;
  const Vector probe = trace();
  const double baseline = retained->Predict(probe);

  std::atomic<int> drift{0};
  std::atomic<int> model_failures{0};
  std::vector<std::thread> clients;
  // Retained-handle readers: the snapshot they hold must never move.
  for (int t = 0; t < 2; ++t) {
    clients.emplace_back([&retained, &probe, baseline, &drift] {
      for (int i = 0; i < 200; ++i) {
        if (retained->Predict(probe) != baseline) drift.fetch_add(1);
      }
    });
  }
  // Fresh-model readers: GetModel trips the fine-tune policy, and the model
  // it returns is predicted from immediately (as MOGD would).
  for (int t = 0; t < 2; ++t) {
    clients.emplace_back([&server, &probe, &model_failures] {
      for (int i = 0; i < 25; ++i) {
        auto model = server.GetModel("w", "latency");
        if (!model.ok() || *model == nullptr) {
          model_failures.fetch_add(1);
          continue;
        }
        (void)(*model)->Predict(probe);
      }
    });
  }
  // Writer: keeps crossing finetune_threshold while readers run.
  clients.emplace_back([&server] {
    Rng wrng(23);
    for (int i = 0; i < 40; ++i) {
      Vector x(4);
      for (double& v : x) v = wrng.Uniform();
      server.Ingest("w", "latency", x, 1.0 + wrng.Uniform());
    }
  });
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(model_failures.load(), 0);
  EXPECT_EQ(drift.load(), 0);
  EXPECT_EQ(retained->Predict(probe), baseline);
  // The served model did move on from the snapshot: at least one fine-tune
  // ran (40 ingests over threshold 4), so a fresh GetModel returns a
  // different object than the retained handle.
  auto final_model = server.GetModel("w", "latency");
  ASSERT_TRUE(final_model.ok());
  EXPECT_NE(final_model->get(), retained.get());
}

// ------------------------------------------------------------- UdaoService

// A tiny DNN with finetune_threshold 1: once ServeF1 has served ("w", "f1"),
// every Ingest into that pair leaves the served model due and moves workload
// "w"'s generation, so the ingest threads below keep invalidating cached
// frontiers. (The requests carry explicit models, so nothing re-resolves f1
// and it stays due.)
ModelServerConfig InvalidatingServerConfig() {
  ModelServerConfig cfg;
  cfg.kind = ModelKind::kDnn;
  cfg.dnn.hidden = {4};
  cfg.dnn.train.epochs = 5;
  cfg.finetune_threshold = 1;
  return cfg;
}

void ServeF1(ModelServer* server) {
  for (int i = 0; i < 4; ++i) {
    const double v = 0.25 * i;
    ASSERT_TRUE(server->Ingest("w", "f1", {v, 1.0 - v}, 1.0 + v).ok());
  }
  ASSERT_TRUE(server->GetModel("w", "f1").ok());
}

// Spins until an ingester that counts each Ingest after it returns has
// counted two more. The second of them started, and moved the generation,
// after this call began: every entry inserted before the call is stale from
// then on, so a later lookup of its key counts an invalidation however the
// threads are scheduled.
void AwaitTwoIngests(const std::atomic<int>& ingests) {
  const int seen = ingests.load();
  while (ingests.load() < seen + 2) std::this_thread::yield();
}

// Client threads hammer the serving layer's Submit().Wait() while an
// ingest thread keeps bumping the workload generation: cache lookups,
// inserts, LRU touches, and generation-based invalidations all race here.
// Every request must still come back with a valid recommendation (the
// frontier is recomputed, never served stale or half-built).
TEST(RaceStressTest, ConcurrentServiceOptimizeVsIngest) {
  ModelServer server(InvalidatingServerConfig());
  ServeF1(&server);
  UdaoServiceConfig cfg;
  cfg.udao.pf.mogd.multistart = 2;
  cfg.udao.pf.mogd.max_iters = 20;
  cfg.udao.solver_threads = 2;
  cfg.udao.frontier_points = 5;
  cfg.admission_threads = 3;
  UdaoService service(&server, cfg);

  // Explicit models shared by every request, so cache keys collide by
  // design and the threads contend on one entry.
  const MooProblem problem = testing_problems::ConvexProblem();
  auto make_request = [&problem](int i) {
    UdaoRequest request;
    request.workload_id = "w";
    request.space = &testing_problems::UnitSpace2();
    request.objectives = {problem.objective(0), problem.objective(1)};
    const double wl = 0.1 + 0.2 * (i % 5);
    request.preference_weights = {wl, 1.0 - wl};
    return request;
  };

  constexpr int kClients = 3;
  constexpr int kRequestsPerClient = 8;
  std::atomic<int> failures{0};
  std::atomic<int> empty_frontiers{0};
  std::atomic<int> ingests{0};
  std::atomic<bool> stop_ingest{false};
  std::vector<std::thread> attackers;
  for (int t = 0; t < kClients; ++t) {
    attackers.emplace_back([&, t] {
      for (int i = 0; i < kRequestsPerClient; ++i) {
        auto rec = service.Submit(make_request(kRequestsPerClient * t + i)).Wait();
        if (!rec.ok()) {
          failures.fetch_add(1);
        } else if (rec->frontier.frontier.empty()) {
          empty_frontiers.fetch_add(1);
        }
        if (t == 0 && i == 0) AwaitTwoIngests(ingests);
      }
    });
  }
  attackers.emplace_back([&] {
    Rng wrng(29);
    while (!stop_ingest.load(std::memory_order_relaxed)) {
      server.Ingest("w", "f1", {wrng.Uniform(), wrng.Uniform()},
                    1.0 + wrng.Uniform());
      ingests.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  for (int t = 0; t < kClients; ++t) attackers[t].join();
  stop_ingest.store(true);
  attackers.back().join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(empty_frontiers.load(), 0);
  const UdaoServiceStats s = service.stats();
  EXPECT_EQ(s.requests, kClients * kRequestsPerClient);
  EXPECT_EQ(s.cache_hits + s.cache_misses, kClients * kRequestsPerClient);
  EXPECT_GE(s.cache_misses, 1);
  EXPECT_GT(s.invalidations, 0);
  EXPECT_EQ(s.errors, 0);
}

// Destroying the service while submitted requests are still queued and
// running: the destructor's pool drain has tasks locking the cache mutex and
// bumping the stats atomics, so those members must outlive the pool
// (admission_ is deliberately the last-declared member). TSan/ASan catch any
// regression as lock-of-destroyed-mutex / use-after-free.
TEST(RaceStressTest, ServiceDestructionWithInflightRequests) {
  for (int round = 0; round < 4; ++round) {
    ModelServer server;
    UdaoServiceConfig cfg;
    cfg.udao.pf.mogd.multistart = 2;
    cfg.udao.pf.mogd.max_iters = 20;
    cfg.udao.solver_threads = 2;
    cfg.udao.frontier_points = 4;
    cfg.admission_threads = 3;

    const MooProblem problem = testing_problems::ConvexProblem();
    std::atomic<int> delivered{0};
    constexpr int kRequests = 12;
    auto make_request = [&problem](int i) {
      UdaoRequest request;
      request.workload_id = "w";
      request.space = &testing_problems::UnitSpace2();
      request.objectives = {problem.objective(0), problem.objective(1)};
      // Vary a constraint so some requests rebuild the frontier while
      // others hit/evict concurrently with the drain.
      request.objectives[0].upper = 10.0 - 0.5 * (i % 3);
      return request;
    };
    std::vector<RequestTicket> tickets;
    tickets.reserve(kRequests);
    {
      UdaoService service(&server, cfg);
      // Prime the cache synchronously so the service destructor frees real
      // heap (map nodes, LRU strings, bucket arrays); draining lookups would
      // read that freed memory if destruction order regressed.
      ASSERT_TRUE(service.Submit(make_request(0)).Wait().ok());
      for (int i = 0; i < kRequests; ++i) {
        tickets.push_back(service.Submit(make_request(i)));
      }
    }  // destructor drains while requests are in flight
    // Tickets outlive the service: the drain delivered every result.
    for (RequestTicket& ticket : tickets) {
      if (ticket.Wait().ok()) delivered.fetch_add(1);
    }
    EXPECT_EQ(delivered.load(), kRequests);
  }
}

// Cancellation racing completion: a batch of async requests shares one
// CancellationSource, and a separate thread fires Cancel() while they are in
// every possible state -- queued, mid-solve, already finished. TSan attacks
// the token's atomic against the solver loops' reads; in any build, every
// request must resolve exactly once into either a valid frontier or an
// explicit DeadlineExceeded -- a cancelled request never hangs and never
// reports success with an empty frontier.
TEST(RaceStressTest, CancellationRacingCompletion) {
  ModelServer server;
  UdaoServiceConfig cfg;
  cfg.udao.pf.mogd.multistart = 2;
  cfg.udao.pf.mogd.max_iters = 30;
  cfg.udao.solver_threads = 2;
  cfg.udao.frontier_points = 6;
  cfg.admission_threads = 2;
  cfg.frontier_cache_capacity = 0;  // every request really runs the solver

  const MooProblem problem = testing_problems::ConvexProblem();
  constexpr int kRequests = 12;
  std::atomic<int> delivered{0};
  std::atomic<int> bad_responses{0};
  CancellationSource source;
  std::vector<RequestTicket> tickets;
  tickets.reserve(kRequests);
  {
    UdaoService service(&server, cfg);
    for (int i = 0; i < kRequests; ++i) {
      UdaoRequest request;
      request.workload_id = "w";
      request.space = &testing_problems::UnitSpace2();
      request.objectives = {problem.objective(0), problem.objective(1)};
      request.objectives[0].upper = 10.0 - 0.25 * i;  // distinct keys
      request.options.cancel = source.token();
      tickets.push_back(service.Submit(request));
    }
    std::thread canceller([&source] { source.Cancel(); });
    canceller.join();
  }  // destructor drains whatever the cancellation did not cut short
  for (RequestTicket& ticket : tickets) {
    StatusOr<UdaoRecommendation> r = ticket.Wait();
    const bool valid_success = r.ok() && !r->frontier.frontier.empty();
    const bool explicit_stop =
        !r.ok() && r.status().code() == StatusCode::kDeadlineExceeded;
    if (!valid_success && !explicit_stop) bad_responses.fetch_add(1);
    delivered.fetch_add(1);
  }
  EXPECT_EQ(delivered.load(), kRequests);
  EXPECT_EQ(bad_responses.load(), 0);
}

// The unified Submit() surface under fire: client threads submit tickets
// (some sharing subproblems through the coalescer, some cancelled mid-flight
// via RequestTicket::Cancel) while an ingest thread churns the workload's
// generation, forcing invalidation/recompute races in the sharded cache.
// TSan attacks the lock-free snapshot reads, the coalescer's singleflight
// registry and memo, and the ticket state; in any build every ticket must
// resolve exactly once into a valid frontier or an explicit
// DeadlineExceeded.
TEST(RaceStressTest, ConcurrentSubmitCancelAndIngest) {
  ModelServer server(InvalidatingServerConfig());
  ServeF1(&server);
  UdaoServiceConfig cfg;
  cfg.udao.pf.mogd.multistart = 2;
  cfg.udao.pf.mogd.max_iters = 30;
  cfg.udao.solver_threads = 2;
  cfg.udao.frontier_points = 6;
  cfg.admission_threads = 3;

  const MooProblem problem = testing_problems::ConvexProblem();
  constexpr int kClients = 4;
  constexpr int kPerClient = 6;
  std::atomic<int> bad_responses{0};
  std::atomic<int> ingests{0};
  std::atomic<bool> stop_ingest{false};
  UdaoServiceStats stats;
  {
    UdaoService service(&server, cfg);
    std::thread ingester([&] {
      int i = 0;
      while (!stop_ingest.load(std::memory_order_acquire)) {
        const double v = 0.25 + 0.5 * ((i % 3) / 2.0);
        (void)server.Ingest("w", "f1", {v, 1.0 - v}, 1.0 + v);
        ingests.fetch_add(1);
        ++i;
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for (int i = 0; i < kPerClient; ++i) {
          UdaoRequest request;
          request.workload_id = "w";
          request.space = &testing_problems::UnitSpace2();
          request.objectives = {problem.objective(0), problem.objective(1)};
          // Few distinct keys across clients: hits, misses, invalidations,
          // and coalesced recomputes all genuinely interleave.
          request.objectives[0].upper = 10.0 - 0.5 * (i % 3);
          RequestTicket ticket = service.Submit(request);
          if ((c + i) % 3 == 0) ticket.Cancel();
          const auto r = ticket.Wait();
          const bool valid_success = r.ok() && !r->frontier.frontier.empty();
          const bool explicit_stop =
              !r.ok() &&
              r.status().code() == StatusCode::kDeadlineExceeded;
          if (!valid_success && !explicit_stop) bad_responses.fetch_add(1);
          // Client 1's first request is never cancelled, so its key has an
          // entry, and the client asks for that key again at i == 3.
          if (c == 1 && i == 0) AwaitTwoIngests(ingests);
        }
      });
    }
    for (std::thread& t : clients) t.join();
    stop_ingest.store(true, std::memory_order_release);
    ingester.join();
    stats = service.stats();
  }
  EXPECT_EQ(bad_responses.load(), 0);
  EXPECT_GT(stats.invalidations, 0);
}

// Inline cache hits racing the rest of the service: client threads issue
// hits, answered inside Submit from the published snapshot and the entry's
// memo, while an ingest thread moves the workload's generation and an
// inserter adds new keys to the same shard (copy-on-write publishes). TSan
// attacks the snapshot loads, the memo lock and the recency ticks; in any
// build every response is a complete frontier and every request is counted
// exactly once, as a hit or as a miss.
TEST(RaceStressTest, InlineHitsVsIngestAndInserts) {
  ModelServer server(InvalidatingServerConfig());
  ServeF1(&server);
  UdaoServiceConfig cfg;
  cfg.udao.pf.mogd.multistart = 2;
  cfg.udao.pf.mogd.max_iters = 20;
  cfg.udao.solver_threads = 2;
  cfg.udao.frontier_points = 5;
  cfg.admission_threads = 2;
  UdaoService service(&server, cfg);

  const MooProblem problem = testing_problems::ConvexProblem();
  auto make_request = [&problem](double upper) {
    UdaoRequest request;
    request.workload_id = "w";
    request.space = &testing_problems::UnitSpace2();
    request.objectives = {problem.objective(0), problem.objective(1)};
    request.objectives[0].upper = upper;
    return request;
  };
  constexpr int kPrimed = 3;
  for (int k = 0; k < kPrimed; ++k) {
    ASSERT_TRUE(service.Submit(make_request(10.0 - k)).Wait().ok());
  }
  const UdaoServiceStats before = service.stats();

  constexpr int kClients = 2;
  constexpr int kPerClient = 60;
  constexpr int kInserts = 6;
  constexpr int kIngests = 3;
  std::atomic<int> bad_responses{0};
  std::atomic<int> answered{0};
  auto check = [&](const StatusOr<UdaoRecommendation>& r) {
    if (!r.ok() || r->degraded || r->frontier.frontier.empty()) {
      bad_responses.fetch_add(1);
    }
    answered.fetch_add(1);
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        UdaoRequest request = make_request(10.0 - (i + c) % kPrimed);
        const double wl = 0.1 + 0.1 * (i % 9);
        request.preference_weights = {wl, 1.0 - wl};
        request.options.policy =
            i % 3 == 0 ? RecommendPolicy::kKnee : RecommendPolicy::kWun;
        request.options.densify_samples = i % 4 == 0 ? 8 : 0;
        check(service.Submit(request).Wait());
      }
    });
  }
  threads.emplace_back([&] {
    for (int i = 0; i < kInserts; ++i) {
      check(service.Submit(make_request(5.0 - 0.25 * i)).Wait());
    }
  });
  threads.emplace_back([&] {
    // Spread the ingests over the clients' run, however fast it goes.
    for (int i = 0; i < kIngests; ++i) {
      const int at = (i + 1) * kClients * kPerClient / (kIngests + 1);
      while (answered.load() < at) std::this_thread::yield();
      (void)server.Ingest("w", "f1", {0.25 * i, 0.5}, 1.0 + 0.1 * i);
    }
  });
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(bad_responses.load(), 0);
  const UdaoServiceStats s = service.stats();
  constexpr long long kRequests = kClients * kPerClient + kInserts;
  EXPECT_EQ(s.requests - before.requests, kRequests);
  EXPECT_EQ(s.cache_hits + s.cache_misses -
                (before.cache_hits + before.cache_misses),
            kRequests);
  EXPECT_GT(s.cache_hits, before.cache_hits);
  EXPECT_EQ(s.errors, 0);
  EXPECT_EQ(s.degraded, 0);
}

// --------------------------------------------------------- MetricsRegistry

// Writers on all three metric kinds (some sharing names across threads, so
// stripes genuinely contend) race against SnapshotJson/Counters readers and
// a Reset. Under TSan this attacks the lock striping; in normal builds it
// still validates that a snapshot taken mid-insert parses as a consistent
// document and that non-reset counts add up.
TEST(RaceStressTest, MetricsWritersVsSnapshotReaders) {
  MetricsRegistry reg;
  constexpr int kWriters = 4;
  constexpr int kOpsPerWriter = 400;
  std::vector<std::thread> attackers;
  for (int t = 0; t < kWriters; ++t) {
    attackers.emplace_back([&reg, t] {
      for (int i = 0; i < kOpsPerWriter; ++i) {
        reg.AddCounter("udao.race.shared");
        reg.AddCounter("udao.race.counter." + std::to_string(t));
        reg.SetGauge("udao.race.gauge." + std::to_string(i % 8),
                     static_cast<double>(i));
        reg.Observe("udao.race.hist", static_cast<double>(i % 100));
      }
    });
  }
  std::atomic<bool> stop{false};
  std::atomic<int> bad_snapshots{0};
  for (int t = 0; t < 2; ++t) {
    attackers.emplace_back([&reg, &stop, &bad_snapshots] {
      while (!stop.load(std::memory_order_relaxed)) {
        // The snapshot must always parse as a complete JSON object, even
        // while writers are mid-flight.
        bool ok = false;
        (void)testing::ParseJson(reg.SnapshotJson(), &ok);
        if (!ok) bad_snapshots.fetch_add(1);
        (void)reg.Counters();
        (void)reg.HistogramValue("udao.race.hist");
      }
    });
  }
  for (int t = 0; t < kWriters; ++t) attackers[t].join();
  stop.store(true);
  for (size_t t = kWriters; t < attackers.size(); ++t) attackers[t].join();

  EXPECT_EQ(bad_snapshots.load(), 0);
  EXPECT_EQ(reg.CounterValue("udao.race.shared"), kWriters * kOpsPerWriter);
  for (int t = 0; t < kWriters; ++t) {
    EXPECT_EQ(reg.CounterValue("udao.race.counter." + std::to_string(t)),
              kOpsPerWriter);
  }
  EXPECT_EQ(reg.HistogramValue("udao.race.hist").count,
            kWriters * kOpsPerWriter);

  // Reset racing against late readers must leave an empty, parseable state.
  reg.Reset();
  EXPECT_TRUE(reg.Counters().empty());
}

// TraceSpan trees assembled on racing threads: each thread builds its own
// nested tree, so RecordTrace and the span histograms contend but the trees
// themselves never interleave.
TEST(RaceStressTest, TraceSpansOnRacingThreads) {
#if UDAO_METRICS_ENABLED
  MetricsRegistry::Global().Reset();
  std::vector<std::thread> attackers;
  for (int t = 0; t < 4; ++t) {
    attackers.emplace_back([] {
      for (int i = 0; i < 50; ++i) {
        UDAO_TRACE_SPAN("race.root");
        { UDAO_TRACE_SPAN("race.inner"); }
      }
    });
  }
  for (std::thread& t : attackers) t.join();
  // 4 threads x 50 roots each closed cleanly into the span histogram.
  EXPECT_EQ(
      MetricsRegistry::Global().HistogramValue("udao.span.race.root_ms").count,
      200);
  EXPECT_EQ(MetricsRegistry::Global()
                .HistogramValue("udao.span.race.inner_ms")
                .count,
            200);
  MetricsRegistry::Global().Reset();
#endif
}

// ---------------------------------------------------------- kernel dispatch

TEST(RaceStressTest, ConcurrentPredictBatchWhileBackendFlips) {
  // The kernel table is one atomic pointer shared by every dense op in the
  // process. Attack it from both sides: reader threads hammer PredictBatch /
  // InputGradientBatch (each call acquires the table once per primitive and
  // bumps its thread-local arena) while a flipper thread swaps the backend.
  // Every observed result must match one of the two backends' single-thread
  // answers -- a torn table, a half-switched call, or cross-thread arena
  // sharing would produce values matching neither.
  MlpConfig config;
  config.layer_sizes = {6, 128, 128, 1};
  Rng rng(21);
  const Mlp mlp(config, &rng);
  Matrix x(16, 6);
  for (double& v : x.data()) v = rng.Uniform();

  std::vector<Vector> expected;
  {
    kernels::ScopedBackendForTesting scoped(kernels::Backend::kScalar);
    Vector out;
    mlp.PredictBatch(x, &out);
    expected.push_back(std::move(out));
  }
  if (kernels::CpuSupportsAvx2()) {
    kernels::ScopedBackendForTesting scoped(kernels::Backend::kAvx2);
    Vector out;
    mlp.PredictBatch(x, &out);
    expected.push_back(std::move(out));
  }

  std::atomic<bool> stop{false};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> attackers;
  for (int t = 0; t < 4; ++t) {
    attackers.emplace_back([&] {
      Vector out;
      Matrix grads;
      for (int i = 0; i < 300; ++i) {
        mlp.PredictBatch(x, &out);
        bool matched = false;
        for (const Vector& want : expected) {
          if (out == want) {
            matched = true;
            break;
          }
        }
        if (!matched) mismatches.fetch_add(1, std::memory_order_relaxed);
        mlp.InputGradientBatch(x, &grads);
      }
    });
  }
  std::thread flipper([&] {
    int flips = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const bool avx = kernels::CpuSupportsAvx2() && (flips % 2 == 0);
      kernels::SetBackendForTesting(avx ? kernels::Backend::kAvx2
                                        : kernels::Backend::kScalar);
      ++flips;
      std::this_thread::yield();
    }
  });
  for (std::thread& t : attackers) t.join();
  stop.store(true, std::memory_order_relaxed);
  flipper.join();
  kernels::SetBackendForTesting(kernels::CpuSupportsAvx2()
                                    ? kernels::Backend::kAvx2
                                    : kernels::Backend::kScalar);
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace udao
