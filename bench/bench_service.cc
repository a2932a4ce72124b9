// Serving layer: what frontier caching buys. One cold request computes the
// Pareto frontier end to end (step 2 dominates); follow-up requests that
// differ only in their preference weights re-run just the recommendation
// step off the cached frontier; finetune_threshold ingested traces make the
// served latency model due for a fine-tune, which bumps the workload
// generation and forces the next request cold again.
//
// The report's udao.service.* counters (cache_hits/cache_misses/
// invalidations) plus the measured cold-vs-warm ratio are the evidence the
// cache works; the bench fails if a weight-only repeat is not at least 10x
// faster than the cold solve. A densified warm block repeats the sweep with
// sampling-based frontier thickening enabled and gates on quality (strict
// box-hypervolume gain over the cached frontier) as well as cost (within
// 10% of the plain warm latency plus a fixed evaluation allowance).
//
// A second scenario stresses the deadline contract: requests carrying a
// budget shorter than the cold solve must come back within 1.2x the budget
// at p99, and every single response must be either a valid (non-empty,
// mutually non-dominated) frontier or an explicit DeadlineExceeded /
// Unavailable error -- never a silent overrun.
// A third scenario drives multi-tenant traffic: 64 closed-loop clients whose
// tenants are drawn zipfian, replayed twice on identical schedules -- once
// with per-request solves, once with cross-request coalescing -- gating both
// the throughput ratio and bitwise identity of every frontier.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/deadline.h"
#include "common/random.h"
#include "moo/pareto.h"
#include "serving/udao_service.h"
#include "tuning/udao.h"
#include "workload/trace_gen.h"

#include "bench_util.h"

namespace {
double MsSince(const std::chrono::steady_clock::time_point& t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

// True when no frontier point dominates another (<= everywhere, < somewhere;
// all bench objectives are minimized).
bool DominanceConsistent(const std::vector<udao::MooPoint>& frontier) {
  for (size_t a = 0; a < frontier.size(); ++a) {
    for (size_t b = 0; b < frontier.size(); ++b) {
      if (a == b) continue;
      bool all_le = true;
      bool some_lt = false;
      for (size_t j = 0; j < frontier[a].objectives.size(); ++j) {
        if (frontier[a].objectives[j] > frontier[b].objectives[j]) {
          all_le = false;
        }
        if (frontier[a].objectives[j] < frontier[b].objectives[j]) {
          some_lt = true;
        }
      }
      if (all_le && some_lt) return false;
    }
  }
  return true;
}
}  // namespace

int main(int argc, char** argv) {
  using namespace udao;
  using namespace udao::bench;

  return BenchMain("bench_service", argc, argv, [](const BenchOptions& o) {
  (void)o;
  std::printf("=== serving layer: cold solve vs cached weight-only repeats "
              "===\n\n");
  BenchProblem bp = MakeBatchProblem(9, QuickScaled(150, 60));

  UdaoServiceConfig cfg;
  cfg.udao = BenchSolverOptions();
  cfg.udao.frontier_points = QuickScaled(20, 8);
  UdaoService service(bp.server.get(), cfg);

  UdaoRequest request;
  request.workload_id = bp.workload_id;
  request.space = &BatchParamSpace();
  request.objectives = {{.name = objectives::kLatency},
                        {.name = objectives::kCostCores}};
  request.preference_weights = {0.5, 0.5};

  auto t0 = std::chrono::steady_clock::now();
  auto cold = service.Submit(request).Wait();
  const double cold_ms = MsSince(t0);
  if (!cold.ok()) {
    std::fprintf(stderr, "cold solve failed: %s\n",
                 cold.status().ToString().c_str());
    return 1;
  }
  std::printf("cold solve: %.1f ms (%zu frontier points)\n", cold_ms,
              cold->frontier.frontier.size());

  const int repeats = QuickScaled(40, 10);
  t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < repeats; ++i) {
    const double wl = 0.1 + 0.8 * i / std::max(1, repeats - 1);
    request.preference_weights = {wl, 1.0 - wl};
    auto rec = service.Submit(request).Wait();
    if (!rec.ok()) {
      std::fprintf(stderr, "warm request failed: %s\n",
                   rec.status().ToString().c_str());
      return 1;
    }
  }
  const double warm_ms = MsSince(t0) / repeats;
  const double speedup = warm_ms > 0 ? cold_ms / warm_ms : 0.0;
  std::printf("%d weight-only repeats: %.3f ms each (%.0fx vs cold)\n",
              repeats, warm_ms, speedup);

  // Densified warm repeats: the same weight sweep, but every cache hit is
  // thickened by sampling before the recommendation step. The gate is on
  // quality -- the densified frontier must strictly beat the cached one on
  // box hypervolume -- and on cost: within 10% of the plain warm latency
  // plus a small absolute allowance for memo lookups and the larger
  // frontier step 3 walks. One untimed priming request pays the one-time
  // densify + conservative re-rank that the entry then memoizes, so the
  // timed loop measures the steady state the gate is about (the plain warm
  // loop is already steady: the cold miss seeded its memoized re-rank).
  request.options.densify_samples = QuickScaled(16, 8);
  request.options.densify_radius = 0.05;
  auto primed = service.Submit(request).Wait();
  if (!primed.ok()) {
    std::fprintf(stderr, "densify priming request failed: %s\n",
                 primed.status().ToString().c_str());
    return 1;
  }
  double hv_base = 0.0;
  double hv_densified = 0.0;
  t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < repeats; ++i) {
    const double wl = 0.1 + 0.8 * i / std::max(1, repeats - 1);
    request.preference_weights = {wl, 1.0 - wl};
    auto rec = service.Submit(request).Wait();
    if (!rec.ok()) {
      std::fprintf(stderr, "densified warm request failed: %s\n",
                   rec.status().ToString().c_str());
      return 1;
    }
    if (i == 0) {
      hv_base = BoxHypervolume(cold->frontier.frontier, rec->frontier.utopia,
                               rec->frontier.nadir);
      hv_densified = BoxHypervolume(
          rec->frontier.frontier, rec->frontier.utopia, rec->frontier.nadir);
      if (!DominanceConsistent(rec->frontier.frontier)) {
        std::fprintf(stderr, "densified frontier has a dominated point\n");
        return 1;
      }
    }
  }
  const double warm_densify_ms = MsSince(t0) / repeats;
  request.options.densify_samples = 0;
  std::printf("%d densified warm repeats: %.3f ms each, box hypervolume "
              "%.6g -> %.6g (%+.3f%%)\n",
              repeats, warm_densify_ms, hv_base, hv_densified,
              100.0 * (hv_densified - hv_base) / hv_base);
  if (hv_densified <= hv_base) {
    std::fprintf(stderr,
                 "densification did not strictly increase the box "
                 "hypervolume (%.6g -> %.6g)\n",
                 hv_base, hv_densified);
    return 1;
  }
  const double densify_allowance_ms = 0.25;
  if (warm_densify_ms > 1.10 * warm_ms + densify_allowance_ms) {
    std::fprintf(stderr,
                 "densified warm repeat too slow: %.3f ms vs %.3f ms plain "
                 "(allowance 10%% + %.1f ms)\n",
                 warm_densify_ms, warm_ms, densify_allowance_ms);
    return 1;
  }

  // finetune_threshold new traces make the served latency model due for a
  // fine-tune: the last one bumps the workload generation, the cached
  // frontier is now tagged stale, and the next request recomputes (and pays
  // for the fine-tune).
  for (int i = 0; i < bp.server->config().finetune_threshold; ++i) {
    Status ingested = bp.server->Ingest(
        bp.workload_id, objectives::kLatency,
        BatchParamSpace().Encode(BatchParamSpace().Defaults()), 100.0);
    if (!ingested.ok()) {
      std::fprintf(stderr, "ingest failed: %s\n",
                   ingested.ToString().c_str());
      return 1;
    }
  }
  request.preference_weights = {0.5, 0.5};
  t0 = std::chrono::steady_clock::now();
  auto after = service.Submit(request).Wait();
  const double invalidated_ms = MsSince(t0);
  if (!after.ok()) {
    std::fprintf(stderr, "post-ingest request failed: %s\n",
                 after.status().ToString().c_str());
    return 1;
  }
  std::printf("after %d ingests (fine-tune, entry invalidated): %.1f ms\n",
              bp.server->config().finetune_threshold, invalidated_ms);

  UdaoServiceStats s = service.stats();
  std::printf("\nservice counters: %lld requests, %lld hits, %lld misses, "
              "%lld invalidations, %lld errors\n",
              s.requests, s.cache_hits, s.cache_misses, s.invalidations,
              s.errors);
  if (s.cache_hits != 2 * repeats + 1 || s.cache_misses != 2 ||
      s.invalidations != 1 || s.errors != 0) {
    std::fprintf(stderr,
                 "unexpected cache behavior: %lld hits, %lld misses, %lld "
                 "invalidations, %lld errors (expected %d, 2, 1, 0)\n",
                 s.cache_hits, s.cache_misses, s.invalidations, s.errors,
                 2 * repeats + 1);
    return 1;
  }
  if (speedup < 10.0) {
    std::fprintf(stderr,
                 "weight-only repeat not >= 10x faster than cold (%.1fx)\n",
                 speedup);
    return 1;
  }

  // --- Deadline scenario: budgets shorter than the cold solve. ---
  // A fresh service with caching disabled, so every request runs the anytime
  // solve path instead of returning a cached frontier in microseconds.
  std::printf("\n=== deadline scenario: budget shorter than the cold solve "
              "===\n\n");
  UdaoServiceConfig dcfg = cfg;
  dcfg.frontier_cache_capacity = 0;
  UdaoService deadline_service(bp.server.get(), dcfg);

  const double budget_ms = std::max(25.0, 0.4 * cold_ms);
  const int deadline_requests = QuickScaled(24, 10);
  std::vector<double> latencies_ms;
  int deadline_degraded = 0;
  int deadline_errors = 0;
  for (int i = 0; i < deadline_requests; ++i) {
    UdaoRequest dreq = request;
    const double wl = 0.1 + 0.8 * i / std::max(1, deadline_requests - 1);
    dreq.preference_weights = {wl, 1.0 - wl};
    dreq.options.deadline = Deadline::AfterMs(budget_ms);
    t0 = std::chrono::steady_clock::now();
    auto rec = deadline_service.Submit(dreq).Wait();
    latencies_ms.push_back(MsSince(t0));
    if (rec.ok()) {
      if (rec->degraded) ++deadline_degraded;
      // Valid response: non-empty, mutually non-dominated frontier --
      // degraded or not, a silent empty/inconsistent answer is a bug.
      if (rec->frontier.frontier.empty()) {
        std::fprintf(stderr, "deadline request %d: empty frontier\n", i);
        return 1;
      }
      if (!DominanceConsistent(rec->frontier.frontier)) {
        std::fprintf(stderr,
                     "deadline request %d: dominated point in frontier\n", i);
        return 1;
      }
    } else {
      ++deadline_errors;
      const StatusCode code = rec.status().code();
      if (code != StatusCode::kDeadlineExceeded &&
          code != StatusCode::kUnavailable) {
        std::fprintf(stderr, "deadline request %d: unexpected error %s\n", i,
                     rec.status().ToString().c_str());
        return 1;
      }
    }
  }
  std::vector<double> sorted = latencies_ms;
  std::sort(sorted.begin(), sorted.end());
  const double p99 =
      sorted[static_cast<size_t>(0.99 * (sorted.size() - 1))];
  std::printf("%d requests at %.1f ms budget: p99 %.1f ms (%.2fx budget), "
              "%d degraded, %d explicit errors\n",
              deadline_requests, budget_ms, p99, p99 / budget_ms,
              deadline_degraded, deadline_errors);
  if (p99 > 1.2 * budget_ms) {
    std::fprintf(stderr,
                 "deadline overrun: p99 %.1f ms exceeds 1.2x the %.1f ms "
                 "budget\n",
                 p99, budget_ms);
    return 1;
  }

  // --- Multi-tenant scenario: zipfian traffic, coalesced vs per-request. ---
  // 64 closed-loop clients, each issuing its schedule of (tenant, weights)
  // requests through Submit().Wait(). Tenants share the workload's resolved
  // objective models (one physical model, many request streams), so their
  // identical CO subproblems are shareable; distinct workload ids still route
  // to distinct cache shards. The cache is disabled so every request pays a
  // real solve -- the measured ratio is pure solve throughput. The identical
  // schedule is replayed against a per-request-solve service and a coalescing
  // one; every frontier must match bitwise and the coalesced run must clear
  // the throughput gate.
  std::printf("\n=== multi-tenant scenario: 64 zipfian clients, coalesced vs "
              "per-request solves ===\n\n");
  const int clients = 64;
  const int per_client = QuickScaled(3, 1);
  const int tenants = 6;

  UdaoServiceConfig mtcfg;
  mtcfg.udao = BenchSolverOptions();
  mtcfg.udao.frontier_points = QuickScaled(10, 5);
  mtcfg.udao.pf.mogd.max_iters = 60;
  mtcfg.frontier_cache_capacity = 0;
  mtcfg.admission_threads = clients;

  // Resolve the workload's objectives once and hand every tenant the same
  // model instances; tenants are request streams, not separate models.
  Udao resolver(bp.server.get(), mtcfg.udao);
  UdaoRequest proto = request;
  proto.preference_weights = {0.5, 0.5};
  auto resolved = resolver.ResolveObjectives(proto);
  if (!resolved.ok()) {
    std::fprintf(stderr, "objective resolution failed: %s\n",
                 resolved.status().ToString().c_str());
    return 1;
  }

  // Each tenant carries its own latency SLO: an upper bound placed inside
  // the trade-off span learned from one unconstrained pre-pass solve, so
  // tenants pose genuinely different frontier problems (same models,
  // different constraint boxes) rather than cosmetic copies of one solve.
  Udao prepass(bp.server.get(), mtcfg.udao);
  UdaoRequest span_probe = proto;
  span_probe.objectives = *resolved;
  auto span_rec = prepass.Optimize(span_probe);
  if (!span_rec.ok()) {
    std::fprintf(stderr, "pre-pass solve failed: %s\n",
                 span_rec.status().ToString().c_str());
    return 1;
  }
  const double lat_lo = span_rec->frontier.utopia[0];
  const double lat_hi = span_rec->frontier.nadir[0];
  std::vector<double> tenant_slo(tenants);
  for (int t = 0; t < tenants; ++t) {
    // From a tight-but-feasible 60% of the span up to unconstrained.
    const double f = 0.6 + 0.4 * t / std::max(1, tenants - 1);
    tenant_slo[t] = lat_lo + f * (lat_hi - lat_lo);
  }

  // Zipf(1.1) tenant schedule, fixed up front so both replays see the exact
  // same traffic.
  std::vector<double> zipf_cdf(tenants);
  double zmass = 0.0;
  for (int t = 0; t < tenants; ++t) {
    zmass += 1.0 / std::pow(static_cast<double>(t + 1), 1.1);
    zipf_cdf[t] = zmass;
  }
  Rng zrng(9001);
  std::vector<int> tenant_of(static_cast<size_t>(clients) * per_client);
  for (int& t : tenant_of) {
    const double u = zrng.Uniform(0.0, zmass);
    t = static_cast<int>(std::lower_bound(zipf_cdf.begin(), zipf_cdf.end(), u) -
                         zipf_cdf.begin());
  }

  auto replay = [&](bool coalesce, std::vector<UdaoRecommendation>* out,
                    std::vector<double>* lat_ms, double* wall) -> int {
    UdaoServiceConfig c = mtcfg;
    c.coalesce_solves = coalesce;
    UdaoService mt(bp.server.get(), c);
    out->assign(tenant_of.size(), UdaoRecommendation{});
    lat_ms->assign(tenant_of.size(), 0.0);
    std::vector<int> failures(clients, 0);
    const auto w0 = std::chrono::steady_clock::now();
    std::vector<std::thread> pool;
    pool.reserve(clients);
    for (int cthread = 0; cthread < clients; ++cthread) {
      pool.emplace_back([&, cthread] {
        for (int i = 0; i < per_client; ++i) {
          const size_t slot = static_cast<size_t>(cthread) * per_client + i;
          UdaoRequest req;
          req.workload_id = "tenant" + std::to_string(tenant_of[slot]);
          req.space = &BatchParamSpace();
          req.objectives = *resolved;
          req.objectives[0].upper = tenant_slo[tenant_of[slot]];
          const double wl = 0.1 + 0.8 * (slot % 9) / 8.0;
          req.preference_weights = {wl, 1.0 - wl};
          const auto r0 = std::chrono::steady_clock::now();
          auto rec = mt.Submit(req).Wait();
          (*lat_ms)[slot] = MsSince(r0);
          if (!rec.ok() || rec->degraded || rec->frontier.frontier.empty()) {
            ++failures[cthread];
            continue;
          }
          (*out)[slot] = std::move(*rec);
        }
      });
    }
    for (std::thread& t : pool) t.join();
    *wall = MsSince(w0);
    int failed = 0;
    for (int f : failures) failed += f;
    return failed;
  };

  std::vector<UdaoRecommendation> solo_recs, co_recs;
  std::vector<double> solo_lat, co_lat;
  double solo_wall = 0.0, co_wall = 0.0;
  const int solo_failed = replay(false, &solo_recs, &solo_lat, &solo_wall);
  const int co_failed = replay(true, &co_recs, &co_lat, &co_wall);
  if (solo_failed != 0 || co_failed != 0) {
    std::fprintf(stderr, "multi-tenant failures: %d solo, %d coalesced\n",
                 solo_failed, co_failed);
    return 1;
  }

  // Bitwise identity: with no deadline set, coalescing must not change a
  // single bit of any request's frontier or recommendation.
  for (size_t i = 0; i < solo_recs.size(); ++i) {
    const auto& a = solo_recs[i].frontier.frontier;
    const auto& b = co_recs[i].frontier.frontier;
    bool same = a.size() == b.size() &&
                solo_recs[i].conf_raw == co_recs[i].conf_raw;
    for (size_t p = 0; same && p < a.size(); ++p) {
      same = a[p].conf_encoded == b[p].conf_encoded &&
             a[p].objectives == b[p].objectives;
    }
    if (!same) {
      std::fprintf(stderr,
                   "request %zu: coalesced frontier differs from solo\n", i);
      return 1;
    }
  }

  const size_t total_requests = tenant_of.size();
  std::vector<double> co_sorted = co_lat;
  std::sort(co_sorted.begin(), co_sorted.end());
  const double co_p99 =
      co_sorted[static_cast<size_t>(0.99 * (co_sorted.size() - 1))];
  const double ratio = co_wall > 0 ? solo_wall / co_wall : 0.0;
  std::printf("%zu requests from %d clients over %d tenants:\n",
              total_requests, clients, tenants);
  std::printf("  per-request solves: %.0f ms wall (%.1f req/s)\n", solo_wall,
              1e3 * total_requests / solo_wall);
  std::printf("  coalesced solves:   %.0f ms wall (%.1f req/s), p99 %.0f ms\n",
              co_wall, 1e3 * total_requests / co_wall, co_p99);
  std::printf("  throughput ratio: %.2fx (frontiers bitwise-identical)\n",
              ratio);
  const double ratio_floor = o.quick ? 1.2 : 2.0;
  if (ratio < ratio_floor) {
    std::fprintf(stderr,
                 "coalescing throughput ratio %.2fx below the %.1fx floor\n",
                 ratio, ratio_floor);
    return 1;
  }
  return 0;
  });
}
