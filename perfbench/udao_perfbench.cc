// Closed-loop serving benchmark for UdaoService::Submit().
//
//   udao_perfbench --workload <cold_solve|warm_repeat|tenant_mix> --seed N
//                  --seconds S --trace <0|1> [--tiny]
//   udao_perfbench --self-test
//
// Set-up (simulator traces plus model training) is timed on its own and
// repeated; the timed phase then drives the service with blocking clients
// (each waits for its answer before sending the next request) for S seconds.
// Every response is checked: OK and not degraded, a mutually non-dominated
// frontier, and a recommended point inside the request's value bounds.
//
// With --trace 0 the run prints the end-to-end metrics. With --trace 1 it runs
// the timed phase twice, plain and traced, and prints per-layer metrics taken
// from outside the program: kernel and registry sweeps, a timing decorator on
// the objective models, the registry's own counters and span histograms, and
// timed calls of public tuning functions over the served frontiers.
//
// Each report line reads `metric <name> <value> <unit> n=<samples>`; the last
// line is one JSON object {"correct", "attempted", "failed", "metrics"}.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/metrics_registry.h"
#include "common/random.h"
#include "moo/pareto.h"
#include "nn/kernels.h"
#include "serving/udao_service.h"
#include "tuning/udao.h"
#include "workload/trace_gen.h"

#include "layers.h"

namespace udao {
namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Arguments

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  bool self_test = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--self-test") {
      args->self_test = true;
    } else if (flag == "--tiny") {
      args->tiny = true;
    } else if (flag == "--workload" && has_value) {
      args->workload = argv[++i];
    } else if (flag == "--seed" && has_value) {
      args->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--seconds" && has_value) {
      args->seconds = std::strtod(argv[++i], nullptr);
    } else if (flag == "--trace" && has_value) {
      args->trace = std::strcmp(argv[++i], "1") == 0;
    } else {
      return false;
    }
  }
  if (args->self_test) return true;
  return (args->workload == "cold_solve" || args->workload == "warm_repeat" ||
          args->workload == "tenant_mix") &&
         args->seconds > 0.0;
}

// ---------------------------------------------------------------------------
// Set-up: simulator traces and model training for a few TPCx-BB jobs.

// Three TPCx-BB jobs of different templates; every workload serves these.
constexpr int kJobs[] = {3, 9, 14};

struct Job {
  std::unique_ptr<BatchWorkload> batch;
  /// Latency model (floored) and analytic cost, as the service resolves them.
  std::vector<ObjectiveSpec> resolved;
  /// Latency span of the unconstrained frontier: value bounds are drawn
  /// inside it, so every request is feasible.
  double lat_lo = 0.0;
  double lat_hi = 0.0;
};

struct Stack {
  std::unique_ptr<ModelServer> server;
  SparkEngine engine;
  std::vector<Job> jobs;
  double setup_s = 0.0;
  std::vector<double> train_ms;  // one entry per trained model
};

std::unique_ptr<Stack> Setup(bool tiny) {
  const auto t0 = Clock::now();
  auto stack = std::make_unique<Stack>();
  ModelServerConfig cfg;  // the served 64x64 DNN
  if (tiny) cfg.dnn.train.epochs = 20;
  stack->server = std::make_unique<ModelServer>(cfg);
  const int traces = tiny ? 30 : 120;
  for (int job : kJobs) {
    Job j;
    j.batch = std::make_unique<BatchWorkload>(MakeTpcxbbWorkload(job));
    // Offline sampling mix: space-filling plus latency-guided samples, and
    // allocation anchors so the model sees the starved corner.
    Rng rng(1000 + job);
    auto configs = SampleConfigs(BatchParamSpace(), (2 * traces) / 3,
                                 SamplingStrategy::kLatinHypercube, &rng);
    auto guided = BoGuidedConfigs(
        BatchParamSpace(), std::max(1, traces / 6),
        [&](const Vector& raw) {
          return stack->engine.Latency(j.batch->flow, raw);
        },
        &rng);
    configs.insert(configs.end(), guided.begin(), guided.end());
    for (double execs : {2.0, 8.0, 16.0, 28.0}) {
      for (double cores : {1.0, 4.0, 8.0}) {
        Vector raw = BatchParamSpace().Defaults();
        raw[1] = execs;
        raw[2] = cores;
        configs.push_back(raw);
      }
    }
    CollectBatchTraces(stack->engine, *j.batch, configs, stack->server.get());
    const auto train0 = Clock::now();
    auto model = stack->server->GetModel(j.batch->id, objectives::kLatency);
    if (!model.ok()) {
      std::fprintf(stderr, "training failed: %s\n",
                   model.status().ToString().c_str());
      std::exit(1);
    }
    stack->train_ms.push_back(MsSince(train0));
    stack->jobs.push_back(std::move(j));
  }
  stack->setup_s = MsSince(t0) / 1e3;
  return stack;
}

UdaoRequest BaseRequest(const Job& job) {
  UdaoRequest req;
  req.workload_id = job.batch->id;
  req.space = &BatchParamSpace();
  req.flow = &job.batch->flow;
  req.objectives = {{.name = objectives::kLatency},
                    {.name = objectives::kCostCores}};
  req.preference_weights = {0.5, 0.5};
  return req;
}

// Resolves each job's models and measures the latency span of its
// unconstrained frontier. Runs outside every timed phase.
bool Calibrate(Stack* stack, const SolverOptions& options) {
  Udao udao(stack->server.get(), options);
  for (Job& job : stack->jobs) {
    auto resolved = udao.ResolveObjectives(BaseRequest(job));
    if (!resolved.ok()) return false;
    job.resolved = *resolved;
    UdaoRequest req = BaseRequest(job);
    req.objectives = job.resolved;
    auto rec = udao.Optimize(req);
    if (!rec.ok() || rec->frontier.frontier.empty()) return false;
    job.lat_lo = rec->frontier.utopia[0];
    job.lat_hi = rec->frontier.nadir[0];
  }
  return true;
}

// ---------------------------------------------------------------------------
// Workloads. Each client draws its requests from its own seeded stream.

// Share of the latency span [lo, hi] an upper bound may cut away: bounds at
// or above lo + kMinSloFrac * (hi - lo) keep a wide feasible region, which
// keeps PF away from near-infeasible subproblems.
constexpr double kMinSloFrac = 0.5;

// warm_repeat keys per job (latency SLO fractions) and densify variants.
constexpr double kWarmSlo[] = {0.55, 0.7, 0.85, 1.0};
constexpr int kWarmDensify[] = {0, 8, 16};
// tenant_mix: SLO levels per job (tenants), kStage share, ingest cadence.
constexpr int kTenantSlos = 10;
constexpr int kStageEvery = 4;
constexpr int kIngestEvery = 2;

struct WorkloadSpec {
  int clients = 1;
  /// True when requests carry explicitly resolved models (which a traced
  /// phase wraps in TimedModel); false routes model resolution, and so the
  /// model server's lazy fine-tunes, through the service.
  bool explicit_models = true;
  /// Percentile reported as tail_ms: the highest of p90/p99 with at least 10
  /// samples beyond it at a 20 s run (cold_solve ~170 requests, tenant_mix
  /// ~280, warm_repeat ~580k). Fixed per workload, so a slow run reports the
  /// same percentile as a fast one. p99.9 is left out: on warm_repeat it
  /// lands in scheduler and hypervisor stalls and moved by 15-35% from run
  /// to run on a 4-vCPU VM (p99: 3%).
  double tail_percentile = 90.0;
};

// warm_repeat runs 2 clients: one alone was bimodal, and with 4 clients plus
// the 4 admission workers on 4 cores its p99 was set by the benchmark's own
// oversubscription and moved by up to 29% between runs (2 clients: 6%).
WorkloadSpec SpecFor(const std::string& workload) {
  if (workload == "cold_solve") return {1, true, 90.0};
  if (workload == "warm_repeat") return {2, true, 99.0};
  return {4, false, 90.0};
}

struct Tenant {
  int job = 0;
  double slo_frac = 1.0;
};

// The fixed key set of a workload: warm_repeat's primed keys, jittered by
// the seed, and tenant_mix's tenants. cold_solve has none.
std::vector<Tenant> KeySet(const std::string& workload, uint64_t seed,
                           int num_jobs) {
  Rng rng(seed * 7919 + 17);
  std::vector<Tenant> keys;
  if (workload == "warm_repeat") {
    for (int j = 0; j < num_jobs; ++j) {
      for (double f : kWarmSlo) {
        keys.push_back({j, std::min(1.0, f + rng.Uniform(-0.03, 0.0))});
      }
    }
  } else if (workload == "tenant_mix") {
    // Tenant SLOs are a fixed grid: per-tenant solve cost differs widely, and
    // a seeded grid would move the workload's cost from seed to seed.
    for (int j = 0; j < num_jobs; ++j) {
      for (int t = 0; t < kTenantSlos; ++t) {
        keys.push_back(
            {j, kMinSloFrac + (1.0 - kMinSloFrac) * (t + 0.5) / kTenantSlos});
      }
    }
  }
  return keys;
}

struct Planned {
  UdaoRequest request;
  int job = 0;
  bool ingest_after = false;
};

class RequestSource {
 public:
  RequestSource(const std::string& workload, const Stack& stack,
                const std::vector<std::vector<ObjectiveSpec>>& models,
                const std::vector<Tenant>& keys)
      : workload_(workload), stack_(stack), models_(models), keys_(keys) {}

  // Whether keys are picked by a seeded stream. tenant_mix picks tenants
  // from the same stream in every run: tenants differ widely in solve cost,
  // and a seeded mix would move the workload's cost from seed to seed.
  // Random picks (not round-robin) let concurrent clients collide on a
  // tenant now and then, which is what the coalescer's dedup and memo serve.
  bool SeededKeys() const { return workload_ != "tenant_mix"; }

  // Request `i` of a client: `rng` is the client's seeded stream, `key_rng`
  // its key stream (see SeededKeys).
  Planned Next(long long i, Rng* rng, Rng* key_rng) const {
    Planned p;
    double frac = 1.0;
    if (workload_ == "cold_solve") {
      p.job = static_cast<int>(i % static_cast<long long>(stack_.jobs.size()));
      frac = rng->Uniform(kMinSloFrac, 1.0);
    } else {
      const Tenant& t = keys_[static_cast<size_t>(
          key_rng->UniformInt(0, static_cast<int>(keys_.size()) - 1))];
      p.job = t.job;
      frac = t.slo_frac;
    }
    const Job& job = stack_.jobs[static_cast<size_t>(p.job)];
    p.request = BaseRequest(job);
    if (!models_.empty()) {
      p.request.objectives = models_[static_cast<size_t>(p.job)];
    }
    p.request.objectives[0].upper =
        job.lat_lo + frac * (job.lat_hi - job.lat_lo);
    const double wl = rng->Uniform(0.1, 0.9);
    p.request.preference_weights = {wl, 1.0 - wl};
    if (workload_ == "warm_repeat") {
      const int policy = rng->UniformInt(0, 2);
      p.request.options.policy = policy == 0   ? RecommendPolicy::kWun
                                 : policy == 1 ? RecommendPolicy::kKnee
                                               : RecommendPolicy::kSlope;
      p.request.options.densify_samples =
          kWarmDensify[rng->UniformInt(0, 2)];
    } else if (workload_ == "tenant_mix") {
      if (i % kStageEvery == kStageEvery - 1) {
        p.request.options.adaptive.granularity = AdaptiveGranularity::kStage;
      }
      p.ingest_after = i % kIngestEvery == kIngestEvery - 1;
    }
    return p;
  }

 private:
  const std::string& workload_;
  const Stack& stack_;
  const std::vector<std::vector<ObjectiveSpec>>& models_;
  const std::vector<Tenant>& keys_;
};

// ---------------------------------------------------------------------------
// Response checks

uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h * 0xff51afd7ed558ccdULL;
}

uint64_t MixDouble(uint64_t h, double d) {
  uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  return Mix(h, bits);
}

uint64_t MixVector(uint64_t h, const Vector& v) {
  for (double d : v) h = MixDouble(h, d);
  return h;
}

// Bitwise digest of a response: frontier objectives and configurations plus
// the recommended configuration.
uint64_t ResponseDigest(const UdaoRecommendation& rec) {
  uint64_t h = 1469598103934665603ULL;
  for (const MooPoint& p : rec.frontier.frontier) {
    h = MixVector(h, p.objectives);
    h = MixVector(h, p.conf_encoded);
  }
  return MixVector(h, rec.conf_encoded);
}

bool WithinBounds(const ObjectiveSpec& spec, double value) {
  auto slack = [](double bound) {
    return 1e-6 * std::max(1.0, std::fabs(bound));
  };
  return value >= spec.lower - slack(spec.lower) &&
         value <= spec.upper + slack(spec.upper);
}

// Empty when the frontier passes; else why it does not. All served
// objectives are minimized, so frontier values are in natural orientation.
std::string CheckFrontier(const UdaoRequest& req,
                          const std::vector<MooPoint>& frontier) {
  if (frontier.empty()) return "empty frontier";
  if (!MutuallyNonDominated(frontier)) return "dominated frontier point";
  for (const MooPoint& p : frontier) {
    for (size_t j = 0; j < req.objectives.size(); ++j) {
      if (!WithinBounds(req.objectives[j], p.objectives[j])) {
        return "frontier point outside the value bounds";
      }
    }
  }
  return "";
}

// Frontier share of its own utopia-nadir box that it dominates.
double HvShare(const PfResult& f) {
  const double box = HyperrectVolume(f.utopia, f.nadir);
  return box > 0.0 ? BoxHypervolume(f.frontier, f.utopia, f.nadir) / box : 0.0;
}

// Per-client memo of verified frontiers, keyed by a hash of the frontier's
// objective values and the request's bounds: warm repeats serve a handful of
// frontiers many times, and rechecking each copy would dominate the client
// loop. The recommended point is located on the frontier for every response.
class Checker {
 public:
  // Empty when the response passes; fills *hv with its hypervolume share.
  std::string Check(const UdaoRequest& req,
                    const StatusOr<UdaoRecommendation>& rec, double* hv) {
    if (!rec.ok()) return "status " + rec.status().ToString();
    if (rec->degraded) return "degraded response";
    const PfResult& f = rec->frontier;
    uint64_t key = MixVector(MixVector(7, f.utopia), f.nadir);
    for (const MooPoint& p : f.frontier) key = MixVector(key, p.objectives);
    for (const ObjectiveSpec& o : req.objectives) {
      key = MixDouble(MixDouble(key, o.lower), o.upper);
    }
    auto it = verified_.find(key);
    if (it == verified_.end()) {
      std::string why = CheckFrontier(req, f.frontier);
      if (!why.empty()) return why;
      it = verified_.emplace(key, HvShare(f)).first;
    }
    *hv = it->second;
    for (const MooPoint& p : f.frontier) {
      if (p.conf_encoded == rec->conf_encoded) return "";
    }
    return "recommended configuration is not on the frontier";
  }

 private:
  std::unordered_map<uint64_t, double> verified_;
};

// ---------------------------------------------------------------------------
// Timed phase

struct Kept {
  UdaoRequest request;
  UdaoRecommendation rec;
};

struct PhaseResult {
  /// Request latencies, sorted ascending (float: ample precision, and half
  /// the benchmark's own resident memory at warm-path request counts).
  std::vector<float> latency_ms;
  /// Peak resident memory when the timed phase ends, before any of the
  /// benchmark's result aggregation.
  double peak_rss_mb = 0.0;
  long long attempted = 0;
  long long failed = 0;
  double hv_sum = 0.0;
  long long hv_n = 0;
  double wall_s = 0.0;
  long long ingests = 0;
  double ingest_us_sum = 0.0;
  std::string first_failure;
  /// The first responses of client 0 with their requests, in order.
  std::vector<Kept> kept;
  UdaoServiceStats stats_before;
  UdaoServiceStats stats_after;
};

constexpr int kKeep = 16;

struct ClientOut {
  std::vector<float> latency_ms;
  long long attempted = 0;
  long long failed = 0;
  double hv_sum = 0.0;
  long long hv_n = 0;
  long long ingests = 0;
  double ingest_us_sum = 0.0;
  std::string first_failure;
  std::vector<Kept> kept;
};

// Drives `service` with `clients` blocking clients until `seconds` elapse.
PhaseResult RunTimed(UdaoService* service, Stack* stack,
                     const RequestSource& source, int clients,
                     uint64_t seed, double seconds) {
  PhaseResult out;
  out.stats_before = service->stats();
  std::vector<ClientOut> per(static_cast<size_t>(clients));
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      ClientOut& co = per[static_cast<size_t>(c)];
      co.latency_ms.reserve(1 << 20);
      Rng rng(seed * 1000003 + static_cast<uint64_t>(c) * 7907 + 1);
      Rng key_rng(source.SeededKeys() ? seed * 7 + static_cast<uint64_t>(c)
                                      : 77 + static_cast<uint64_t>(c));
      Checker checker;
      for (long long i = 0; Clock::now() < end; ++i) {
        Planned p = source.Next(i, &rng, &key_rng);
        const auto t0 = Clock::now();
        RequestTicket ticket = service->Submit(p.request);
        StatusOr<UdaoRecommendation> rec = ticket.Wait();
        co.latency_ms.push_back(static_cast<float>(MsSince(t0)));
        ++co.attempted;
        double hv = 0.0;
        const std::string why = checker.Check(p.request, rec, &hv);
        if (!why.empty()) {
          ++co.failed;
          if (co.first_failure.empty()) co.first_failure = why;
        } else {
          co.hv_sum += hv;
          ++co.hv_n;
          if (c == 0 && static_cast<int>(co.kept.size()) < kKeep) {
            co.kept.push_back({p.request, *rec});
          }
        }
        if (p.ingest_after) {
          // A fresh simulator trace for the job just served: bumps the
          // job's model generation and, every few traces, arms a fine-tune
          // that the next request resolving the model pays for. The traced
          // configurations do not depend on the seed, so the models evolve
          // alike in every run.
          const Job& job = stack->jobs[static_cast<size_t>(p.job)];
          Rng ingest_rng(5000 + static_cast<uint64_t>(c) * 100003 +
                         static_cast<uint64_t>(co.ingests));
          const Vector raw = BatchParamSpace().Sample(&ingest_rng);
          const double latency = stack->engine.Latency(job.batch->flow, raw);
          const auto i0 = Clock::now();
          Status st = stack->server->Ingest(job.batch->id,
                                            objectives::kLatency,
                                            BatchParamSpace().Encode(raw),
                                            latency);
          co.ingest_us_sum += MsSince(i0) * 1e3;
          ++co.ingests;
          ++co.attempted;
          if (!st.ok()) {
            ++co.failed;
            if (co.first_failure.empty()) co.first_failure = st.ToString();
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  out.wall_s = MsSince(start) / 1e3;
  out.peak_rss_mb = PeakRssMb();
  out.stats_after = service->stats();
  for (ClientOut& co : per) {
    out.latency_ms.insert(out.latency_ms.end(), co.latency_ms.begin(),
                          co.latency_ms.end());
    out.attempted += co.attempted;
    out.failed += co.failed;
    out.hv_sum += co.hv_sum;
    out.hv_n += co.hv_n;
    out.ingests += co.ingests;
    out.ingest_us_sum += co.ingest_us_sum;
    if (out.first_failure.empty()) out.first_failure = co.first_failure;
  }
  std::sort(out.latency_ms.begin(), out.latency_ms.end());
  out.kept = std::move(per[0].kept);
  return out;
}

// Untimed requests that fill the cache before a timed phase: the first miss
// per key, then the first densified hit per (key, densify variant).
bool Prime(UdaoService* service, const std::string& workload,
           const Stack& stack,
           const std::vector<std::vector<ObjectiveSpec>>& models,
           const std::vector<Tenant>& keys) {
  std::vector<RequestTicket> tickets;
  auto submit = [&](const Tenant& t, int densify) {
    const Job& job = stack.jobs[static_cast<size_t>(t.job)];
    UdaoRequest req = BaseRequest(job);
    if (!models.empty()) req.objectives = models[static_cast<size_t>(t.job)];
    req.objectives[0].upper = job.lat_lo + t.slo_frac * (job.lat_hi -
                                                         job.lat_lo);
    req.options.densify_samples = densify;
    tickets.push_back(service->Submit(req));
  };
  std::vector<Tenant> primed = keys;
  if (workload == "cold_solve") {
    // No key repeats; two requests warm lazily built solver state.
    for (int j = 0; j < static_cast<int>(stack.jobs.size()) && j < 2; ++j) {
      primed.push_back({j, 1.0});
    }
  }
  for (const Tenant& t : primed) submit(t, 0);
  for (RequestTicket& t : tickets) {
    if (!t.Wait().ok()) return false;
  }
  tickets.clear();
  if (workload == "warm_repeat") {
    for (const Tenant& t : primed) {
      for (int d : kWarmDensify) {
        if (d > 0) submit(t, d);
      }
    }
    for (RequestTicket& t : tickets) {
      if (!t.Wait().ok()) return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Report

// Nearest-rank percentile of an ascending sample.
double Percentile(const std::vector<float>& v, double p) {
  if (v.empty()) return 0.0;
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const size_t idx = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return v[std::min(idx, v.size() - 1)];
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  long long n;
  std::string note;
};

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           long long n, const std::string& note = "") {
    metrics_.push_back({name, value, unit, n, note});
  }

  void Print(bool correct, long long attempted, long long failed) const {
    for (const Metric& m : metrics_) {
      std::printf("metric %s %.9g %s n=%lld%s%s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.n, m.note.empty() ? "" : " ",
                  m.note.c_str());
    }
    std::string json = std::string("{\"correct\": ") +
                       (correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(attempted) +
                       ", \"failed\": " + std::to_string(failed) +
                       ", \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g", metrics_[i].value);
      json += (i == 0 ? "\"" : ", \"") + metrics_[i].name +
              "\": {\"value\": " + value + ", \"unit\": \"" +
              metrics_[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
  }

 private:
  std::vector<Metric> metrics_;
};

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// Co-solve reuse split of the coalescer's registry counters since the last
// reset: subproblems answered by singleflight dedup, by the solved-subproblem
// memo, by fused (multi-problem) descents, and by single-problem descents.
struct Reuse {
  double total = 0.0;
  double dedup = 0.0;
  double memo = 0.0;
  double fused = 0.0;
  double solo = 0.0;
};

Reuse ReadReuse() {
  Reuse r;
  r.total = HistSum("udao.coalescer.flush_problems");
  r.dedup = static_cast<double>(Counter("udao.coalescer.dedup_hits"));
  r.memo = static_cast<double>(Counter("udao.coalescer.memo_hits"));
  const double solved = HistSum("udao.coalescer.chunk_problems");
  r.solo =
      static_cast<double>(HistOnes("udao.coalescer.chunk_problems"));
  r.fused = solved - r.solo;
  return r;
}

double Share(double part, double whole) {
  return whole > 0.0 ? part / whole : 0.0;
}

void PrintReuse(const Reuse& r) {
  std::printf(
      "reuse: %.0f co-subproblems in the timed phase: dedup %.4f, memo "
      "%.4f, fused %.4f, solo %.4f\n",
      r.total, Share(r.dedup, r.total), Share(r.memo, r.total),
      Share(r.fused, r.total), Share(r.solo, r.total));
}

// ---------------------------------------------------------------------------
// Self-test: the frontier check must accept a valid frontier and reject a
// planted dominated one.

int SelfTest() {
  UdaoRequest req;
  req.objectives = {{.name = "a"}, {.name = "b"}};
  auto point = [](double a, double b) {
    MooPoint p;
    p.objectives = {a, b};
    p.conf_encoded = {a};
    return p;
  };
  const std::vector<MooPoint> valid = {point(1, 3), point(2, 2), point(3, 1)};
  const std::vector<MooPoint> planted = {point(1, 3), point(2, 2),
                                         point(2.5, 2.5), point(3, 1)};
  UdaoRequest bounded = req;
  bounded.objectives[0].upper = 2.5;
  const bool valid_ok = CheckFrontier(req, valid).empty();
  const bool planted_ok = CheckFrontier(req, planted).empty();
  const bool bounded_ok = CheckFrontier(bounded, valid).empty();
  std::printf("self-test: valid frontier %s, planted dominated frontier %s, "
              "out-of-bounds frontier %s\n",
              valid_ok ? "accepted" : "REJECTED",
              planted_ok ? "ACCEPTED" : "rejected",
              bounded_ok ? "ACCEPTED" : "rejected");
  const bool ok = valid_ok && !planted_ok && !bounded_ok;
  return ok ? 0 : 1;
}

// ---------------------------------------------------------------------------

std::vector<std::vector<ObjectiveSpec>> PlainModels(const Stack& stack,
                                                    bool explicit_models) {
  std::vector<std::vector<ObjectiveSpec>> models;
  if (!explicit_models) return models;
  for (const Job& job : stack.jobs) models.push_back(job.resolved);
  return models;
}

std::vector<std::vector<ObjectiveSpec>> TimedModels(const Stack& stack,
                                                    bool explicit_models,
                                                    ModelLayerStats* stats) {
  std::vector<std::vector<ObjectiveSpec>> models =
      PlainModels(stack, explicit_models);
  for (auto& objectives : models) {
    // The learned latency model; the analytic cost model is left bare.
    objectives[0].model =
        std::make_shared<TimedModel>(objectives[0].model, stats);
  }
  return models;
}

struct PhaseSetup {
  std::unique_ptr<UdaoService> service;
  PhaseResult result;
  bool primed = false;
};

UdaoServiceConfig ServiceConfig(Stack* stack) {
  UdaoServiceConfig cfg;  // the service's own defaults
  cfg.engine = &stack->engine;
  return cfg;
}

PhaseSetup RunPhase(Stack* stack, const Args& args, double seconds,
                    const std::vector<std::vector<ObjectiveSpec>>& models,
                    const std::vector<Tenant>& keys,
                    ModelLayerStats* model_stats = nullptr) {
  PhaseSetup ps;
  ps.service = std::make_unique<UdaoService>(stack->server.get(),
                                             ServiceConfig(stack));
  ps.primed = Prime(ps.service.get(), args.workload, *stack, models, keys);
  MetricsRegistry::Global().Reset();
  if (model_stats != nullptr) model_stats->Reset();
  RequestSource source(args.workload, *stack, models, keys);
  ps.result = RunTimed(ps.service.get(), stack, source,
                       SpecFor(args.workload).clients, args.seed, seconds);
  return ps;
}

// Re-solves the first kept requests on a fresh service and compares digests.
bool Repeatable(Stack* stack, const PhaseResult& r, int count) {
  UdaoService fresh(stack->server.get(), ServiceConfig(stack));
  for (int i = 0; i < count && i < static_cast<int>(r.kept.size()); ++i) {
    const Kept& k = r.kept[static_cast<size_t>(i)];
    auto rec = fresh.Submit(k.request).Wait();
    if (!rec.ok() || ResponseDigest(*rec) != ResponseDigest(k.rec)) {
      return false;
    }
  }
  return true;
}

int Run(const Args& args) {
  const WorkloadSpec spec = SpecFor(args.workload);
  std::printf("udao_perfbench workload=%s seed=%llu seconds=%g trace=%d "
              "kernel=%s clients=%d loop=closed\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, kernels::ActiveTable()->name,
              spec.clients);

  // An untraced run times set-up 7 times and reports the median: 4 set-ups
  // before the timed phase (the last stack serves the run) and 3 after it,
  // so the samples span the run rather than the few seconds before it (the
  // host's speed drifts on that scale).
  const int setups_before = args.trace ? 1 : 4;
  const int setups_after = args.trace ? 0 : 3;
  std::vector<double> setup_s;
  std::vector<double> train_ms;
  auto set_up = [&] {
    std::unique_ptr<Stack> s = Setup(args.tiny);
    setup_s.push_back(s->setup_s);
    train_ms.insert(train_ms.end(), s->train_ms.begin(), s->train_ms.end());
    return s;
  };
  std::unique_ptr<Stack> stack;
  for (int i = 0; i < setups_before; ++i) {
    stack.reset();
    stack = set_up();
  }
  const UdaoServiceConfig base_cfg = ServiceConfig(stack.get());
  if (!Calibrate(stack.get(), base_cfg.udao)) {
    std::fprintf(stderr, "calibration solve failed\n");
    return 1;
  }
  const std::vector<Tenant> keys =
      KeySet(args.workload, args.seed, static_cast<int>(stack->jobs.size()));

  Report report;
  bool correct = true;

  // Plain (untraced) timed phase. A traced run splits its time between this
  // phase and the traced one, so both kinds of run take about as long.
  const double phase_s = args.trace ? args.seconds / 2 : args.seconds;
  PhaseSetup plain = RunPhase(stack.get(), args, phase_s,
                              PlainModels(*stack, spec.explicit_models), keys);
  const PhaseResult& r = plain.result;
  const Reuse reuse = ReadReuse();
  const double p50 = Percentile(r.latency_ms, 50);
  if (!plain.primed) {
    correct = false;
    std::printf("check: priming request failed\n");
  }
  if (r.failed > 0) {
    correct = false;
    std::printf("check: %lld of %lld operations failed; first: %s\n",
                r.failed, r.attempted, r.first_failure.c_str());
  }
  if (args.workload == "cold_solve") {
    uint64_t digest = 1469598103934665603ULL;
    for (const Kept& k : r.kept) digest = Mix(digest, ResponseDigest(k.rec));
    const bool repeat = Repeatable(stack.get(), r, 4);
    correct = correct && repeat;
    std::printf("digest %s over the first %zu frontiers; re-solve on a fresh "
                "service %s\n",
                Hex(digest).c_str(), r.kept.size(),
                repeat ? "repeats it" : "DIFFERS");
  }
  if (args.workload != "warm_repeat") PrintReuse(reuse);
  const long long n = static_cast<long long>(r.latency_ms.size());
  const UdaoServiceStats& s0 = r.stats_before;
  const UdaoServiceStats& s1 = r.stats_after;
  std::printf("service: %lld requests, %lld hits, %lld misses, %lld "
              "invalidations, %lld evictions, %lld ingests in the timed "
              "phase\n",
              s1.requests - s0.requests, s1.cache_hits - s0.cache_hits,
              s1.cache_misses - s0.cache_misses,
              s1.invalidations - s0.invalidations,
              s1.evictions - s0.evictions, r.ingests);

  std::printf("latency: p50 %.6g p90 %.6g p99 %.6g p99.9 %.6g max %.6g ms "
              "over %lld requests\n",
              Percentile(r.latency_ms, 50), Percentile(r.latency_ms, 90),
              Percentile(r.latency_ms, 99), Percentile(r.latency_ms, 99.9),
              Percentile(r.latency_ms, 100), n);

  if (!args.trace) {
    for (int i = 0; i < setups_after; ++i) set_up();
    const double tail_p = spec.tail_percentile;
    char tail_note[32];
    std::snprintf(tail_note, sizeof(tail_note), "percentile=p%g", tail_p);
    report.Add("setup_s", Median(setup_s), "s",
               static_cast<long long>(setup_s.size()));
    report.Add("p50_ms", p50, "ms", n);
    report.Add("tail_ms", Percentile(r.latency_ms, tail_p), "ms", n,
               tail_note);
    report.Add("req_per_s", static_cast<double>(n) / r.wall_s, "1/s", n);
    report.Add("ok_share",
               r.attempted > 0 ? static_cast<double>(r.attempted - r.failed) /
                                     static_cast<double>(r.attempted)
                               : 0.0,
               "share", r.attempted);
    report.Add("frontier_hv",
               r.hv_n > 0 ? r.hv_sum / static_cast<double>(r.hv_n) : 0.0,
               "share", r.hv_n);
    report.Add("peak_rss_mb", r.peak_rss_mb, "MiB", 1);
    report.Print(correct, r.attempted, r.failed);
    return 0;
  }

  // Traced run: sweeps, then the same timed phase with decorated models.
  const std::vector<int> sweep_rows = {1, 8, 64, 512};
  const KernelSweep sweep = SweepKernels(sweep_rows, 42);
  const ModelSweep model_sweep =
      SweepModel(*stack->jobs[0].resolved[0].model, sweep_rows, 42);
  const double add_counter_ns = AddCounterNs();
  std::printf("sweep: kernel backend %s, rows 1/8/64/512, 64x64 hidden, "
              "seed 42\n",
              kernels::ActiveTable()->name);

  // A fresh stack, so both phases start from the same server state:
  // tenant_mix's ingests and fine-tunes would otherwise carry over.
  plain.service.reset();
  stack.reset();
  stack = set_up();
  if (!Calibrate(stack.get(), base_cfg.udao)) {
    std::fprintf(stderr, "calibration solve failed\n");
    return 1;
  }

  ModelLayerStats model_stats;
  PhaseSetup traced = RunPhase(
      stack.get(), args, phase_s,
      TimedModels(*stack, spec.explicit_models, &model_stats), keys,
      &model_stats);
  const PhaseResult& t = traced.result;
  const Reuse treuse = ReadReuse();
  if (!traced.primed || t.failed > 0) {
    correct = false;
    std::printf("check: traced phase: %lld of %lld operations failed; "
                "first: %s\n",
                t.failed, t.attempted, t.first_failure.c_str());
  }
  const double requests =
      static_cast<double>(t.stats_after.requests - t.stats_before.requests);
  const long long tn = static_cast<long long>(t.latency_ms.size());

  for (size_t i = 0; i < sweep.rows.size(); ++i) {
    const std::string b = ".b" + std::to_string(sweep.rows[i]);
    report.Add("kernels.layer_forward_ns_per_row" + b,
               sweep.layer_forward_ns_per_row[i], "ns", 5);
    report.Add("kernels.gemm_nn_ns_per_row" + b, sweep.gemm_nn_ns_per_row[i],
               "ns", 5);
    report.Add("model.sweep.predict_us_per_row" + b,
               model_sweep.predict_us_per_row[i], "us", 5);
    report.Add("model.sweep.gradient_us_per_row" + b,
               model_sweep.gradient_us_per_row[i], "us", 5);
  }
  report.Add("metrics.add_counter_ns", add_counter_ns, "ns", 5);
  double train_sum = 0.0;
  for (double v : train_ms) train_sum += v;
  report.Add("nn.train_ms_per_model",
             train_ms.empty() ? 0.0 : train_sum / train_ms.size(), "ms",
             static_cast<long long>(train_ms.size()));

  const double cores = base_cfg.udao.solver_threads;
  auto per_row_us = [](const CallStats& c) {
    const long long rows = c.rows.load();
    return rows > 0 ? static_cast<double>(c.ns.load()) / 1e3 / rows : 0.0;
  };
  if (spec.explicit_models) {
    const CallStats& g = model_stats.gradient;
    const long long gcalls = g.calls.load();
    report.Add("model.gradient_batch.calls", static_cast<double>(gcalls),
               "count", gcalls, "source=decorator");
    report.Add("model.gradient_batch.rows_per_call",
               gcalls > 0 ? static_cast<double>(g.rows.load()) / gcalls : 0.0,
               "rows", gcalls);
    report.Add("model.gradient_batch.us_per_row", per_row_us(g), "us",
               g.rows.load());
    report.Add("model.gradient_batch.busy_share",
               static_cast<double>(g.ns.load()) / 1e9 / (t.wall_s * cores),
               "share", gcalls);
  } else {
    // Server-resolved models cannot be decorated; MOGD's own evaluation
    // counters (both objectives) stand in.
    const long long calls = Counter("udao.mogd.batch_calls");
    const long long rows = Counter("udao.mogd.model_evals");
    const double eval_ms = HistSum("udao.mogd.eval_ms");
    report.Add("model.gradient_batch.calls", static_cast<double>(calls),
               "count", calls, "source=mogd_counters");
    report.Add("model.gradient_batch.rows_per_call",
               calls > 0 ? static_cast<double>(rows) / calls : 0.0, "rows",
               calls);
    report.Add("model.gradient_batch.us_per_row",
               rows > 0 ? eval_ms * 1e3 / rows : 0.0, "us", rows);
    report.Add("model.gradient_batch.busy_share",
               eval_ms / 1e3 / (t.wall_s * cores), "share", calls);
  }
  const CallStats& pr = model_stats.predict;
  const CallStats& un = model_stats.uncertainty;
  report.Add("model.predict_batch.calls", static_cast<double>(pr.calls.load()),
             "count", pr.calls.load());
  report.Add("model.predict_batch.us_per_row", per_row_us(pr), "us",
             pr.rows.load());
  report.Add("model.uncertainty_batch.calls",
             static_cast<double>(un.calls.load()), "count", un.calls.load());
  report.Add("model.uncertainty_batch.us_per_row", per_row_us(un), "us",
             un.rows.load());
  report.Add("model_server.ingest_us",
             t.ingests > 0 ? t.ingest_us_sum / t.ingests : 0.0, "us",
             t.ingests);
  report.Add("model_server.finetunes",
             static_cast<double>(Counter("udao.model.finetune")), "count",
             1);
  report.Add("model_server.train_full",
             static_cast<double>(Counter("udao.model.train_full")),
             "count", 1);

  auto per_request = [&](double v) {
    return requests > 0 ? v / requests : 0.0;
  };
  report.Add("pf.probes_per_request",
             per_request(static_cast<double>(Counter("udao.pf.probes"))),
             "count", static_cast<long long>(requests));
  report.Add("pf.probe_ms", HistMean("udao.pf.probe_ms"), "ms",
             HistCount("udao.pf.probe_ms"));
  report.Add("pf.initialize_ms",
             HistMean("udao.span.pf.initialize_ms"), "ms",
             HistCount("udao.span.pf.initialize_ms"));
  report.Add("mogd.fused_ms",
             HistMean("udao.span.mogd.solve_co_fused_ms"), "ms",
             HistCount("udao.span.mogd.solve_co_fused_ms"));
  report.Add("mogd.minimize_ms",
             HistMean("udao.span.mogd.minimize_ms"), "ms",
             HistCount("udao.span.mogd.minimize_ms"));
  report.Add("coalescer.flushes_per_request",
             per_request(static_cast<double>(
                 Counter("udao.coalescer.flushes"))),
             "count", static_cast<long long>(requests));
  report.Add("coalescer.problems_per_flush",
             HistMean("udao.coalescer.flush_problems"), "count",
             HistCount("udao.coalescer.flush_problems"));
  const long long co_n = static_cast<long long>(treuse.total);
  report.Add("coalescer.reuse_share",
             Share(treuse.dedup + treuse.memo, treuse.total), "share", co_n);
  report.Add("coalescer.dedup_share", Share(treuse.dedup, treuse.total),
             "share", co_n);
  report.Add("coalescer.memo_share", Share(treuse.memo, treuse.total),
             "share", co_n);
  report.Add("coalescer.fused_share", Share(treuse.fused, treuse.total),
             "share", co_n);
  report.Add("densify.runs",
             static_cast<double>(Counter("udao.densify.runs")), "count",
             1);
  report.Add("densify.memo_hits",
             static_cast<double>(Counter("udao.densify.memo_hits")),
             "count", 1);

  const UdaoServiceStats& a = t.stats_before;
  const UdaoServiceStats& b = t.stats_after;
  const double hits = static_cast<double>(b.cache_hits - a.cache_hits);
  const double misses = static_cast<double>(b.cache_misses - a.cache_misses);
  report.Add("serving.queue_wait_ms",
             HistMean("udao.service.queue_wait_ms"), "ms",
             HistCount("udao.service.queue_wait_ms"));
  report.Add("serving.handle_ms",
             HistMean("udao.span.service.handle_ms"), "ms",
             HistCount("udao.span.service.handle_ms"));
  report.Add("serving.pf_ms", HistMean("udao.span.service.pf_ms"),
             "ms", HistCount("udao.span.service.pf_ms"));
  report.Add("serving.densify_ms",
             HistMean("udao.span.service.densify_ms"), "ms",
             HistCount("udao.span.service.densify_ms"));
  report.Add("serving.cache_hit_ratio", Share(hits, hits + misses), "share",
             static_cast<long long>(hits + misses));
  report.Add("serving.invalidations",
             static_cast<double>(b.invalidations - a.invalidations), "count",
             1);
  report.Add("serving.evictions",
             static_cast<double>(b.evictions - a.evictions), "count", 1);
  const double traced_p50 = Percentile(t.latency_ms, 50);
  char overhead_note[96];
  std::snprintf(overhead_note, sizeof(overhead_note),
                "plain_p50_ms=%.6g traced_p50_ms=%.6g", p50, traced_p50);
  report.Add("trace_overhead", p50 > 0.0 ? traced_p50 / p50 : 0.0, "x", tn,
             overhead_note);

  // Tuning layer, timed from outside over the first served frontiers (after
  // every registry and decorator reading above, which these calls would
  // otherwise add to).
  Udao udao(stack->server.get(), base_cfg.udao);
  std::vector<double> rank_ms;
  std::vector<double> recommend_us;
  for (const Kept& k : t.kept) {
    auto objectives = udao.ResolveObjectives(k.request);
    if (!objectives.ok()) continue;
    MooProblem problem(k.request.space, *objectives);
    const auto r0 = Clock::now();
    const std::vector<MooPoint> ranked =
        udao.ConservativeRank(problem, k.rec.frontier.frontier);
    rank_ms.push_back(MsSince(r0));
    const auto c0 = Clock::now();
    auto rec = udao.Recommend(k.request, problem, k.rec.frontier, &ranked);
    recommend_us.push_back(MsSince(c0) * 1e3);
    if (!rec.ok()) correct = false;
  }
  auto mean = [](const std::vector<double>& v) {
    double sum = 0.0;
    for (double x : v) sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
  };
  report.Add("tuning.recommend_us", mean(recommend_us), "us",
             static_cast<long long>(recommend_us.size()));
  report.Add("tuning.conservative_rank_ms", mean(rank_ms), "ms",
             static_cast<long long>(rank_ms.size()));
  report.Print(correct, t.attempted, t.failed);
  return 0;
}

}  // namespace
}  // namespace perfbench
}  // namespace udao

int main(int argc, char** argv) {
  udao::perfbench::Args args;
  if (!udao::perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: udao_perfbench --workload "
                 "<cold_solve|warm_repeat|tenant_mix> --seed N --seconds S "
                 "--trace <0|1> [--tiny]\n"
                 "       udao_perfbench --self-test\n");
    return 2;
  }
  if (args.self_test) return udao::perfbench::SelfTest();
  return udao::perfbench::Run(args);
}
