#include "serving/udao_service.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

#include "common/byte_key.h"
#include "common/check.h"
#include "common/metrics_registry.h"
#include "moo/densify.h"
#include "moo/progressive_frontier.h"

namespace udao {
namespace {

double NowMs(const std::chrono::steady_clock::time_point& since) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - since)
      .count();
}

// Frontier densification (between steps 2 and 3): a cache hit means the
// request paid no solve, so some of the saved budget can buy a thicker
// frontier. A degraded deadline-hit frontier is thickened post-hoc instead.
// Cold complete solves are served as computed.
bool Densifies(const UdaoRequest& request, const PfResult& frontier,
               bool hit) {
  return request.options.densify_samples > 0 && !frontier.frontier.empty() &&
         (hit || frontier.degraded);
}

}  // namespace

/// Shared result slot behind every copy of one ticket. The service-side
/// delivery callback holds a shared_ptr, so the state outlives both an
/// early-destroyed ticket and an early-destroyed service request.
struct RequestTicket::State {
  Mutex mu;
  CondVar cv;
  std::optional<StatusOr<UdaoRecommendation>> result UDAO_GUARDED_BY(mu);
  /// Fired by RequestTicket::Cancel; composed (CancellationToken::Any) with
  /// any token the request itself carried.
  CancellationSource cancel;
};

StatusOr<UdaoRecommendation> RequestTicket::Wait() {
  UDAO_CHECK(state_ != nullptr);
  // Raw pointer rather than the shared_ptr: thread-safety analysis resolves
  // capability expressions through plain pointers, not smart-pointer
  // operator->.
  State* s = state_.get();
  MutexLock lock(s->mu);
  // Bounded waits only in the serving layer (udao_lint unbounded-wait): the
  // re-check loop makes the timeout purely a liveness backstop -- a
  // lost-wakeup or stuck-worker bug degrades to 50 ms extra latency and a
  // re-check instead of a hung client thread.
  while (!s->result.has_value()) {
    s->cv.WaitFor(s->mu, std::chrono::milliseconds(50));
  }
  return *s->result;
}

std::optional<StatusOr<UdaoRecommendation>> RequestTicket::TryGet() {
  UDAO_CHECK(state_ != nullptr);
  State* s = state_.get();
  MutexLock lock(s->mu);
  return s->result;
}

void RequestTicket::Cancel() {
  UDAO_CHECK(state_ != nullptr);
  state_->cancel.Cancel();
}

UdaoService::UdaoService(ModelServer* server, UdaoServiceConfig config)
    : server_(server),
      config_(config),
      udao_(server, config.udao),
      admission_(config.admission_threads) {
  UDAO_CHECK(server_ != nullptr);
  // The canonical SolverOptions serialization: every field that can change
  // what step 2 computes, in one place (tuning/udao.cc) instead of a
  // hand-maintained field list here.
  udao_.options().AppendFingerprint(&options_fingerprint_);

  const int num_shards = std::max(1, config_.cache_shards);
  shards_.reserve(num_shards);
  for (int i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<CacheShard>());
  }
  per_shard_capacity_ =
      config_.frontier_cache_capacity > 0
          ? std::max(1, config_.frontier_cache_capacity / num_shards)
          : 0;

  // The coalescer shares the solver's exact MogdConfig (seed, iterations,
  // pool) -- the bitwise-determinism contract -- and the PF instances built
  // per request route their CO subproblems through it via pf_config_.
  const MogdConfig& mogd = udao_.options().pf.mogd;
  if (config_.coalesce_solves) {
    SolveCoalescerConfig cc;
    cc.mogd = mogd;
    coalescer_ = std::make_unique<SolveCoalescer>(cc);
  }
  pf_config_ = udao_.options().pf;
  pf_config_.co_solver = coalescer_.get();

  // Stage-level solver: per-stage Minimize calls route through the same
  // coalescer as the frontier solves, so boundary re-solves from concurrent
  // requests coalesce with everything else in flight. It solves with the
  // coalescer's MogdConfig even when coalescing is off, so per-stage knobs
  // never depend on coalesce_solves.
  if (config_.engine != nullptr) {
    HierarchicalConfig hc;
    hc.mogd = mogd;
    hc.co_solver = coalescer_.get();
    hierarchical_ = std::make_unique<HierarchicalMoo>(config_.engine, hc);
  }
}

StatusOr<StageConfOverlay> UdaoService::ResolveStages(
    const Vector& base_raw, const std::vector<StageProfile>& stages,
    int first_stage, WorkloadClass wclass, const StopToken& stop) const {
  if (hierarchical_ == nullptr) {
    return Status::FailedPrecondition(
        "stage-level tuning requires UdaoServiceConfig::engine");
  }
  return hierarchical_->ResolveStages(base_raw, stages, first_stage, wclass,
                                      stop);
}

std::string UdaoService::CacheKey(const UdaoRequest& request) const {
  std::string key;
  key.reserve(256 + options_fingerprint_.size());
  AppendString(&key, request.workload_id);
  // The space enters by address AND by structural content. Address alone is
  // not enough: the documented lifetime contract (spaces outlive the
  // service) is not enforceable here, and a caller that destroys a space and
  // allocates a different one at the recycled address would otherwise be
  // silently served the old space's frontier. With the structure in the key
  // that scenario degrades to a cache miss; an address recycled by a
  // structurally identical space hits, which is semantically sound.
  AppendPod(&key, request.space);
  request.space->AppendStructure(&key);
  for (const ObjectiveSpec& obj : request.objectives) {
    AppendString(&key, obj.name);
    AppendPod(&key, obj.minimize);
    AppendPod(&key, obj.lower);
    AppendPod(&key, obj.upper);
    // Explicit models participate by identity. A cached entry's problem
    // holds a shared_ptr to the model, so the address cannot be recycled
    // while the entry is alive; null (server-resolved) models are covered
    // by workload_id + the generation tag instead.
    AppendPod(&key, obj.model.get());
  }
  key.append(options_fingerprint_);
  return key;
}

UdaoService::CacheShard& UdaoService::ShardFor(
    const std::string& workload_id) const {
  return *shards_[ShardOf(workload_id)];
}

int UdaoService::ShardOf(const std::string& workload_id) const {
  return static_cast<int>(std::hash<std::string>{}(workload_id) %
                          shards_.size());
}

uint64_t UdaoService::NextTick() const {
  return lru_tick_.fetch_add(1, std::memory_order_relaxed) + 1;
}

std::optional<UdaoService::CacheEntry> UdaoService::Find(
    const CacheShard& shard, const std::string& key) {
  // The published map is immutable, so probing it needs no lock. The only
  // race is with a concurrent Insert, which degrades to a spurious miss;
  // deterministic recomputation makes concurrent misses interchangeable.
  const std::shared_ptr<const Snapshot> entries =
      shard.snapshot.load(std::memory_order_acquire);
  const auto it = entries->find(key);
  if (it == entries->end()) return std::nullopt;
  return it->second;
}

std::optional<UdaoService::CacheEntry> UdaoService::Lookup(
    CacheShard& shard, const std::string& key, uint64_t generation) {
  std::optional<CacheEntry> entry = Find(shard, key);
  if (entry.has_value() && entry->generation != generation) {
    // A served model of the workload became due for a retrain or fine-tune
    // since this frontier was computed: the models behind it are no longer
    // the latest available, so report a miss and let the caller recompute.
    // The entry itself stays -- ServeStale serves it as a last resort under
    // the stale-cache shed policy, and the recompute's Insert overwrites it
    // with the newer generation.
    shard.invalidations.fetch_add(1, std::memory_order_relaxed);
    UDAO_METRIC_COUNTER_ADD("udao.service.invalidations", 1);
    entry.reset();
  }
  if (!entry.has_value()) {
    shard.cache_misses.fetch_add(1, std::memory_order_relaxed);
    UDAO_METRIC_COUNTER_ADD("udao.service.cache_misses", 1);
    return std::nullopt;
  }
  CountHit(shard, *entry);
  return entry;
}

void UdaoService::CountHit(CacheShard& shard, const CacheEntry& entry) const {
  // Recency refresh: the tick cell is shared by every map holding the entry,
  // so eviction sees hits made through older maps too.
  entry.tick->store(NextTick(), std::memory_order_relaxed);
  shard.cache_hits.fetch_add(1, std::memory_order_relaxed);
  UDAO_METRIC_COUNTER_ADD("udao.service.cache_hits", 1);
}

void UdaoService::Insert(CacheShard& shard, const std::string& key,
                         CacheEntry entry) {
  if (per_shard_capacity_ <= 0) return;
  // Never cache a degraded frontier: it is whatever the budget allowed, not
  // the deterministic function of the key that makes concurrent misses and
  // later hits interchangeable.
  UDAO_DCHECK(!entry.frontier->degraded);
  MutexLock lock(shard.mu);
  const uint64_t tick = NextTick();
  const std::shared_ptr<const Snapshot> current =
      shard.snapshot.load(std::memory_order_acquire);
  const auto found = current->find(key);
  if (found != current->end()) {
    // A concurrent miss on the same key got here first. Deterministic
    // computation means both entries are identical; keep the newer tag in
    // case the other racer observed an older generation. The tick cell is
    // shared with the published map, so a recency-only touch needs no
    // publish. (Equal-generation overwrites keep the incumbent entry AND its
    // memo: deterministic recomputation makes them interchangeable, and the
    // incumbent's memo may already be warm. A newer generation replaces the
    // memo with the frontier it describes.)
    found->second.tick->store(tick, std::memory_order_relaxed);
    if (entry.generation <= found->second.generation) return;
    entry.tick = found->second.tick;
  } else {
    entry.tick = std::make_shared<std::atomic<uint64_t>>(tick);
  }
  // Copy-on-write: readers keep probing `current` while the copy is edited.
  auto next = std::make_shared<Snapshot>(*current);
  (*next)[key] = std::move(entry);
  EvictOverflow(shard, next.get());
  shard.snapshot.store(std::move(next), std::memory_order_release);
  UDAO_METRIC_GAUGE_SET("udao.service.cache_size",
                        static_cast<double>(CacheSize()));
}

void UdaoService::EvictOverflow(CacheShard& shard, Snapshot* entries) {
  while (static_cast<int>(entries->size()) > per_shard_capacity_) {
    // Tick-based LRU: evict the least recently touched entry. A linear scan
    // over at most per_shard_capacity_+1 entries, only on insert overflow.
    auto victim = entries->begin();
    uint64_t victim_tick = victim->second.tick->load(std::memory_order_relaxed);
    for (auto i = std::next(entries->begin()); i != entries->end(); ++i) {
      const uint64_t t = i->second.tick->load(std::memory_order_relaxed);
      if (t < victim_tick) {
        victim = i;
        victim_tick = t;
      }
    }
    entries->erase(victim);
    shard.evictions.fetch_add(1, std::memory_order_relaxed);
    UDAO_METRIC_COUNTER_ADD("udao.service.evictions", 1);
  }
}

StatusOr<UdaoRecommendation> UdaoService::ServeStale(
    const UdaoRequest& request, const std::string& key,
    double queue_wait_ms) {
  const std::optional<CacheEntry> entry =
      Find(ShardFor(request.workload_id), key);
  if (!entry.has_value()) {
    return Status::Unavailable(
        "overloaded and no cached frontier to degrade to");
  }
  entry->tick->store(NextTick(), std::memory_order_relaxed);
  UDAO_METRIC_COUNTER_ADD("udao.service.stale_serves", 1);
  StatusOr<UdaoRecommendation> rec =
      udao_.Recommend(request, *entry->problem, *entry->frontier,
                      /*ranked=*/nullptr, entry->default_latency);
  if (!rec.ok()) return rec.status();
  // The frontier may predate newer traces (any-generation lookup): correct
  // trade-offs as of some recent past, explicitly marked best-effort.
  rec->degraded = true;
  rec->queue_wait_ms = queue_wait_ms;
  return rec;
}

std::optional<StatusOr<UdaoRecommendation>> UdaoService::ServeHit(
    const UdaoRequest& request) {
  const auto t0 = std::chrono::steady_clock::now();
  // Budget and cancel enforcement, stage refinement and error reporting
  // belong to the queued path; an invalid request has no key to probe.
  if (request.options.deadline.IsExpired() ||
      request.options.cancel.IsCancelled() || RefinesStages(request) ||
      !Udao::Validate(request).ok()) {
    return std::nullopt;
  }
  // Handle's Lookup without its counters: only a probe that serves counts.
  CacheShard& shard = ShardFor(request.workload_id);
  const std::optional<CacheEntry> entry = Find(shard, CacheKey(request));
  if (!entry.has_value() ||
      entry->generation != server_->Generation(request.workload_id)) {
    return std::nullopt;
  }
  // Never rank on the caller's thread: an unmemoized ranking (MC-dropout,
  // or densification) waits for a worker.
  const RankedFrontier ranked = Memoized(request, *entry, /*hit=*/true);
  if (ranked.ranked == nullptr) return std::nullopt;
  UDAO_TRACE_SPAN("service.handle");
  CountHit(shard, *entry);
  return Respond(request, *entry, ranked, t0, /*queue_wait_ms=*/0.0);
}

StatusOr<UdaoRecommendation> UdaoService::Handle(const UdaoRequest& request,
                                                 double queue_wait_ms) {
  UDAO_TRACE_SPAN("service.handle");
  const auto t0 = std::chrono::steady_clock::now();
  Status valid = Udao::Validate(request);
  if (!valid.ok()) return valid;

  // Read the generation BEFORE resolving models: a lazy (re)train inside
  // ResolveObjectives leaves it alone, but a concurrent Ingest that makes a
  // served model due may land between this read and the resolve, or between
  // the resolve and the insert. Tagging with the pre-read value
  // keeps the entry conservatively old, so staleness detection can only err
  // toward recomputing, never toward serving a stale frontier.
  const uint64_t generation = server_->Generation(request.workload_id);
  const std::string key = CacheKey(request);
  CacheShard& shard = ShardFor(request.workload_id);

  std::optional<CacheEntry> entry = Lookup(shard, key, generation);
  const bool hit = entry.has_value();
  if (!hit) {
    StatusOr<std::vector<ObjectiveSpec>> objectives =
        udao_.ResolveObjectives(request);
    if (!objectives.ok()) {
      // Model resolution failed (server fault, missing traces). Under the
      // stale-cache shed policy a previously computed frontier -- possibly
      // for older models -- still beats an error.
      if (request.options.shed_policy.value_or(config_.shed_policy) ==
          ShedPolicy::kServeStaleCache) {
        StatusOr<UdaoRecommendation> stale =
            ServeStale(request, key, queue_wait_ms);
        if (stale.ok()) return stale;
      }
      return objectives.status();
    }
    StatusOr<CacheEntry> solved =
        Solve(request, std::move(*objectives), shard, key, generation);
    if (!solved.ok()) return solved.status();
    entry = std::move(*solved);
  }

  return Respond(request, *entry, Rank(request, *entry, hit), t0,
                 queue_wait_ms);
}

StatusOr<UdaoRecommendation> UdaoService::Respond(
    const UdaoRequest& request, const CacheEntry& entry,
    const RankedFrontier& ranked, std::chrono::steady_clock::time_point t0,
    double queue_wait_ms) const {
  StatusOr<UdaoRecommendation> rec =
      udao_.Recommend(request, *entry.problem, *ranked.frontier,
                      ranked.ranked.get(), entry.default_latency);
  if (rec.ok()) {
    RefineStages(request, &*rec);
    rec->seconds = NowMs(t0) / 1e3;
    rec->queue_wait_ms = queue_wait_ms;
  }
  UDAO_METRIC_OBSERVE("udao.service.e2e_ms", NowMs(t0));
  return rec;
}

StatusOr<UdaoService::CacheEntry> UdaoService::Solve(
    const UdaoRequest& request, std::vector<ObjectiveSpec> objectives,
    CacheShard& shard, const std::string& key, uint64_t generation) {
  CacheEntry entry;
  entry.problem =
      std::make_shared<const MooProblem>(request.space, std::move(objectives));
  entry.default_latency = udao_.DefaultLatency(request, *entry.problem);
  {
    UDAO_TRACE_SPAN("service.pf");
    // pf_config_ = the service's solver options with co_solver pointed at
    // the cross-request coalescer, so this request's CO subproblems may
    // share descents with concurrent requests' (bitwise-identical results
    // either way).
    ProgressiveFrontier pf(entry.problem.get(), pf_config_);
    entry.frontier = std::make_shared<const PfResult>(
        pf.Run(udao_.options().frontier_points, request.Stop()));
  }
  if (entry.frontier->degraded) {
    if (entry.frontier->frontier.empty()) {
      return Status::DeadlineExceeded(
          "budget expired before any Pareto point was found");
    }
    UDAO_METRIC_COUNTER_ADD("udao.service.degraded_solves", 1);
    return entry;
  }
  // Empty (infeasible) frontiers are cached too: re-asking the same
  // constraints deterministically re-derives the same emptiness. Only
  // complete frontiers enter the cache (see Insert). The fresh memo is
  // seeded by Rank with this request's own conservative re-rank, so the
  // first warm hit already skips the MC-dropout pass.
  entry.memo = std::make_shared<RecommendMemo>();
  entry.generation = generation;
  Insert(shard, key, entry);
  return entry;
}

UdaoService::RankedFrontier UdaoService::Rank(const UdaoRequest& request,
                                              const CacheEntry& entry,
                                              bool hit) const {
  RankedFrontier out = Memoized(request, entry, hit);
  if (out.ranked != nullptr) return out;
  if (Densifies(request, *entry.frontier, hit)) return Densify(request, entry);
  // Undensified serve: seed the entry's memo with its base re-rank; degraded
  // solves have no memo and compute it inline exactly as Recommend itself
  // would.
  out.ranked = std::make_shared<const std::vector<MooPoint>>(
      udao_.ConservativeRank(*entry.problem, entry.frontier->frontier));
  if (RecommendMemo* memo = entry.memo.get(); memo != nullptr) {
    MutexLock lock(memo->mu);
    memo->base_ranked = out.ranked;
  }
  return out;
}

UdaoService::RankedFrontier UdaoService::Memoized(const UdaoRequest& request,
                                                  const CacheEntry& entry,
                                                  bool hit) const {
  RankedFrontier out{entry.frontier, nullptr};
  RecommendMemo* memo = entry.memo.get();
  if (memo == nullptr) return out;
  MutexLock lock(memo->mu);
  if (!Densifies(request, *entry.frontier, hit)) {
    out.ranked = memo->base_ranked;
    return out;
  }
  const auto it = memo->variants.find(
      {request.options.densify_samples, request.options.densify_radius});
  if (it == memo->variants.end()) return out;
  UDAO_METRIC_COUNTER_ADD("udao.densify.memo_hits", 1);
  return it->second;
}

UdaoService::RankedFrontier UdaoService::Densify(
    const UdaoRequest& request, const CacheEntry& entry) const {
  UDAO_TRACE_SPAN("service.densify");
  // A hit is densified deadline-aware through the request's own token. A
  // degraded frontier's token already fired (that is what degraded means),
  // and densification is bounded, solve-free sampling, so it runs under a
  // never-stopping token. Both operate on a private copy; cached entries
  // stay immutable. The variant and its conservative re-rank are pure
  // functions of the entry and the (samples, radius) knobs, so they are
  // memoized in the entry's RecommendMemo -- unless the deadline stopped
  // densification (then it is whatever the budget allowed, not the
  // pure-function value). Degraded frontiers have no memo.
  RecommendMemo* memo = entry.memo.get();
  const std::pair<int, double> vkey{request.options.densify_samples,
                                    request.options.densify_radius};
  [[maybe_unused]] const auto t0 = std::chrono::steady_clock::now();
  DensifyConfig dc;
  dc.samples_per_point = request.options.densify_samples;
  dc.radius = request.options.densify_radius;
  dc.seed = pf_config_.mogd.seed;
  DensifyStats dstats;
  auto densified = std::make_shared<PfResult>(*entry.frontier);
  densified->frontier = DensifyFrontier(
      *entry.problem, entry.frontier->frontier, dc,
      entry.frontier->degraded ? StopToken() : request.Stop(), &dstats);
  RankedFrontier out{densified,
                     std::make_shared<const std::vector<MooPoint>>(
                         udao_.ConservativeRank(*entry.problem,
                                                densified->frontier))};
  if (memo != nullptr && !dstats.stopped) {
    MutexLock lock(memo->mu);
    memo->variants[vkey] = out;
  }
  UDAO_METRIC_COUNTER_ADD("udao.densify.runs", 1);
  if (dstats.stopped) UDAO_METRIC_COUNTER_ADD("udao.densify.stopped", 1);
  UDAO_METRIC_OBSERVE("udao.densify.ms", NowMs(t0));
  return out;
}

bool UdaoService::RefinesStages(const UdaoRequest& request) const {
  return request.options.adaptive.granularity == AdaptiveGranularity::kStage &&
         request.flow != nullptr && hierarchical_ != nullptr;
}

void UdaoService::RefineStages(const UdaoRequest& request,
                               UdaoRecommendation* rec) const {
  // Stage-level refinement (step 4, for kStage requests): per-stage knobs
  // solved around the chosen point. Runs at recommend time, never cached:
  // the chosen point depends on the request's preference weights, which the
  // frontier cache key deliberately excludes. Failure -- budget, invalid
  // space, solver error -- keeps the flat recommendation (stage-level tuning
  // is advice on top of a complete answer, so it degrades, never errors).
  if (!RefinesStages(request)) return;
  [[maybe_unused]] const auto t0 = std::chrono::steady_clock::now();
  const std::vector<StageProfile> stages = config_.engine->PlanStages(
      *request.flow, rec->conf_raw, /*planner_estimates=*/true);
  // The per-boundary budget scales to a whole-overlay budget here: this is
  // the one place every stage is solved at once.
  const Deadline budget =
      Deadline::AfterMs(request.options.adaptive.resolve_budget_ms *
                        std::max<std::size_t>(1, stages.size()));
  const StopToken refine_stop(budget, request.options.cancel);
  StatusOr<StageConfOverlay> overlay = hierarchical_->ResolveStages(
      rec->conf_raw, stages, /*first_stage=*/0,
      request.flow->workload_class(), refine_stop);
  if (overlay.ok()) {
    rec->stage_overlay = std::move(overlay).value();
    rec->stage_confs.reserve(stages.size());
    for (int s = 0; s < static_cast<int>(stages.size()); ++s) {
      rec->stage_confs.push_back(rec->stage_overlay.Resolve(s, rec->conf_raw));
    }
    UDAO_METRIC_COUNTER_ADD("udao.service.stage_refines", 1);
  } else {
    UDAO_METRIC_COUNTER_ADD("udao.service.stage_refine_fallbacks", 1);
  }
  UDAO_METRIC_OBSERVE("udao.service.stage_refine_ms", NowMs(t0));
}

void UdaoService::AccountResponse(
    const StatusOr<UdaoRecommendation>& response) {
  if (response.ok()) {
    if (response->degraded) {
      degraded_.fetch_add(1, std::memory_order_relaxed);
      UDAO_METRIC_COUNTER_ADD("udao.service.degraded", 1);
    }
    return;
  }
  errors_.fetch_add(1, std::memory_order_relaxed);
  UDAO_METRIC_COUNTER_ADD("udao.service.errors", 1);
  if (response.status().code() == StatusCode::kDeadlineExceeded) {
    deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
    UDAO_METRIC_COUNTER_ADD("udao.service.deadline_exceeded", 1);
  }
}

RequestTicket UdaoService::Submit(const UdaoRequest& request) {
  RequestTicket ticket;
  ticket.state_ = std::make_shared<RequestTicket::State>();
  // Delivery into the ticket. Notify while holding the lock: a Wait()er may
  // otherwise observe the result and destroy the last ticket copy before
  // NotifyAll touches cv. The lambda's own shared_ptr keeps the state alive
  // regardless.
  auto deliver = [state = ticket.state_](StatusOr<UdaoRecommendation> r) {
    RequestTicket::State* s = state.get();
    MutexLock lock(s->mu);
    s->result.emplace(std::move(r));
    s->cv.NotifyAll();
  };
  requests_.fetch_add(1, std::memory_order_relaxed);
  UDAO_METRIC_COUNTER_ADD("udao.service.requests", 1);
  const ShedPolicy shed =
      request.options.shed_policy.value_or(config_.shed_policy);

  // Overload control: bound the backlog, shed per policy (the request's own
  // override wins over the service default). kDegrade admits (flagged); the
  // other policies answer on the calling thread right here.
  bool degrade_admission = false;
  if (config_.max_queue_depth > 0 &&
      queue_depth_.load(std::memory_order_relaxed) >=
          config_.max_queue_depth) {
    sheds_.fetch_add(1, std::memory_order_relaxed);
    UDAO_METRIC_COUNTER_ADD("udao.service.sheds", 1);
    switch (shed) {
      case ShedPolicy::kReject: {
        StatusOr<UdaoRecommendation> rejected =
            Status::Unavailable("admission queue full (max depth " +
                                std::to_string(config_.max_queue_depth) +
                                ")");
        AccountResponse(rejected);
        deliver(std::move(rejected));
        return ticket;
      }
      case ShedPolicy::kServeStaleCache: {
        // Step-3-only work (microseconds): cheap enough for the caller's
        // thread, which is the point -- no queue slot consumed.
        StatusOr<UdaoRecommendation> stale =
            ServeStale(request, CacheKey(request), /*queue_wait_ms=*/0.0);
        AccountResponse(stale);
        deliver(std::move(stale));
        return ticket;
      }
      case ShedPolicy::kDegrade:
        degrade_admission = true;
        break;
    }
  }

  // A memoized hit is answered right here: no request copy, no queue slot,
  // no hand-off to a worker and back. A kDegrade admission is an overload
  // decision already taken, so it queues as before.
  if (!degrade_admission) {
    std::optional<StatusOr<UdaoRecommendation>> hit = ServeHit(request);
    if (hit.has_value()) {
      AccountResponse(*hit);
      deliver(std::move(*hit));
      return ticket;
    }
  }

  // Either source firing -- the caller's own token or the ticket's Cancel()
  // -- stops this request's solve; composing here keeps the solve stack
  // single-token.
  UdaoRequest composed = request;
  composed.options.cancel = CancellationToken::Any(
      request.options.cancel, ticket.state_->cancel.token());
  queue_depth_.fetch_add(1, std::memory_order_relaxed);
  UDAO_METRIC_GAUGE_SET(
      "udao.service.queue_depth",
      static_cast<double>(queue_depth_.load(std::memory_order_relaxed)));
  const auto enqueued = std::chrono::steady_clock::now();
  admission_.Submit([this, request = std::move(composed), deliver, enqueued,
                     degrade_admission, shed]() mutable {
    const double queue_wait_ms = NowMs(enqueued);
    UDAO_METRIC_OBSERVE("udao.service.queue_wait_ms", queue_wait_ms);
    if (degrade_admission) {
      // The degraded budget starts when solving starts; a request that also
      // carries its own (tighter) deadline keeps it.
      request.options.deadline =
          Deadline::Earlier(request.options.deadline,
                            Deadline::AfterMs(config_.degraded_budget_ms));
    }
    StatusOr<UdaoRecommendation> out = [&]() -> StatusOr<UdaoRecommendation> {
      // Queue-deadline enforcement: a request whose budget died while
      // queued is never solved -- solving it anyway is exactly the overload
      // death spiral (all workers busy computing answers nobody is waiting
      // for) that deadlines exist to prevent.
      if (request.options.deadline.IsExpired() ||
          request.options.cancel.IsCancelled()) {
        if (shed == ShedPolicy::kServeStaleCache &&
            !request.options.cancel.IsCancelled()) {
          return ServeStale(request, CacheKey(request), queue_wait_ms);
        }
        return Status::DeadlineExceeded(
            "request budget expired after " +
            std::to_string(queue_wait_ms) + " ms in the admission queue");
      }
      return Handle(request, queue_wait_ms);
    }();
    AccountResponse(out);
    queue_depth_.fetch_sub(1, std::memory_order_relaxed);
    deliver(std::move(out));
  });
  return ticket;
}

UdaoServiceStats UdaoService::stats() const {
  UdaoServiceStats s;
  s.requests = requests_.load(std::memory_order_relaxed);
  s.errors = errors_.load(std::memory_order_relaxed);
  s.sheds = sheds_.load(std::memory_order_relaxed);
  s.degraded = degraded_.load(std::memory_order_relaxed);
  s.deadline_exceeded = deadline_exceeded_.load(std::memory_order_relaxed);
  s.shards.reserve(shards_.size());
  for (const std::unique_ptr<CacheShard>& shard : shards_) {
    UdaoServiceShardStats ss;
    ss.cache_hits = shard->cache_hits.load(std::memory_order_relaxed);
    ss.cache_misses = shard->cache_misses.load(std::memory_order_relaxed);
    ss.invalidations = shard->invalidations.load(std::memory_order_relaxed);
    ss.evictions = shard->evictions.load(std::memory_order_relaxed);
    s.cache_hits += ss.cache_hits;
    s.cache_misses += ss.cache_misses;
    s.invalidations += ss.invalidations;
    s.evictions += ss.evictions;
    s.shards.push_back(ss);
  }
  return s;
}

int UdaoService::CacheSize() const {
  int total = 0;
  for (const std::unique_ptr<CacheShard>& shard : shards_) {
    total += static_cast<int>(
        shard->snapshot.load(std::memory_order_acquire)->size());
  }
  return total;
}

}  // namespace udao
