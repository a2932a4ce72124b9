#ifndef UDAO_SERVING_UDAO_SERVICE_H_
#define UDAO_SERVING_UDAO_SERVICE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/deadline.h"
#include "common/sync.h"
#include "common/thread_pool.h"
#include "moo/hierarchical.h"
#include "moo/solve_coalescer.h"
#include "tuning/udao.h"

namespace udao {

// ShedPolicy and the per-request RequestOptions knobs (deadline, cancel,
// shed-policy override, recommendation policy, densification, stage-level
// tuning) live in tuning/udao.h next to UdaoRequest; this header re-exports
// them via that include so serving-layer callers keep compiling unchanged.

/// Serving-layer policy.
struct UdaoServiceConfig {
  /// Solver policy for the service's internal Udao instance. Fixed for
  /// the service lifetime -- per-request variation enters through
  /// UdaoRequest only, which is what makes cached frontiers reusable.
  SolverOptions udao;
  /// Workers admitting requests. This pool is deliberately distinct from the
  /// solver pool (udao.solver_threads): a request task runs its PF fan-outs
  /// through the solver pool's ParallelFor and descends on its own thread
  /// too, so the two pools bound client-facing concurrency and solver
  /// parallelism independently.
  int admission_threads = 4;
  /// Cached frontiers kept across all shards. The budget is divided evenly:
  /// each shard holds up to max(1, capacity / cache_shards) entries with
  /// independent recency-based eviction, so one tenant's churn cannot evict
  /// the whole service's working set. <= 0 disables caching.
  int frontier_cache_capacity = 64;
  /// Cache/stat shards. Requests route by hash(workload_id), so one tenant's
  /// entries and counters live in one shard and tenants do not contend on a
  /// shared lock. Clamped to >= 1.
  int cache_shards = 8;
  /// Route the MOGD subproblems of every request through one
  /// SolveCoalescer, so a subproblem identical to one a concurrent request
  /// is descending, or one solved recently, is not solved again. Results
  /// stay bitwise-identical to solo solves, and the coalescer adds no wait:
  /// a request descends its own new subproblems at once.
  bool coalesce_solves = true;
  /// Overload bound: requests queued or running before shedding starts.
  /// <= 0 means unbounded (the pre-overload-control behavior). The bound is
  /// approximate under concurrency (check-then-admit is not atomic), which
  /// is fine: it exists to keep the backlog from growing without limit, not
  /// to enforce an exact count.
  int max_queue_depth = 0;
  /// Default shed policy; a request may override it for itself via
  /// UdaoRequest::options.shed_policy.
  ShedPolicy shed_policy = ShedPolicy::kReject;
  /// Solve budget granted to requests admitted under ShedPolicy::kDegrade,
  /// measured from the moment a worker dequeues the request (queue wait
  /// does not eat it). Also bounds their anytime PF run.
  double degraded_budget_ms = 50.0;
  /// Stage cost model for stage-level adaptive requests
  /// (RequestOptions::adaptive.granularity == kStage) and boundary
  /// re-solves (ResolveStages). Non-owning; must outlive the service. Null
  /// disables stage-level tuning: kStage requests are served job-level (the
  /// overlay stays empty), ResolveStages fails FailedPrecondition. Stage
  /// solves use `udao.pf.mogd`, the coalescer's config, whether or not
  /// coalesce_solves is on, so the per-stage knobs do not depend on it.
  const SparkEngine* engine = nullptr;
};

/// Per-shard slice of the cache counters (see UdaoServiceStats::shards).
struct UdaoServiceShardStats {
  long long cache_hits = 0;
  long long cache_misses = 0;
  long long invalidations = 0;  ///< Generation-stale lookups in this shard.
  long long evictions = 0;      ///< Capacity evictions in this shard.
};

/// Point-in-time request/cache counters (see UdaoService::stats()). The
/// cache fields are aggregates over `shards`. The metrics registry receives
/// only the service-wide `udao.service.*` counters; the per-shard split is
/// kept here alone.
struct UdaoServiceStats {
  long long requests = 0;
  long long cache_hits = 0;
  long long cache_misses = 0;
  long long invalidations = 0;  ///< Entries dropped for generation staleness.
  long long evictions = 0;      ///< Entries dropped for capacity.
  long long errors = 0;         ///< Requests that returned a non-OK status.
  long long sheds = 0;          ///< Requests hit by the overload shed policy.
  long long degraded = 0;       ///< OK responses tagged degraded.
  /// Requests failed with DeadlineExceeded (budget gone in queue, or solve
  /// stopped before finding any point).
  long long deadline_exceeded = 0;
  std::vector<UdaoServiceShardStats> shards;  ///< One entry per cache shard.
};

/// Handle to one submitted request (see UdaoService::Submit). Cheap to copy
/// (all copies share one result slot) and safe to destroy before the request
/// completes -- the service keeps the shared state alive until delivery.
///
/// A default-constructed ticket is empty (Valid() == false); Wait/TryGet/
/// Cancel on it abort, so tickets always originate from Submit().
class RequestTicket {
 public:
  RequestTicket() = default;

  /// True when the ticket came from Submit() (default-constructed tickets
  /// are inert placeholders).
  bool Valid() const { return state_ != nullptr; }

  /// Blocks until the result is ready and returns a copy of it. Idempotent:
  /// repeat calls (from any thread) return the same result again.
  StatusOr<UdaoRecommendation> Wait();

  /// Non-blocking probe: the result if it is already delivered, nullopt
  /// otherwise.
  std::optional<StatusOr<UdaoRecommendation>> TryGet();

  /// Requests cancellation of this submission. Composes with any token the
  /// request itself carried (either source firing cancels the solve); the
  /// solve stack notices at its next per-iteration check and delivers a
  /// best-so-far degraded frontier or Cancelled per the anytime contract.
  /// Idempotent; a no-op once the result is delivered.
  void Cancel();

 private:
  friend class UdaoService;
  struct State;
  std::shared_ptr<State> state_;
};

/// Thread-safe serving front-end over Udao + ModelServer (the "within a few
/// seconds" interactive loop of Fig. 1(a), made multi-tenant).
///
/// Five things distinguish it from calling Udao::Optimize directly:
///
///  - Admission: a current-generation cache hit whose ranking is already
///    memoized is answered inside Submit() on the caller's thread (a lookup
///    plus step 3, no queue). Every other request -- misses, stale entries,
///    unmemoized rankings or densified variants, stage-level refinement,
///    expired or cancelled requests, kDegrade admissions -- runs on a
///    fixed-size ThreadPool, so any number of client threads can call
///    Submit() concurrently while solver parallelism stays bounded.
///  - Solve coalescing: the MOGD subproblems of concurrently admitted
///    requests are funneled through one SolveCoalescer, which solves each
///    distinct subproblem once -- twins of an in-flight descent join it,
///    repeats hit a memo -- without changing any request's results bitwise.
///  - Frontier caching: step 2 (Progressive Frontier) dominates end-to-end
///    latency but depends only on (workload, objectives, constraints, solver
///    options) -- NOT on preference weights or the recommendation policy.
///    Computed frontiers are cached under an exact key of those inputs, so a
///    request that differs only in weights/policy re-runs just step 3
///    (microseconds instead of seconds). The cache is sharded by
///    hash(workload_id). Each shard's entries live in one immutable map
///    published through an atomic pointer: lookups load it without locking,
///    and an insert copies it, edits the copy and publishes that under the
///    shard's lock (copy-on-write). Degraded (budget-truncated) frontiers
///    are never cached: they are whatever the deadline allowed, not the
///    deterministic function of the key that cache correctness rests on.
///  - Frontier densification: when a request opts in
///    (RequestOptions::densify_samples > 0), cache-hit frontiers are
///    thickened by sampling (src/moo/densify.h) before step 3 -- the solve
///    they skipped pays for a denser menu of trade-offs -- and degraded
///    deadline-hit frontiers are thickened post-hoc. Both on private
///    copies; cached entries stay immutable. Because a densified variant
///    (and its conservative re-rank) is a pure function of the entry and the
///    densify knobs, it is memoized beside the entry (RecommendMemo) and
///    dies with it; degraded frontiers, which are not pure functions of the
///    key, are never cached or memoized.
///  - Invalidation: every cache entry is tagged with the model server's
///    per-workload generation, the version of the models it has served: it
///    moves at the Ingest that makes a served model due for a retrain or
///    fine-tune, never inside the lazy (re)train itself, so traces below
///    the thresholds keep entries current. The generation is read *before*
///    models are resolved, so an entry can only ever be tagged older --
///    never newer -- than the models that produced it: a stale frontier is
///    never served (outside explicit degraded mode). A concurrent crossing
///    Ingest between the read and the resolve costs at most one spurious
///    recompute.
///  - Deadlines & overload control: a request may carry a Deadline /
///    CancellationToken (UdaoRequest::options); the solve stack checks them
///    once per iteration block and returns best-so-far results tagged
///    degraded on expiry. When the admission queue exceeds max_queue_depth,
///    the shed policy (service default, or the request's own override)
///    decides between rejecting, serving stale cache, and degrading. A
///    request whose budget expired while still queued is never solved:
///    it sheds per policy (queue-deadline enforcement).
///
/// A queued request runs four named steps on an admission worker (Handle):
/// Lookup (a counted current-generation hit), Solve (Progressive Frontier on
/// a miss, inserting complete frontiers), Rank (the entry's memoized
/// conservative re-rank, or its densified variant) and RefineStages
/// (stage-level kStage requests only), with Udao::Recommend between the
/// last two. The inline hit path (ServeHit) is Lookup and Rank restricted
/// to what is already memoized, then the same Respond; a probe that cannot
/// serve counts nothing and leaves the request to Handle. Both read shared
/// state only through the published snapshot and the entry's memo.
///
/// Two requests missing on the same key concurrently both compute the
/// frontier (no single-flighting); the computation is deterministic, so both
/// arrive at identical entries and the second insert is a no-op overwrite.
///
/// Lifetime: the caller keeps `server`, request spaces, and any explicit
/// request models alive for the service's lifetime. The destructor drains
/// in-flight requests.
class UdaoService {
 public:
  explicit UdaoService(ModelServer* server,
                       UdaoServiceConfig config = UdaoServiceConfig());

  /// Admits the request and returns a ticket immediately. The unified entry
  /// point: Wait() on the ticket for synchronous use, poll TryGet() for
  /// async use, Cancel() to abandon the solve early. A memoized
  /// current-generation hit is already complete when Submit returns;
  /// anything else is copied and queued, and the space/model pointers inside
  /// it must outlive the call. Safe from any number of threads concurrently.
  /// The returned recommendation carries queue_wait_ms -- the time the
  /// request spent waiting for an admission worker, 0 for hits answered
  /// inside Submit -- so callers and load generators can tell queueing delay
  /// from solve time.
  RequestTicket Submit(const UdaoRequest& request);

  /// AQE-style boundary re-solve entry: per-stage knobs for stages
  /// [first_stage, stages.size()) with context and plan-time knobs fixed by
  /// `base_raw`. Deployments wire this into SparkEngine::RunAdaptive's
  /// BoundaryResolver with *observed* stage profiles; the per-stage
  /// subproblems route through the service's SolveCoalescer, so boundary
  /// re-solves from concurrent requests coalesce with each other and with
  /// frontier solves. Fails -- never returns a half-tuned overlay -- when
  /// `stop` fires mid-resolve, so callers keep their incumbent config.
  /// FailedPrecondition unless UdaoServiceConfig::engine is set.
  StatusOr<StageConfOverlay> ResolveStages(const Vector& base_raw,
                                           const std::vector<StageProfile>& stages,
                                           int first_stage,
                                           WorkloadClass wclass,
                                           const StopToken& stop) const;

  /// Counter snapshot (approximate under concurrency: the fields are read
  /// individually, not atomically as a group). Includes the per-shard split.
  UdaoServiceStats stats() const;

  /// Frontiers currently cached (summed over shards; no shard locks taken,
  /// exact between inserts).
  int CacheSize() const;

  /// Which cache shard `workload_id` routes to (stable for the service
  /// lifetime; exposed for tests and shard-level monitoring).
  int ShardOf(const std::string& workload_id) const;

  const UdaoServiceConfig& config() const { return config_; }

 private:
  /// A frontier together with its conservative (uncertainty-ranked)
  /// companion, index-aligned: what Recommend chooses from.
  struct RankedFrontier {
    std::shared_ptr<const PfResult> frontier;
    std::shared_ptr<const std::vector<MooPoint>> ranked;
  };

  /// Per-entry recommendation memo. The conservative re-rank (MC-dropout,
  /// Udao::ConservativeRank) and the densified variants are deterministic
  /// functions of the immutable entry, so warm repeats reuse them instead of
  /// re-paying mc_samples forward passes per frontier point per request.
  /// Shared (like `tick`) by every published map that holds the entry; dies
  /// with the entry, so generation invalidation covers it for free.
  /// Concurrent fills race benignly: both compute identical values and the
  /// second store overwrites with equal bits (the documented double-compute
  /// semantics of the cache itself).
  struct RecommendMemo {
    Mutex mu;
    /// Conservative companion of the entry's own frontier, index-aligned.
    std::shared_ptr<const std::vector<MooPoint>> base_ranked
        UDAO_GUARDED_BY(mu);
    /// Densified variants keyed by (densify_samples, densify_radius); each
    /// is a pure function of (entry, densify knobs).
    std::map<std::pair<int, double>, RankedFrontier> variants
        UDAO_GUARDED_BY(mu);
  };

  struct CacheEntry {
    std::shared_ptr<const MooProblem> problem;
    std::shared_ptr<const PfResult> frontier;
    /// Lazily filled recommendation memo (see RecommendMemo). Null only on
    /// degraded solves, which have no entry.
    std::shared_ptr<RecommendMemo> memo;
    /// Udao::DefaultLatency for the key's request shape over `problem`,
    /// computed once when the entry is built and handed to every Recommend
    /// served from it.
    std::optional<double> default_latency;
    /// ModelServer::Generation(workload) observed before resolving models.
    /// While it still matches, every server-resolved model behind the entry
    /// is the one GetModel would return now.
    uint64_t generation = 0;
    /// Recency stamp (global lru_tick_ value of the last touch). Shared by
    /// every published map that holds the entry, so a hit through an older
    /// map still refreshes recency for eviction.
    std::shared_ptr<std::atomic<uint64_t>> tick;
  };

  /// One shard's entries. Immutable once published: every change publishes
  /// a new map.
  using Snapshot = std::unordered_map<std::string, CacheEntry>;

  struct CacheShard {
    /// Serializes Insert's copy-edit-publish of `snapshot`, so concurrent
    /// inserts cannot drop each other's entries. Readers never take it.
    Mutex mu;  // lint: standalone-mutex
    /// The shard's only map, loaded by readers without locking and replaced
    /// wholesale by Insert.
    std::atomic<std::shared_ptr<const Snapshot>> snapshot{
        std::make_shared<const Snapshot>()};
    std::atomic<long long> cache_hits{0};
    std::atomic<long long> cache_misses{0};
    std::atomic<long long> invalidations{0};
    std::atomic<long long> evictions{0};
  };

  /// Exact byte-serialized cache key: workload, space identity AND structure
  /// (ParamSpace::AppendStructure, so a recycled address with different
  /// content misses instead of serving the old space's frontier),
  /// per-objective (name, direction, bounds, explicit model identity), plus
  /// the SolverOptions fingerprint. Preference weights, policy, and slope
  /// side are deliberately absent -- they only steer step 3. The deadline /
  /// cancellation token are absent too: a budget changes how much of the
  /// frontier gets computed, not which frontier the key denotes, and
  /// budget-truncated results are never inserted.
  std::string CacheKey(const UdaoRequest& request) const;

  /// Submit's inline path, on the caller's thread: the answer to a
  /// current-generation hit whose ranking (base re-rank, or the densified
  /// variant for the request's knobs) is already memoized, counted as a hit.
  /// nullopt, with nothing counted, for every request that needs Handle:
  /// misses, stale entries, unmemoized rankings, stage refinement, expired
  /// or cancelled requests, and invalid requests.
  std::optional<StatusOr<UdaoRecommendation>> ServeHit(
      const UdaoRequest& request);

  /// The whole queued request path; runs on an admission worker.
  /// `queue_wait_ms` is surfaced in the returned recommendation.
  StatusOr<UdaoRecommendation> Handle(const UdaoRequest& request,
                                      double queue_wait_ms);

  /// Step 1 of Handle: the shard's entry for `key` if it carries
  /// `generation`, counted as a hit (CountHit); otherwise nullopt, counted
  /// as a miss (plus an invalidation when only an older generation is
  /// cached).
  std::optional<CacheEntry> Lookup(CacheShard& shard, const std::string& key,
                                   uint64_t generation);
  /// Hit bookkeeping shared by Lookup and ServeHit: refreshes the entry's
  /// recency and counts the hit.
  void CountHit(CacheShard& shard, const CacheEntry& entry) const;
  /// Step 2 of Handle, on a miss: runs Progressive Frontier over the
  /// resolved `objectives` and inserts a complete frontier under `key` with
  /// a fresh memo. A degraded frontier is returned without a memo and never
  /// inserted; DeadlineExceeded when the budget ran out before any point.
  StatusOr<CacheEntry> Solve(const UdaoRequest& request,
                             std::vector<ObjectiveSpec> objectives,
                             CacheShard& shard, const std::string& key,
                             uint64_t generation);
  /// Step 3 of Handle: the frontier to recommend from and its conservative
  /// re-rank. A densifying request on a hit (or a degraded solve) gets the
  /// densified variant; everything else gets the entry's own frontier with
  /// its base re-rank. Either comes from the memo when present (Memoized),
  /// else is computed and memoized.
  RankedFrontier Rank(const UdaoRequest& request, const CacheEntry& entry,
                      bool hit) const;
  /// The ranking Rank would return if the entry's memo already holds it,
  /// else a RankedFrontier with a null `ranked`. A densified variant found
  /// here counts a densify memo hit.
  RankedFrontier Memoized(const UdaoRequest& request, const CacheEntry& entry,
                          bool hit) const;
  /// Rank's unmemoized densified variant: sampled, re-ranked and memoized
  /// unless its deadline stopped it.
  RankedFrontier Densify(const UdaoRequest& request,
                         const CacheEntry& entry) const;
  /// Step 3's Udao::Recommend from `ranked` and step 4 (RefineStages), then
  /// the response's timing fields; shared by Handle and ServeHit. `t0` is
  /// when the request's service-side work began.
  StatusOr<UdaoRecommendation> Respond(
      const UdaoRequest& request, const CacheEntry& entry,
      const RankedFrontier& ranked,
      std::chrono::steady_clock::time_point t0, double queue_wait_ms) const;
  /// Whether step 4 has work for `request`: a kStage request with a flow,
  /// on a service with an engine.
  bool RefinesStages(const UdaoRequest& request) const;
  /// Step 4 of Handle, for RefinesStages requests only: per-stage knobs
  /// solved around the chosen point, written into `rec`. Never fails the
  /// request.
  void RefineStages(const UdaoRequest& request, UdaoRecommendation* rec) const;

  /// The shard's entry for `key`, any generation, or nullopt. Lock-free;
  /// callers check the generation and refresh recency.
  static std::optional<CacheEntry> Find(const CacheShard& shard,
                                        const std::string& key);
  /// Publishes a copy of the shard's map with `entry` under `key` (a newer
  /// generation replaces an older one's frontier and memo; an equal or older
  /// one only refreshes recency), evicting least-recently-used entries past
  /// per_shard_capacity_. `entry.memo` is typically pre-seeded with the base
  /// frontier's conservative re-rank by the inserting request.
  void Insert(CacheShard& shard, const std::string& key, CacheEntry entry);
  /// Evicts least-recently-touched entries of `entries` (an unpublished
  /// copy) until it fits per_shard_capacity_ (tick-based LRU; linear scan,
  /// insert-overflow only).
  void EvictOverflow(CacheShard& shard, Snapshot* entries);
  /// Next value of the global recency clock.
  uint64_t NextTick() const;

  CacheShard& ShardFor(const std::string& workload_id) const;

  /// kServeStaleCache fallback: recommend from whatever is cached under
  /// `key`, any generation, tagged degraded. Unavailable when nothing is.
  StatusOr<UdaoRecommendation> ServeStale(const UdaoRequest& request,
                                          const std::string& key,
                                          double queue_wait_ms);

  /// Response-side bookkeeping shared by every delivery path (worker,
  /// shed-at-admission): errors / degraded / deadline_exceeded counters.
  void AccountResponse(const StatusOr<UdaoRecommendation>& response);

  ModelServer* server_;
  UdaoServiceConfig config_;
  Udao udao_;
  /// Constant over the service lifetime; precomputed CacheKey() suffix
  /// (the canonical SolverOptions byte serialization).
  std::string options_fingerprint_;

  /// Cross-request solve coalescer (null when coalescing is off). Declared
  /// after udao_, whose solver pool it descends on, so it is destroyed
  /// first.
  std::unique_ptr<SolveCoalescer> coalescer_;
  /// udao_.options().pf with co_solver pointed at coalescer_; what Solve
  /// actually constructs ProgressiveFrontier with. co_solver is excluded
  /// from the options fingerprint (threading/routing never changes
  /// solutions), so cache keys are identical with coalescing on or off.
  PfConfig pf_config_;
  /// Stage-level solver (null without config_.engine). Its per-stage
  /// Minimize calls route through coalescer_; declared after it so it is
  /// destroyed first and never holds a dangling solver pointer.
  std::unique_ptr<HierarchicalMoo> hierarchical_;

  /// Cache shards, fixed at construction. unique_ptr because CacheShard
  /// carries a mutex and atomics (immovable) and vector needs movability.
  std::vector<std::unique_ptr<CacheShard>> shards_;
  int per_shard_capacity_ = 0;
  /// Global recency clock for tick-based per-shard eviction (monotone;
  /// higher = more recently used).
  mutable std::atomic<uint64_t> lru_tick_{0};

  std::atomic<long long> requests_{0};
  std::atomic<long long> errors_{0};
  std::atomic<long long> sheds_{0};
  std::atomic<long long> degraded_{0};
  std::atomic<long long> deadline_exceeded_{0};
  /// Requests admitted but not yet answered (queued + running).
  std::atomic<int> queue_depth_{0};

  /// MUST be the last member: ~ThreadPool drains queued/in-flight Handle
  /// tasks, which touch the coalescer, the cache shards, and the counters
  /// above. Members destroy in reverse declaration order, so declaring the
  /// pool last keeps everything a draining task needs alive until the drain
  /// completes (race_stress_test.ServiceDestructionWithInflightRequests
  /// regresses under TSan if this moves).
  ThreadPool admission_;
};

}  // namespace udao

#endif  // UDAO_SERVING_UDAO_SERVICE_H_
