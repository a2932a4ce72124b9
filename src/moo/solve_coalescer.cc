#include "moo/solve_coalescer.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/byte_key.h"
#include "common/check.h"
#include "common/metrics_registry.h"

namespace udao {

namespace {

using Clock = std::chrono::steady_clock;

// Problems may fuse into one SolveCoFused call exactly when they evaluate
// through the same functions: same parameter space (encode/decode) and, per
// objective, the same model identity and orientation. Constraint bounds and
// targets live in the CoProblem and differ freely within a group. The space
// enters by address, which is only safe within one window (submitters pin
// their problems for the exchange); dedup and memo keys, which outlive
// windows, add ParamSpace::AppendStructure so a recycled address misses
// unless the structure also matches.
std::string FuseKey(const MooProblem& problem) {
  std::string key;
  AppendPod(&key, reinterpret_cast<uintptr_t>(&problem.space()));
  for (int j = 0; j < problem.NumObjectives(); ++j) {
    const ObjectiveSpec& obj = problem.objective(j);
    AppendPod(&key, reinterpret_cast<uintptr_t>(obj.model->FuseIdentity()));
    AppendPod(&key, obj.minimize);
  }
  return key;
}

// Everything in a CoProblem that steers the descent: target objective,
// constraint box, linear constraints. Vector lengths are framed so adjacent
// fields cannot alias.
void AppendCo(std::string* key, const CoProblem& co) {
  AppendPod(key, co.target);
  AppendPod(key, static_cast<int>(co.lower.size()));
  for (const double v : co.lower) AppendPod(key, v);
  for (const double v : co.upper) AppendPod(key, v);
  AppendPod(key, static_cast<int>(co.linear.size()));
  for (const CoProblem::LinearConstraint& lc : co.linear) {
    AppendPod(key, static_cast<int>(lc.normal.size()));
    for (const double v : lc.normal) AppendPod(key, v);
    AppendPod(key, lc.offset);
  }
}

}  // namespace

/// One blocked SolveBatch call. Lives on the submitter's stack for the whole
/// exchange (the submitter waits for `done`), so borrowing its problem,
/// CoProblem storage, and StopToken by pointer is safe. `remaining`, the
/// result slots, and `done` are guarded by the coalescer's mu_.
struct SolveCoalescer::Submission {
  const MooProblem* problem = nullptr;
  const std::vector<CoProblem>* cos = nullptr;
  const StopToken* stop = nullptr;
  std::vector<std::optional<CoResult>> results;
  std::vector<SolvePerf> perfs;
  int remaining = 0;
  bool done = false;
  Clock::time_point enqueued;
};

SolveCoalescer::SolveCoalescer(SolveCoalescerConfig config)
    : config_(config), solver_(config.mogd),
      flusher_(std::make_unique<ThreadPool>(1)) {
  UDAO_CHECK_GT(config_.max_batch, 0);
  UDAO_CHECK_GE(config_.max_wait_us, 0.0);
  flusher_->Submit([this] { FlusherLoop(); });
}

SolveCoalescer::~SolveCoalescer() {
  {
    MutexLock lock(mu_);
    shutdown_ = true;
  }
  flush_cv_.NotifyAll();
  // The flusher observes shutdown_, force-flushes whatever is pending, and
  // returns; WaitIdle + reset join it.
  flusher_->WaitIdle();
  flusher_.reset();
  // Fused chunks already dispatched run on the shared compute pool, which
  // this coalescer does not own; wait them out (bounded polls) so no task
  // touches this object after destruction.
  MutexLock lock(mu_);
  while (inflight_chunks_ > 0) {
    done_cv_.WaitFor(mu_, std::chrono::milliseconds(1));
  }
}

std::vector<std::optional<CoResult>> SolveCoalescer::SolveBatch(
    const MooProblem& problem, const std::vector<CoProblem>& problems,
    SolvePerf* perf, const StopToken& stop) {
  if (problems.empty()) return {};

  Submission sub;
  sub.problem = &problem;
  sub.cos = &problems;
  sub.stop = &stop;
  sub.results.resize(problems.size());
  sub.perfs.resize(problems.size());
  sub.remaining = static_cast<int>(problems.size());
  // Submissions racing shutdown are solved inline, not coalesced.
  bool inline_solve = false;
  {
    MutexLock lock(mu_);
    inline_solve = shutdown_;
    if (inline_solve) {
      ++stats_.inline_fallbacks;
    } else {
      sub.enqueued = Clock::now();
      pending_.push_back(&sub);
      pending_problems_ += static_cast<int>(problems.size());
      ++stats_.submissions;
      stats_.problems += static_cast<long long>(problems.size());
    }
  }
  if (inline_solve) {
    return solver_.SolveBatch(problem, problems, perf, stop);
  }
  flush_cv_.NotifyOne();
  UDAO_METRIC_COUNTER_ADD("udao.coalescer.submissions", 1);

  // Block until every slot is delivered. Bounded re-check period (the
  // notify makes the common case prompt; the bound makes a lost wakeup a
  // latency blip, never a hang).
  {
    MutexLock lock(mu_);
    while (!sub.done) {
      done_cv_.WaitFor(mu_, std::chrono::milliseconds(10));
    }
  }
  if (perf != nullptr) {
    for (const SolvePerf& p : sub.perfs) perf->Merge(p);
  }
  return std::move(sub.results);
}

CoResult SolveCoalescer::Minimize(const MooProblem& problem, int target,
                                  SolvePerf* perf, const StopToken& stop) {
  // Deadline carriers keep exactly-solo anytime truncation (the same opt-out
  // SolveBatch's dedup applies); pure cancellation still dedups, honored
  // between probes at the frontier layer.
  if (stop.deadline().has_deadline()) {
    return solver_.Minimize(problem, target, perf, stop);
  }
  // Key = problem identity + structural space + target. User value bounds
  // are deliberately absent: Minimize never reads them, so requests that
  // differ only in per-tenant SLOs share one descent. The "min|" tag keeps
  // the namespace disjoint from CO dedup keys in the shared memo.
  std::string key("min|");
  key += FuseKey(problem);
  problem.space().AppendStructure(&key);
  AppendPod(&key, target);

  std::shared_ptr<MinFlight> flight;
  bool representative = false;
  bool inline_solve = false;
  {
    MutexLock lock(mu_);
    if (shutdown_) {
      ++stats_.inline_fallbacks;
      inline_solve = true;
    } else {
      ++stats_.min_solves;
      if (config_.memo_capacity > 0) {
        auto mit = memo_.find(key);
        if (mit != memo_.end()) {
          memo_lru_.splice(memo_lru_.end(), memo_lru_, mit->second.lru);
          ++stats_.min_memo_hits;
          UDAO_CHECK(mit->second.result.has_value());
          return *mit->second.result;
        }
      }
      auto iit = min_inflight_.find(key);
      if (iit != min_inflight_.end()) {
        flight = iit->second;
        ++stats_.min_dedup_hits;
      } else {
        flight = std::make_shared<MinFlight>();
        min_inflight_.emplace(key, flight);
        representative = true;
      }
    }
  }
  if (inline_solve) {
    return solver_.Minimize(problem, target, perf, stop);
  }
  if (!representative) {
    // Join the in-flight twin. Like CO singleflight waiters, joiners get no
    // perf contribution -- the representative's caller owns the counters of
    // the one descent that actually ran.
    UDAO_METRIC_COUNTER_ADD("udao.coalescer.min_dedup_hits", 1);
    MutexLock lock(mu_);
    while (!flight->done) {
      done_cv_.WaitFor(mu_, std::chrono::milliseconds(10));
    }
    return flight->result;
  }
  // Descend under a never-stopping token: a twin may attach at any point
  // before delivery and must not receive bits truncated by this caller's
  // cancellation. Minimize is cheap and bounded (max_iters), so the overrun
  // a cancelled representative pays is one solve, not a frontier.
  static const StopToken kNeverStop;
  SolvePerf local;
  CoResult result = solver_.Minimize(problem, target, &local, kNeverStop);
  {
    MutexLock lock(mu_);
    min_inflight_.erase(key);
    flight->result = result;
    flight->done = true;
    std::vector<std::shared_ptr<const ObjectiveModel>> pins;
    pins.reserve(problem.NumObjectives());
    for (int j = 0; j < problem.NumObjectives(); ++j) {
      pins.push_back(problem.objective(j).model);
    }
    // Never-stopped bits equal an unstopped solo run -- safe to memoize.
    MemoInsertLocked(std::move(key), result, std::move(pins));
    done_cv_.NotifyAll();
  }
  if (perf != nullptr) perf->Merge(local);
  return result;
}

void SolveCoalescer::FlusherLoop() {
  while (true) {
    std::vector<Submission*> batch;
    [[maybe_unused]] int batch_problems = 0;
    {
      MutexLock lock(mu_);
      if (pending_.empty()) {
        if (shutdown_) return;
        flush_cv_.WaitFor(mu_, std::chrono::milliseconds(1));
        continue;
      }
      const double oldest_us = std::chrono::duration<double, std::micro>(
                                   Clock::now() - pending_.front()->enqueued)
                                   .count();
      const bool full = pending_problems_ >= config_.max_batch;
      if (!full && !shutdown_ && oldest_us < config_.max_wait_us) {
        // Sleep out the remainder of the window; an arrival that fills the
        // batch (or shutdown) notifies and re-evaluates early.
        flush_cv_.WaitFor(mu_, std::chrono::duration<double, std::micro>(
                                   config_.max_wait_us - oldest_us));
        continue;
      }
      batch.swap(pending_);
      batch_problems = pending_problems_;
      pending_problems_ = 0;
      ++stats_.flushes;
    }
    UDAO_METRIC_COUNTER_ADD("udao.coalescer.flushes", 1);
    UDAO_METRIC_OBSERVE("udao.coalescer.flush_problems",
                        static_cast<double>(batch_problems));
    Flush(std::move(batch));
  }
}

void SolveCoalescer::Flush(std::vector<Submission*> batch) {
  struct Unit {
    Submission* sub;
    int index;  ///< Problem index within the submission; determines the seed.
    /// Non-null => this unit is the registered singleflight representative
    /// for dedup_key; delivery fans its bits out to slot->waiters (identical
    /// subproblems that joined, from this window or a later one) and retires
    /// the registry entry.
    std::shared_ptr<SharedSlot> slot;
    std::string dedup_key;
    /// Models pinned for the memo entry (see MemoEntry::pins).
    std::vector<std::shared_ptr<const ObjectiveModel>> pins;
  };
  // Group by fuse key, preserving first-seen order so dispatch order is a
  // function of arrival order alone. Along the way, identical subproblems
  // (same dedup key: problem identity + structural space + slot seed +
  // CoProblem bytes) are coalesced: first against the cross-window memo of
  // completed solves, then against the singleflight registry of in-flight
  // ones -- the latter catches both twins inside this window and a twin
  // still descending from an earlier window, which is the common shape under
  // staggered closed-loop clients. Deadline-armed submissions skip both so
  // their anytime semantics stay exactly solo.
  std::unordered_map<std::string, std::vector<Unit>> groups;
  std::vector<std::string> order;
  int total = 0;
  long long memo_hits = 0;
  long long dedup_hits = 0;
  for (Submission* sub : batch) {
    std::string fuse_key = FuseKey(*sub->problem);
    const bool dedupable = !sub->stop->deadline().has_deadline();
    const int n = static_cast<int>(sub->cos->size());
    for (int i = 0; i < n; ++i) {
      std::string dkey;
      std::shared_ptr<SharedSlot> slot;
      if (dedupable) {
        dkey = fuse_key;
        sub->problem->space().AppendStructure(&dkey);
        AppendPod(&dkey, i);
        AppendCo(&dkey, (*sub->cos)[i]);
        bool served = false;
        MutexLock lock(mu_);
        if (config_.memo_capacity > 0) {
          auto mit = memo_.find(dkey);
          if (mit != memo_.end()) {
            memo_lru_.splice(memo_lru_.end(), memo_lru_, mit->second.lru);
            sub->results[i] = mit->second.result;
            if (--sub->remaining == 0) {
              sub->done = true;
              done_cv_.NotifyAll();
            }
            ++stats_.memo_hits;
            ++memo_hits;
            served = true;
          }
        }
        if (!served) {
          auto iit = inflight_.find(dkey);
          if (iit != inflight_.end()) {
            iit->second->waiters.emplace_back(sub, i);
            ++stats_.dedup_hits;
            ++dedup_hits;
            served = true;
          } else {
            slot = std::make_shared<SharedSlot>();
            inflight_.emplace(dkey, slot);
          }
        }
        if (served) continue;
      }
      auto [it, inserted] = groups.try_emplace(fuse_key);
      if (inserted) order.push_back(it->first);
      Unit unit{sub, i, std::move(slot), std::move(dkey), {}};
      if (unit.slot != nullptr && config_.memo_capacity > 0) {
        unit.pins.reserve(sub->problem->NumObjectives());
        for (int j = 0; j < sub->problem->NumObjectives(); ++j) {
          unit.pins.push_back(sub->problem->objective(j).model);
        }
      }
      it->second.push_back(std::move(unit));
      ++total;
    }
  }
  if (memo_hits > 0) {
    UDAO_METRIC_COUNTER_ADD("udao.coalescer.memo_hits", memo_hits);
  }
  if (dedup_hits > 0) {
    UDAO_METRIC_COUNTER_ADD("udao.coalescer.dedup_hits", dedup_hits);
  }
  if (total == 0) return;
  {
    MutexLock lock(mu_);
    stats_.fuse_groups += static_cast<long long>(groups.size());
  }

  // Split each group into ~pool-width chunks: a lone submission still fans
  // out across the pool (today's parallelism), a full window turns into a
  // few large fused descents (the GEMM share).
  const int threads =
      config_.mogd.pool != nullptr ? config_.mogd.pool->num_threads() : 1;
  const int chunk_size = std::max(1, (total + threads - 1) / threads);

  for (const std::string& key : order) {
    std::vector<Unit>& units = groups[key];
    for (size_t begin = 0; begin < units.size(); begin += chunk_size) {
      const size_t end = std::min(units.size(), begin + chunk_size);
      std::vector<Unit> chunk(units.begin() + begin, units.begin() + end);
      bool cross_request = false;
      for (const Unit& u : chunk) {
        if (u.sub != chunk.front().sub) {
          cross_request = true;
          break;
        }
      }
      {
        MutexLock lock(mu_);
        ++inflight_chunks_;
        ++stats_.fused_chunks;
        if (cross_request) {
          stats_.fused_problems += static_cast<long long>(chunk.size());
        }
      }
      UDAO_METRIC_OBSERVE("udao.coalescer.chunk_problems",
                          static_cast<double>(chunk.size()));
      auto run = [this, chunk = std::move(chunk)]() mutable {
        // A registered (dedupable) slot descends under a never-stopping
        // token: an identical subproblem may join as a waiter at any point
        // before delivery, and the bits it receives must not have been
        // truncated by the representative's own cancellation. Cancellation
        // is still honored between probes at the frontier layer; deadline
        // carriers never register, so their per-iteration anytime truncation
        // stays exactly solo.
        static const StopToken kNeverStop;
        const MooProblem& problem = *chunk.front().sub->problem;
        std::vector<const CoProblem*> cos;
        std::vector<uint64_t> seeds;
        std::vector<const StopToken*> stops;
        cos.reserve(chunk.size());
        seeds.reserve(chunk.size());
        stops.reserve(chunk.size());
        for (const Unit& u : chunk) {
          cos.push_back(&(*u.sub->cos)[u.index]);
          // The MogdSolver::SolveBatch seed contract, per submission: slot i
          // gets mogd.seed + 1000*i regardless of window placement.
          seeds.push_back(config_.mogd.seed +
                          1000 * static_cast<uint64_t>(u.index));
          stops.push_back(u.slot != nullptr ? &kNeverStop : u.sub->stop);
        }
        std::vector<SolvePerf> perfs;
        std::vector<std::optional<CoResult>> results =
            solver_.SolveCoFused(problem, cos, seeds, stops, &perfs);
        {
          MutexLock lock(mu_);
          for (size_t i = 0; i < chunk.size(); ++i) {
            Unit& u = chunk[i];
            if (u.slot != nullptr) {
              // Retire the registry entry first so later lookups under this
              // same lock fall through to the memo insert below.
              inflight_.erase(u.dedup_key);
              for (const auto& [wsub, windex] : u.slot->waiters) {
                wsub->results[windex] = results[i];
                if (--wsub->remaining == 0) wsub->done = true;
              }
              // A registered slot's governing stop is kNeverStop, so these
              // bits were never truncated and equal an unstopped solo run --
              // safe to memoize.
              MemoInsertLocked(std::move(u.dedup_key), results[i],
                               std::move(u.pins));
            }
            u.sub->results[u.index] = std::move(results[i]);
            u.sub->perfs[u.index] = perfs[i];
            if (--u.sub->remaining == 0) u.sub->done = true;
          }
          --inflight_chunks_;
          // Notify while holding mu_: the destructor's drain loop exits the
          // moment it observes inflight_chunks_ == 0 under this mutex, and a
          // notify outside the lock could then touch a destroyed condvar.
          // Same for submitters, whose stack-owned Submission dies when
          // SolveBatch returns.
          done_cv_.NotifyAll();
        }
      };
      if (config_.mogd.pool != nullptr) {
        config_.mogd.pool->Submit(std::move(run));
      } else {
        run();
      }
    }
  }
}

void SolveCoalescer::MemoInsertLocked(
    std::string key, std::optional<CoResult> result,
    std::vector<std::shared_ptr<const ObjectiveModel>> pins) {
  if (config_.memo_capacity <= 0) return;
  auto [it, inserted] = memo_.try_emplace(std::move(key));
  // Two in-flight flushes can both solve a key that was open when each
  // looked; determinism says their bits agree, so keeping the incumbent (and
  // its LRU position) is correct.
  if (!inserted) return;
  it->second.result = std::move(result);
  it->second.pins = std::move(pins);
  memo_lru_.push_back(it->first);
  it->second.lru = std::prev(memo_lru_.end());
  while (static_cast<int>(memo_.size()) > config_.memo_capacity) {
    memo_.erase(memo_lru_.front());
    memo_lru_.pop_front();
  }
}

SolveCoalescer::Stats SolveCoalescer::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

}  // namespace udao
