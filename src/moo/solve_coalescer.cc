#include "moo/solve_coalescer.h"

#include <chrono>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/byte_key.h"
#include "common/check.h"
#include "common/metrics_registry.h"
#include "common/thread_pool.h"

namespace udao {

namespace {

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

// The token a registered representative descends under: an identical
// subproblem may join as a waiter at any point before delivery, and the bits
// it receives must not have been truncated by the representative's own
// cancellation. Cancellation is still honored between probes at the frontier
// layer; deadline carriers never register, so their per-iteration anytime
// truncation stays exactly solo.
const StopToken& NeverStop() {
  static const StopToken kNeverStop;
  return kNeverStop;
}

}  // namespace

/// One SolveBatch call. Lives on the submitter's stack until `remaining`
/// reaches 0, so other calls' deliveries may fill its slots by pointer.
/// `results` and `remaining` are guarded by the coalescer's mu_.
struct SolveCoalescer::Submission {
  std::vector<std::optional<CoResult>> results;
  int remaining = 0;
};

SolveCoalescer::SolveCoalescer(SolveCoalescerConfig config)
    : config_(config), solver_(config.mogd) {}

std::string SolveCoalescer::IdentityKey(const MooProblem& problem) {
  std::string structure;
  problem.space().AppendStructure(&structure);
  uint32_t structure_id = 0;
  {
    MutexLock lock(mu_);
    const uint32_t next_id = static_cast<uint32_t>(structure_ids_.size());
    structure_id =
        structure_ids_.try_emplace(std::move(structure), next_id).first->second;
  }
  // The space's address stays in the key next to its structure id: a space
  // rebuilt at a recycled address with another structure gets another id.
  std::string key;
  AppendPod(&key, reinterpret_cast<uintptr_t>(&problem.space()));
  AppendPod(&key, structure_id);
  for (int j = 0; j < problem.NumObjectives(); ++j) {
    const ObjectiveSpec& obj = problem.objective(j);
    AppendPod(&key, reinterpret_cast<uintptr_t>(obj.model->FuseIdentity()));
    AppendPod(&key, obj.minimize);
  }
  return key;
}

std::vector<std::optional<CoResult>> SolveCoalescer::SolveBatch(
    const MooProblem& problem, const std::vector<CoProblem>& problems,
    SolvePerf* perf, const StopToken& stop) {
  if (problems.empty()) return {};
  const int n = static_cast<int>(problems.size());
  UDAO_METRIC_COUNTER_ADD("udao.coalescer.submissions", 1);
  UDAO_METRIC_COUNTER_ADD("udao.coalescer.flushes", 1);
  UDAO_METRIC_OBSERVE("udao.coalescer.flush_problems", static_cast<double>(n));

  // Dedup key of slot i: identity prefix + slot (the seed) + CoProblem bytes.
  // Deadline-armed submissions neither share nor memoize, so their anytime
  // truncation stays exactly solo.
  const bool dedupable = !stop.deadline().has_deadline();
  std::vector<std::string> keys;
  if (dedupable) {
    const std::string prefix = IdentityKey(problem);
    keys.assign(n, prefix);
    for (int i = 0; i < n; ++i) {
      AppendPod(&keys[i], i);
      AppendCo(&keys[i], problems[i]);
    }
  }

  // A slot this call descends. A registered one (`slot` non-null) is the
  // singleflight representative for `key`: its delivery fans the bits out to
  // slot->waiters and memoizes them.
  struct Unit {
    int index;
    std::shared_ptr<SharedSlot> slot;
    std::string key;
  };
  std::vector<Unit> units;
  units.reserve(n);
  Submission sub;
  sub.results.resize(n);
  sub.remaining = n;
  long long memo_hits = 0;
  long long dedup_hits = 0;
  {
    MutexLock lock(mu_);
    ++stats_.submissions;
    stats_.problems += n;
    for (int i = 0; i < n; ++i) {
      if (!dedupable) {
        units.push_back({i, nullptr, {}});
        continue;
      }
      if (config_.memo_capacity > 0) {
        auto mit = memo_.find(keys[i]);
        if (mit != memo_.end()) {
          memo_lru_.splice(memo_lru_.end(), memo_lru_, mit->second.lru);
          sub.results[i] = mit->second.result;
          --sub.remaining;
          ++memo_hits;
          continue;
        }
      }
      auto [it, inserted] = inflight_.try_emplace(keys[i]);
      if (!inserted) {
        it->second->waiters.emplace_back(&sub, i);
        ++dedup_hits;
        continue;
      }
      it->second = std::make_shared<SharedSlot>();
      units.push_back({i, it->second, std::move(keys[i])});
    }
    stats_.memo_hits += memo_hits;
    stats_.dedup_hits += dedup_hits;
  }
  if (memo_hits > 0) {
    UDAO_METRIC_COUNTER_ADD("udao.coalescer.memo_hits", memo_hits);
  }
  if (dedup_hits > 0) {
    UDAO_METRIC_COUNTER_ADD("udao.coalescer.dedup_hits", dedup_hits);
  }

  // Descend every unit of this call -- on the calling thread and whichever
  // pool workers join -- and deliver each the moment it finishes.
  std::vector<SolvePerf> perfs(n);
  auto run_unit = [&](int u) {
    Unit& unit = units[u];
    const int i = unit.index;
    // The MogdSolver::SolveBatch seed contract: slot i gets
    // mogd.seed + 1000*i, whichever call or thread descends it.
    std::optional<CoResult> result = solver_.SolveCoSeeded(
        problem, problems[i],
        config_.mogd.seed + 1000 * static_cast<uint64_t>(i), &perfs[i],
        unit.slot != nullptr ? NeverStop() : stop);
    UDAO_METRIC_OBSERVE("udao.coalescer.chunk_problems", 1.0);
    MutexLock lock(mu_);
    ++stats_.descents;
    if (unit.slot != nullptr) {
      // Retire the registry entry first so later lookups under this same
      // lock fall through to the memo insert below.
      inflight_.erase(unit.key);
      for (const auto& [waiter, index] : unit.slot->waiters) {
        waiter->results[index] = result;
        --waiter->remaining;
      }
      if (!unit.slot->waiters.empty()) done_cv_.NotifyAll();
      // A registered slot's governing stop is NeverStop(), so these bits were
      // never truncated and equal an unstopped solo run -- safe to memoize.
      MemoInsertLocked(std::move(unit.key), result, problem);
    }
    sub.results[i] = std::move(result);
    --sub.remaining;
  };
  const int count = static_cast<int>(units.size());
  if (config_.mogd.pool != nullptr) {
    config_.mogd.pool->ParallelFor(count, run_unit);
  } else {
    for (int u = 0; u < count; ++u) run_unit(u);
  }

  // What is left are twins other calls are descending. Bounded re-check
  // period: the notify makes the common case prompt; the bound makes a lost
  // wakeup a latency blip, never a hang.
  {
    MutexLock lock(mu_);
    while (sub.remaining > 0) {
      done_cv_.WaitFor(mu_, std::chrono::milliseconds(10));
    }
  }
  // Joined slots contribute no perf: the call that descended a solve owns
  // its counters.
  if (perf != nullptr) {
    for (const SolvePerf& p : perfs) perf->Merge(p);
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
  key += IdentityKey(problem);
  AppendPod(&key, target);

  std::shared_ptr<MinFlight> flight;
  bool representative = false;
  {
    MutexLock lock(mu_);
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
  // Minimize is cheap and bounded (max_iters), so the overrun a cancelled
  // representative pays under NeverStop() is one solve, not a frontier.
  SolvePerf local;
  CoResult result = solver_.Minimize(problem, target, &local, NeverStop());
  {
    MutexLock lock(mu_);
    min_inflight_.erase(key);
    flight->result = result;
    flight->done = true;
    // Never-stopped bits equal an unstopped solo run -- safe to memoize.
    MemoInsertLocked(std::move(key), result, problem);
    done_cv_.NotifyAll();
  }
  if (perf != nullptr) perf->Merge(local);
  return result;
}

void SolveCoalescer::MemoInsertLocked(std::string key,
                                      std::optional<CoResult> result,
                                      const MooProblem& problem) {
  if (config_.memo_capacity <= 0) return;
  auto [it, inserted] = memo_.try_emplace(std::move(key));
  // Singleflight registers a key at most once, and determinism says a second
  // solve would agree anyway: keep the incumbent and its LRU position.
  if (!inserted) return;
  MemoEntry& entry = it->second;
  entry.result = std::move(result);
  entry.pins.reserve(problem.NumObjectives());
  for (int j = 0; j < problem.NumObjectives(); ++j) {
    entry.pins.push_back(problem.objective(j).model);
  }
  entry.lru = memo_lru_.insert(memo_lru_.end(), &it->first);
  while (static_cast<int>(memo_.size()) > config_.memo_capacity) {
    const auto coldest = memo_.find(*memo_lru_.front());
    memo_lru_.pop_front();
    memo_.erase(coldest);
  }
}

SolveCoalescer::Stats SolveCoalescer::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

}  // namespace udao
