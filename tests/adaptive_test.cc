// Adaptive stage-level tuning: StageConfOverlay semantics, the engine's
// RunWithOverlay/RunAdaptive contracts (empty overlay bitwise-identical to
// Run; resolver failures fall back to the incumbent without failing the
// run), and the determinism guarantees the hierarchical solver inherits from
// MogdSolver -- per-stage configs must be bitwise-equal across solver thread
// counts and across scalar/AVX2 kernel backends, because a re-solve that
// depends on pool sizing or ISA would make adaptive runs irreproducible.
#include <gtest/gtest.h>

#include <map>
#include <type_traits>
#include <vector>

#include "common/deadline.h"
#include "common/fault_injector.h"
#include "common/metrics_registry.h"
#include "common/thread_pool.h"
#include "moo/hierarchical.h"
#include "moo/solve_coalescer.h"
#include "nn/kernels.h"
#include "spark/conf.h"
#include "spark/dataflow.h"
#include "spark/engine.h"

namespace udao {
namespace {

using kernels::Backend;
using kernels::ScopedBackendForTesting;

EngineOptions NoNoise() {
  EngineOptions opt;
  opt.noise_stddev = 0.0;
  return opt;
}

// Three-stage SQL flow: scan -> filter -> exchange -> aggregate -> exchange
// -> aggregate. The filter's planner estimate is badly wrong (0.05 estimated
// vs 0.7 runtime-true), so plan-time per-stage choices undersize the shuffle
// stages -- the cardinality misestimation adaptive re-solves exist to fix.
Dataflow SkewedFlow() {
  Dataflow flow("skewed_sql", WorkloadClass::kSql);
  int scan = flow.AddScan(8e7, 120);
  int filter = flow.AddOp({.type = OpType::kFilter,
                           .inputs = {scan},
                           .selectivity = 0.05,
                           .actual_selectivity = 0.7});
  int ex1 = flow.AddOp({.type = OpType::kExchange, .inputs = {filter}});
  int agg1 = flow.AddOp(
      {.type = OpType::kHashAggregate, .inputs = {ex1}, .selectivity = 0.5});
  int ex2 = flow.AddOp({.type = OpType::kExchange, .inputs = {agg1}});
  flow.AddOp(
      {.type = OpType::kHashAggregate, .inputs = {ex2}, .selectivity = 0.1});
  return flow;
}

void ExpectBitwiseEqualMetrics(const RuntimeMetrics& a,
                               const RuntimeMetrics& b) {
  EXPECT_EQ(a.ToVector(), b.ToVector());
  EXPECT_EQ(a.num_stages, b.num_stages);
}

// Builds the hierarchical solver's boundary hook: concatenates observed +
// re-estimated profiles into the absolute-indexed vector ResolveStages
// expects, exactly as the serving layer and udao_cli do.
BoundaryResolver MakeResolver(const HierarchicalMoo& hmoo, const Vector& base,
                              WorkloadClass wclass) {
  return [&hmoo, &base, wclass](const RuntimeObservation& obs,
                                const Deadline& budget) {
    std::vector<StageProfile> stages = obs.completed;
    stages.insert(stages.end(), obs.remaining.begin(), obs.remaining.end());
    return hmoo.ResolveStages(base, stages, obs.next_stage, wclass,
                              StopToken(budget, CancellationToken()));
  };
}

TEST(StageConfOverlayTest, SetResolveAndMergeSemantics) {
  const Vector base = BatchParamSpace().Defaults();
  StageConfOverlay overlay;
  EXPECT_TRUE(overlay.empty());

  overlay.Set(1, 0, 320.0);   // stage 1: spark.default.parallelism
  overlay.Set(1, 11, 96.0);   // stage 1: spark.sql.shuffle.partitions
  EXPECT_FALSE(overlay.empty());

  // Untouched stages resolve to the base conf unchanged.
  EXPECT_EQ(overlay.Resolve(0, base), base);

  // Touched stages differ exactly at the overridden knobs.
  const Vector stage1 = overlay.Resolve(1, base);
  ASSERT_EQ(stage1.size(), base.size());
  EXPECT_EQ(stage1[0], 320.0);
  EXPECT_EQ(stage1[11], 96.0);
  for (size_t i = 0; i < base.size(); ++i) {
    if (i != 0 && i != 11) {
      EXPECT_EQ(stage1[i], base[i]) << "knob " << i;
    }
  }

  // Set replaces; MergeFrom adopts the other side on conflicts.
  overlay.Set(1, 0, 280.0);
  EXPECT_EQ(overlay.Resolve(1, base)[0], 280.0);
  StageConfOverlay incoming;
  incoming.Set(1, 0, 200.0);
  incoming.Set(2, 4, 24.0);
  overlay.MergeFrom(incoming);
  EXPECT_EQ(overlay.Resolve(1, base)[0], 200.0);
  EXPECT_EQ(overlay.Resolve(1, base)[11], 96.0);  // non-conflicting survives
  EXPECT_EQ(overlay.Resolve(2, base)[4], 24.0);
}

TEST(StageConfOverlayTest, ValidateRejectsBadKnobsAndValues) {
  const ParamSpace& space = BatchParamSpace();
  const Vector base = space.Defaults();

  StageConfOverlay ok;
  ok.Set(0, 0, 320.0);
  EXPECT_TRUE(ok.Validate(space, base).ok());

  StageConfOverlay bad_knob;
  bad_knob.Set(0, 99, 1.0);  // no such ParamSpace index
  EXPECT_FALSE(bad_knob.Validate(space, base).ok());

  StageConfOverlay bad_value;
  bad_value.Set(0, 0, 1e9);  // parallelism far above its upper bound
  EXPECT_FALSE(bad_value.Validate(space, base).ok());

  // Out-of-plan stage ids are inert, not invalid: overlays must survive
  // re-planning that drops stages.
  StageConfOverlay future_stage;
  future_stage.Set(99, 0, 320.0);
  EXPECT_TRUE(future_stage.Validate(space, base).ok());
}

TEST(AdaptiveEngineTest, EmptyOverlayIsBitwiseIdenticalToRun) {
  SparkEngine engine;  // default noise ON: the seed path must match too
  const Dataflow flow = SkewedFlow();
  const Vector conf = BatchParamSpace().Defaults();
  ExpectBitwiseEqualMetrics(engine.Run(flow, conf),
                            engine.RunWithOverlay(flow, conf, {}));
}

TEST(AdaptiveEngineTest, OutOfPlanStageOverridesAreInert) {
  SparkEngine engine;  // noise on: overlay must not perturb the seed either
  const Dataflow flow = SkewedFlow();
  const Vector conf = BatchParamSpace().Defaults();
  StageConfOverlay overlay;
  overlay.Set(99, 0, 320.0);  // the plan has 3 stages; stage 99 never runs
  ExpectBitwiseEqualMetrics(engine.Run(flow, conf),
                            engine.RunWithOverlay(flow, conf, overlay));
}

TEST(AdaptiveEngineTest, OverlayChangesOnlyStageCostingNotStructure) {
  SparkEngine engine(NoNoise());
  const Dataflow flow = SkewedFlow();
  const Vector conf = BatchParamSpace().Defaults();
  const RuntimeMetrics base = engine.Run(flow, conf);

  StageConfOverlay overlay;
  overlay.Set(1, 0, 8.0);    // strangle stage 1's parallelism
  overlay.Set(1, 11, 8.0);   // and its shuffle partitions
  const RuntimeMetrics tuned = engine.RunWithOverlay(flow, conf, overlay);

  EXPECT_EQ(tuned.num_stages, base.num_stages);  // structure is plan-time
  EXPECT_NE(tuned.latency_s, base.latency_s);    // costing is per-stage
}

TEST(AdaptiveEngineTest, NumStagesIsIntegralAndMatchesPlan) {
  static_assert(std::is_integral_v<decltype(RuntimeMetrics::num_stages)>,
                "num_stages is a count; keep it integral");
  SparkEngine engine(NoNoise());
  const Dataflow flow = SkewedFlow();
  const Vector conf = BatchParamSpace().Defaults();
  const RuntimeMetrics m = engine.Run(flow, conf);
  EXPECT_EQ(static_cast<size_t>(m.num_stages),
            engine.PlanStages(flow, conf, true).size());
}

TEST(AdaptiveEngineTest, RunAdaptiveEmitsStageResolveMetrics) {
  MetricsRegistry::Global().Reset();
  SparkEngine engine(NoNoise());
  HierarchicalMoo hmoo(&engine, HierarchicalConfig{});
  const Dataflow flow = SkewedFlow();
  const Vector conf = BatchParamSpace().Defaults();

  AdaptiveRunOptions options;
  options.resolver = MakeResolver(hmoo, conf, flow.workload_class());
  options.resolve_budget_ms = 200.0;
  const AdaptiveRunResult result = engine.RunAdaptive(flow, conf, options);

  EXPECT_GT(result.boundaries, 0);
  EXPECT_EQ(result.boundaries, result.applied + result.fallbacks);
  EXPECT_EQ(static_cast<int>(result.resolve_ms.size()), result.boundaries);
#if UDAO_METRICS_ENABLED
  // The registry is fed only when instrumentation is compiled in.
  MetricsRegistry& reg = MetricsRegistry::Global();
  EXPECT_EQ(reg.CounterValue("udao.engine.stage_resolves"), result.boundaries);
  EXPECT_EQ(reg.CounterValue("udao.engine.stage_resolve_applied"),
            result.applied);
  EXPECT_EQ(reg.CounterValue("udao.engine.stage_resolve_fallbacks"),
            result.fallbacks);
  EXPECT_EQ(reg.HistogramValue("udao.engine.stage_resolve_ms").count,
            result.boundaries);
#endif
}

TEST(AdaptiveEngineTest, AdaptiveRunKeepsUpWithJobLevelOnSkew) {
  SparkEngine engine(NoNoise());
  HierarchicalMoo hmoo(&engine, HierarchicalConfig{});
  const Dataflow flow = SkewedFlow();
  const Vector conf = BatchParamSpace().Defaults();

  AdaptiveRunOptions options;
  options.resolver = MakeResolver(hmoo, conf, flow.workload_class());
  options.resolve_budget_ms = 200.0;
  const AdaptiveRunResult result = engine.RunAdaptive(flow, conf, options);

  // With a generous budget every boundary re-solve lands, and per-stage
  // minimization over the exact stage cost can only improve on the shared
  // job-level conf (the bench gate asserts a strict win; here we pin the
  // non-regression half of the contract).
  EXPECT_EQ(result.fallbacks, 0);
  EXPECT_GT(result.applied, 0);
  EXPECT_LE(result.metrics.latency_s,
            engine.Run(flow, conf).latency_s * 1.001);
}

// ---- Determinism: the accept-gate guarantees -------------------------------

StageConfOverlay ResolveAll(const SparkEngine& engine,
                            const HierarchicalConfig& config,
                            const Dataflow& flow, const Vector& base) {
  HierarchicalMoo hmoo(&engine, config);
  const std::vector<StageProfile> stages = engine.PlanStages(flow, base, true);
  StatusOr<StageConfOverlay> overlay = hmoo.ResolveStages(
      base, stages, 0, flow.workload_class(), StopToken());
  EXPECT_TRUE(overlay.ok()) << overlay.status().message();
  return overlay.ok() ? *overlay : StageConfOverlay{};
}

TEST(AdaptiveDeterminismTest, PerStageConfsBitwiseEqualAcrossThreadCounts) {
  SparkEngine engine(NoNoise());
  const Dataflow flow = SkewedFlow();
  const Vector base = BatchParamSpace().Defaults();

  ThreadPool pool2(2);
  ThreadPool pool8(8);
  HierarchicalConfig with2;
  with2.mogd.pool = &pool2;
  HierarchicalConfig with8;
  with8.mogd.pool = &pool8;

  const StageConfOverlay a = ResolveAll(engine, with2, flow, base);
  const StageConfOverlay b = ResolveAll(engine, with8, flow, base);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a.overrides, b.overrides);  // bitwise: map equality on doubles
}

TEST(AdaptiveDeterminismTest, PerStageConfsBitwiseEqualAcrossKernelBackends) {
  SparkEngine engine(NoNoise());
  const Dataflow flow = SkewedFlow();
  const Vector base = BatchParamSpace().Defaults();
  const HierarchicalConfig config;

  const StageConfOverlay scalar = [&] {
    ScopedBackendForTesting scoped(Backend::kScalar);
    return ResolveAll(engine, config, flow, base);
  }();
  const StageConfOverlay scalar_again = [&] {
    ScopedBackendForTesting scoped(Backend::kScalar);
    return ResolveAll(engine, config, flow, base);
  }();
  EXPECT_FALSE(scalar.empty());
  EXPECT_EQ(scalar.overrides, scalar_again.overrides);

  if (!kernels::CpuSupportsAvx2()) GTEST_SKIP() << "no AVX2 on this host";
  const StageConfOverlay avx2 = [&] {
    ScopedBackendForTesting scoped(Backend::kAvx2);
    return ResolveAll(engine, config, flow, base);
  }();
  EXPECT_EQ(scalar.overrides, avx2.overrides);
}

TEST(AdaptiveDeterminismTest, CoalescedResolveMatchesInlineBitwise) {
  SparkEngine engine(NoNoise());
  const Dataflow flow = SkewedFlow();
  const Vector base = BatchParamSpace().Defaults();

  const HierarchicalConfig inline_config;
  SolveCoalescerConfig cc;
  cc.mogd = inline_config.mogd;  // coalescer contract: identical MogdConfig
  SolveCoalescer coalescer(cc);
  HierarchicalConfig coalesced_config;
  coalesced_config.co_solver = &coalescer;

  const StageConfOverlay inline_overlay =
      ResolveAll(engine, inline_config, flow, base);
  const StageConfOverlay coalesced =
      ResolveAll(engine, coalesced_config, flow, base);
  EXPECT_FALSE(inline_overlay.empty());
  EXPECT_EQ(inline_overlay.overrides, coalesced.overrides);
}

TEST(AdaptiveDeterminismTest, ResolveStagesFailsClosedOnExpiredBudget) {
  SparkEngine engine(NoNoise());
  HierarchicalMoo hmoo(&engine, HierarchicalConfig{});
  const Dataflow flow = SkewedFlow();
  const Vector base = BatchParamSpace().Defaults();
  const std::vector<StageProfile> stages = engine.PlanStages(flow, base, true);

  const StopToken expired(Deadline::AfterMs(0.0), CancellationToken());
  StatusOr<StageConfOverlay> overlay =
      hmoo.ResolveStages(base, stages, 0, flow.workload_class(), expired);
  // All-or-nothing: an exhausted budget is an error, never a half-tuned
  // overlay the caller might mistakenly deploy.
  EXPECT_FALSE(overlay.ok());
}

TEST(AdaptiveDeterminismTest,
     FaultedBoundaryFallsBackWithoutPerturbingBatchmates) {
  SparkEngine engine(NoNoise());
  const Dataflow flow = SkewedFlow();
  const Vector base = BatchParamSpace().Defaults();

  SolveCoalescerConfig cc;
  cc.mogd = HierarchicalConfig{}.mogd;
  SolveCoalescer coalescer(cc);
  HierarchicalConfig config;
  config.co_solver = &coalescer;
  HierarchicalMoo hmoo(&engine, config);

  // Baseline: what a healthy batchmate's re-solve returns.
  const std::vector<StageProfile> stages = engine.PlanStages(flow, base, true);
  StatusOr<StageConfOverlay> baseline = hmoo.ResolveStages(
      base, stages, 0, flow.workload_class(), StopToken());
  ASSERT_TRUE(baseline.ok());

  // Fault exactly one boundary re-solve mid-run.
  FaultInjector::Global().FailNext("moo.stage_resolve",
                                   Status::Unavailable("injected"));
  AdaptiveRunOptions options;
  options.resolver = MakeResolver(hmoo, base, flow.workload_class());
  options.resolve_budget_ms = 200.0;
  const AdaptiveRunResult result = engine.RunAdaptive(flow, base, options);
  FaultInjector::Global().Reset();

  // The faulted boundary kept the incumbent; the run itself never fails.
  EXPECT_EQ(result.fallbacks, 1);
  EXPECT_EQ(result.boundaries, result.applied + 1);
  EXPECT_GT(result.metrics.latency_s, 0.0);

  // A batchmate solving through the same coalescer after the fault sees
  // bitwise-identical results: the injected failure poisoned no shared
  // state (memo entries, singleflight registry, seeds).
  StatusOr<StageConfOverlay> after = hmoo.ResolveStages(
      base, stages, 0, flow.workload_class(), StopToken());
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->overrides, baseline->overrides);
}

}  // namespace
}  // namespace udao
