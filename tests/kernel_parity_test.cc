// Parity contracts of the dispatched dense-kernel layer (nn/kernels.h):
//
//  * within one backend, dot(a, b, 128) is bitwise-equal to the unrolled
//    dot128 (the 4x128-topology fast path), and the fused layer_forward is
//    bitwise-equal to composing dot + bias + relu by hand;
//  * across backends, every primitive and the batched MLP entry points built
//    on them (PredictBatch / GradientBatch) agree to a tight relative
//    tolerance -- AVX2's multi-accumulator reductions and FMA contraction
//    may differ from the scalar chain only in the last bits;
//  * the UDAO_KERNEL environment contract holds (the CI parity matrix runs
//    this binary once per backend);
//  * the KernelArena stops touching the heap after the first iteration of a
//    fixed-shape batched workload, and reports its growth through the
//    udao.nn.arena_bytes counter;
//  * no batched MLP path reads arena memory before writing it (slabs are
//    not zero-filled), so stale slab contents never reach an output, and an
//    emptied arena merges its grown slab chain into one slab.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics_registry.h"
#include "common/random.h"
#include "nn/kernels.h"
#include "nn/mlp.h"

namespace udao {
namespace {

using kernels::Backend;
using kernels::Fused;
using kernels::KernelArena;
using kernels::KernelTable;
using kernels::ScopedBackendForTesting;

// Relative tolerance for cross-backend comparisons. The backends reorder
// additions (4 accumulators) and contract multiply-adds, so results may
// differ by a few ulps; anything past 1e-12 relative would indicate a kernel
// bug, not rounding.
constexpr double kCrossBackendRelTol = 1e-12;

std::vector<Backend> SupportedBackends() {
  std::vector<Backend> backends{Backend::kScalar};
  if (kernels::CpuSupportsAvx2()) backends.push_back(Backend::kAvx2);
  return backends;
}

Vector RandomVector(int n, uint64_t seed) {
  Rng rng(seed);
  Vector v(n);
  for (double& x : v) x = rng.Uniform() * 2.0 - 1.0;
  return v;
}

void ExpectNear(double a, double b, const char* what, int i) {
  const double scale = std::max({1.0, std::fabs(a), std::fabs(b)});
  EXPECT_LE(std::fabs(a - b), kCrossBackendRelTol * scale)
      << what << " element " << i << ": " << a << " vs " << b;
}

// The env contract: when the CI matrix exports UDAO_KERNEL, the process must
// actually be running that backend. Declared first so it observes the
// startup dispatch before any scoped override runs (overrides restore, but
// order makes the intent explicit).
TEST(KernelParityTest, ActiveBackendHonorsEnvironment) {
  const char* env = std::getenv("UDAO_KERNEL");
  if (env == nullptr || *env == '\0' || std::strcmp(env, "native") == 0) {
    const Backend expected = kernels::CpuSupportsAvx2() ? Backend::kAvx2
                                                        : Backend::kScalar;
    EXPECT_EQ(kernels::ActiveBackend(), expected);
  } else if (std::strcmp(env, "scalar") == 0) {
    EXPECT_EQ(kernels::ActiveBackend(), Backend::kScalar);
  } else if (std::strcmp(env, "avx2") == 0) {
    EXPECT_EQ(kernels::ActiveBackend(), Backend::kAvx2);
  } else {
    FAIL() << "unexpected UDAO_KERNEL value " << env;
  }
  EXPECT_EQ(kernels::ActiveTable()->backend, kernels::ActiveBackend());
}

// dot128 is the specialized kernel the 4x128 topology rides on; each backend
// promises it is bitwise-identical to its generic dot at n == 128.
TEST(KernelParityTest, Dot128MatchesGenericDotBitwise) {
  for (Backend backend : SupportedBackends()) {
    const KernelTable* t = kernels::TableForBackend(backend);
    for (uint64_t seed = 0; seed < 8; ++seed) {
      const Vector a = RandomVector(128, 1000 + seed);
      const Vector b = RandomVector(128, 2000 + seed);
      EXPECT_EQ(t->dot(a.data(), b.data(), 128), t->dot128(a.data(), b.data()))
          << t->name << " seed " << seed;
    }
  }
}

// The fused layer kernel must be exactly dot + bias + relu of the same
// backend -- that is what keeps batched and scalar MLP paths bitwise-equal
// within a backend.
TEST(KernelParityTest, LayerForwardMatchesComposedPrimitivesBitwise) {
  const int rows = 5;
  for (Backend backend : SupportedBackends()) {
    const KernelTable* t = kernels::TableForBackend(backend);
    for (int in_dim : {7, 128}) {
      const int out_dim = 9;
      const Vector in = RandomVector(rows * in_dim, 42);
      const Vector w = RandomVector(out_dim * in_dim, 43);
      const Vector bias = RandomVector(out_dim, 44);
      Vector fused(rows * out_dim);
      t->layer_forward(in.data(), rows, in_dim, w.data(), bias.data(),
                       out_dim, Fused::kBiasRelu, fused.data());
      for (int r = 0; r < rows; ++r) {
        for (int c = 0; c < out_dim; ++c) {
          const double* row = in.data() + static_cast<size_t>(r) * in_dim;
          const double* wr = w.data() + static_cast<size_t>(c) * in_dim;
          double z = in_dim == 128 ? t->dot128(row, wr)
                                   : t->dot(row, wr, in_dim);
          z += bias[c];
          z = z > 0.0 ? z : 0.0;
          EXPECT_EQ(fused[r * out_dim + c], z)
              << t->name << " in_dim " << in_dim << " r " << r << " c " << c;
        }
      }
    }
  }
}

TEST(KernelParityTest, DotAgreesAcrossBackends) {
  if (!kernels::CpuSupportsAvx2()) GTEST_SKIP() << "no AVX2 on this host";
  const KernelTable* scalar = kernels::TableForBackend(Backend::kScalar);
  const KernelTable* avx2 = kernels::TableForBackend(Backend::kAvx2);
  // Lengths cover the remainder lanes: sub-vector, 4-wide tail, scalar tail.
  for (int n : {1, 3, 4, 15, 16, 17, 31, 64, 127, 128, 129, 1000}) {
    const Vector a = RandomVector(n, 7 * n);
    const Vector b = RandomVector(n, 11 * n);
    ExpectNear(scalar->dot(a.data(), b.data(), n),
               avx2->dot(a.data(), b.data(), n), "dot", n);
  }
}

TEST(KernelParityTest, AxpyAgreesAcrossBackends) {
  if (!kernels::CpuSupportsAvx2()) GTEST_SKIP() << "no AVX2 on this host";
  const KernelTable* scalar = kernels::TableForBackend(Backend::kScalar);
  const KernelTable* avx2 = kernels::TableForBackend(Backend::kAvx2);
  for (int n : {1, 4, 5, 16, 37, 128}) {
    const Vector src = RandomVector(n, 3 * n);
    Vector a = RandomVector(n, 5 * n);
    Vector b = a;
    scalar->axpy(a.data(), src.data(), 0.37, n);
    avx2->axpy(b.data(), src.data(), 0.37, n);
    for (int i = 0; i < n; ++i) ExpectNear(a[i], b[i], "axpy", i);
  }
}

TEST(KernelParityTest, GemmAgreesAcrossBackends) {
  if (!kernels::CpuSupportsAvx2()) GTEST_SKIP() << "no AVX2 on this host";
  const KernelTable* scalar = kernels::TableForBackend(Backend::kScalar);
  const KernelTable* avx2 = kernels::TableForBackend(Backend::kAvx2);
  const int rows = 6;
  const int k = 11;
  const int cols = 13;
  const Vector a = RandomVector(rows * k, 21);
  const Vector b = RandomVector(k * cols, 22);
  Vector out_s(rows * cols);
  Vector out_v(rows * cols);
  scalar->gemm_nn(a.data(), rows, k, b.data(), cols, out_s.data());
  avx2->gemm_nn(a.data(), rows, k, b.data(), cols, out_v.data());
  for (int i = 0; i < rows * cols; ++i) {
    ExpectNear(out_s[i], out_v[i], "gemm_nn", i);
  }
}

Mlp MakeMlp(const std::vector<int>& sizes, Activation act, uint64_t seed) {
  MlpConfig config;
  config.layer_sizes = sizes;
  config.activation = act;
  Rng rng(seed);
  return Mlp(config, &rng);
}

// The end-to-end contract the CI parity matrix enforces: the batched MLP
// entry points agree across backends on random shapes and on the paper's
// 4x128 ReLU topology (which exercises the unrolled dot128 path).
TEST(KernelParityTest, MlpBatchPathsAgreeAcrossBackends) {
  if (!kernels::CpuSupportsAvx2()) GTEST_SKIP() << "no AVX2 on this host";
  struct Case {
    std::vector<int> sizes;
    Activation act;
  };
  const std::vector<Case> cases = {
      {{3, 5, 1}, Activation::kRelu},
      {{7, 33, 17, 1}, Activation::kTanh},
      {{12, 128, 128, 128, 128, 1}, Activation::kRelu},
  };
  for (size_t ci = 0; ci < cases.size(); ++ci) {
    const Case& c = cases[ci];
    const Mlp mlp = MakeMlp(c.sizes, c.act, 100 + ci);
    Rng rng(200 + ci);
    const int rows = 17;
    Matrix x(rows, c.sizes.front());
    for (double& v : x.data()) v = rng.Uniform() * 2.0 - 1.0;

    Vector values_s;
    Vector values_v;
    Matrix grads_s;
    Matrix grads_v;
    {
      ScopedBackendForTesting scoped(Backend::kScalar);
      mlp.PredictBatch(x, &values_s);
      mlp.InputGradientBatch(x, &grads_s);
    }
    {
      ScopedBackendForTesting scoped(Backend::kAvx2);
      mlp.PredictBatch(x, &values_v);
      mlp.InputGradientBatch(x, &grads_v);
    }
    for (int i = 0; i < rows; ++i) {
      ExpectNear(values_s[i], values_v[i], "PredictBatch", i);
    }
    ASSERT_EQ(grads_s.rows(), grads_v.rows());
    ASSERT_EQ(grads_s.cols(), grads_v.cols());
    for (size_t i = 0; i < grads_s.data().size(); ++i) {
      ExpectNear(grads_s.data()[i], grads_v.data()[i], "GradientBatch",
                 static_cast<int>(i));
    }
  }
}

// Zero heap allocations per solver iteration after warmup: repeated
// fixed-shape batched calls must not grow the thread's arena beyond what the
// first iteration reserved.
TEST(KernelParityTest, ArenaStopsGrowingAfterWarmup) {
  const Mlp mlp =
      MakeMlp({12, 128, 128, 128, 128, 1}, Activation::kRelu, 5);
  Rng rng(6);
  Matrix x(32, 12);
  for (double& v : x.data()) v = rng.Uniform();

  KernelArena& arena = KernelArena::ThreadLocal();
  Vector values;
  Matrix grads;
  // Warmup: first iteration may grow the arena (and the gradient matrix).
  mlp.PredictBatch(x, &values);
  mlp.InputGradientBatch(x, &grads, &values);
  const size_t grown = arena.grow_count();
  const size_t reserved = arena.reserved_bytes();
  EXPECT_GT(grown, 0u);
  EXPECT_GT(reserved, 0u);
  for (int iter = 0; iter < 50; ++iter) {
    mlp.PredictBatch(x, &values);
    mlp.InputGradientBatch(x, &grads, &values);
  }
  EXPECT_EQ(arena.grow_count(), grown);
  EXPECT_EQ(arena.reserved_bytes(), reserved);
}

// Everything the batched MLP paths compute, for the stale-arena check below.
struct MlpOutputs {
  Vector values;
  Matrix grads;
  Vector mean;
  Vector stddev;
  double loss = 0.0;
  std::vector<Mlp::LayerGrad> layer_grads;
};

MlpOutputs RunMlpPaths(const Mlp& mlp, const Matrix& x, const Vector& y) {
  MlpOutputs out;
  mlp.PredictBatch(x, &out.values);
  mlp.InputGradientBatch(x, &out.grads);
  std::vector<Rng> rngs;
  for (int r = 0; r < x.rows(); ++r) rngs.emplace_back(300 + r);
  mlp.PredictWithUncertaintyBatch(x, 8, &rngs, &out.mean, &out.stddev);
  out.layer_grads = mlp.ZeroGrads();
  out.loss = mlp.ForwardBackward(x, y, &out.layer_grads);
  return out;
}

// Arena blocks are uninitialized (slabs are not zero-filled): no batched
// path may read a block before writing it. Poisoning every slab the thread
// already holds with NaN between two identical runs must leave every output
// bitwise unchanged.
TEST(KernelParityTest, StaleArenaContentsNeverReachOutputs) {
  for (const Backend backend : SupportedBackends()) {
    ScopedBackendForTesting scoped(backend);
    for (const Activation act : {Activation::kRelu, Activation::kTanh}) {
      const Mlp mlp = MakeMlp({12, 64, 64, 1}, act, 11);
      Rng rng(12);
      Matrix x(19, 12);
      for (double& v : x.data()) v = rng.Uniform();
      Vector y(19);
      for (double& v : y) v = rng.Uniform();

      KernelArena& arena = KernelArena::ThreadLocal();
      // One live block keeps the arena from ever rewinding to empty below,
      // which would merge the poisoned slabs into a fresh one.
      KernelArena::Scope hold(&arena);
      arena.Alloc(1);
      const MlpOutputs first = RunMlpPaths(mlp, x, y);
      {
        // Bump through every existing slab one double at a time (so no
        // slab remainder is skipped) until the arena has to grow.
        KernelArena::Scope poison(&arena);
        const size_t grown = arena.grow_count();
        while (arena.grow_count() == grown) {
          *arena.Alloc(1) = std::nan("");
        }
      }
      const MlpOutputs second = RunMlpPaths(mlp, x, y);

      const std::string where =
          std::string(kernels::TableForBackend(backend)->name) +
          (act == Activation::kRelu ? " relu" : " tanh");
      EXPECT_EQ(first.values, second.values) << where;
      EXPECT_EQ(first.grads.data(), second.grads.data()) << where;
      EXPECT_EQ(first.mean, second.mean) << where;
      EXPECT_EQ(first.stddev, second.stddev) << where;
      EXPECT_EQ(std::memcmp(&first.loss, &second.loss, sizeof(double)), 0)
          << where;
      ASSERT_EQ(first.layer_grads.size(), second.layer_grads.size());
      for (size_t l = 0; l < first.layer_grads.size(); ++l) {
        EXPECT_EQ(first.layer_grads[l].dw.data(),
                  second.layer_grads[l].dw.data())
            << where << " layer " << l;
        EXPECT_EQ(first.layer_grads[l].db, second.layer_grads[l].db)
            << where << " layer " << l;
      }
    }
  }
}

// Rewinding to empty merges a grown slab chain into one slab of the same
// capacity: afterwards a single block of the whole capacity fits without
// growth, which no chain of smaller slabs could hold.
TEST(KernelParityTest, EmptiedArenaMergesItsSlabs) {
  std::thread worker([] {
    KernelArena& arena = KernelArena::ThreadLocal();
    {
      KernelArena::Scope scope(&arena);
      for (size_t n = 1000; n < 200000; n *= 3) arena.Alloc(n);
    }
    const size_t grown = arena.grow_count();
    const size_t reserved = arena.reserved_bytes();
    EXPECT_GT(grown, 2u);  // a chain grew, and was merged
    {
      KernelArena::Scope scope(&arena);
      arena.Alloc(reserved / sizeof(double));
    }
    EXPECT_EQ(arena.grow_count(), grown);
    EXPECT_EQ(arena.reserved_bytes(), reserved);
  });
  worker.join();
}

// Arena growth is observable: a fresh thread's first batched call reserves
// slabs and reports the bytes through the metrics registry.
TEST(KernelParityTest, ArenaGrowthReportsCounter) {
#if UDAO_METRICS_ENABLED
  const long long before =
      MetricsRegistry::Global().CounterValue("udao.nn.arena_bytes");
#endif
  const Mlp mlp = MakeMlp({4, 16, 1}, Activation::kRelu, 9);
  Rng rng(10);
  Matrix x(8, 4);
  for (double& v : x.data()) v = rng.Uniform();
  size_t thread_reserved = 0;
  std::thread worker([&] {
    Vector values;
    mlp.PredictBatch(x, &values);
    thread_reserved = KernelArena::ThreadLocal().reserved_bytes();
  });
  worker.join();
  EXPECT_GT(thread_reserved, 0u);
#if UDAO_METRICS_ENABLED
  // The counter is emitted only when instrumentation is compiled in.
  const long long after =
      MetricsRegistry::Global().CounterValue("udao.nn.arena_bytes");
  EXPECT_GE(after - before, static_cast<long long>(thread_reserved));
#endif
}

}  // namespace
}  // namespace udao
