// Parity contracts of the dispatched dense-kernel layer (nn/kernels.h):
//
//  * within one backend, the fused layer_forward is bitwise-equal to
//    composing dot + bias + relu by hand, and gemm_nn to the per-row axpy
//    loop with zero-coefficient skips, on every shape class the
//    register-blocked AVX2 kernels split into (block, tail, leftover,
//    multi-row pass) and with operands at every offset in a cache line;
//  * across backends, every primitive and the batched MLP entry points built
//    on them (PredictBatch / GradientBatch) agree to a tight relative
//    tolerance -- AVX2's multi-accumulator reductions and FMA contraction
//    may differ from the scalar chain only in the last bits -- except the
//    elementwise Adam update, which must agree bit for bit;
//  * the UDAO_KERNEL environment contract holds (the CI parity matrix runs
//    this binary once per backend);
//  * the KernelArena stops touching the heap after the first iteration of a
//    fixed-shape batched workload, reports its growth through the
//    udao.nn.arena_bytes counter, and starts every block on a cache line;
//  * no batched MLP path reads arena memory before writing it (slabs are
//    not zero-filled), so stale slab contents never reach an output, and an
//    emptied arena merges its grown slab chain into one slab.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
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

// Shapes for the bitwise kernel checks: every row count up to one past the
// MOGD batch of 8, and in/out widths around the AVX2 blocking boundaries
// (4-wide vectors, 16-wide dot blocks, 4-output groups, 8-vector column
// blocks), plus the served 12-64-64-1 and paper 4x128 layer widths. Every
// width below 16 (each with its in_dim % 4 tail) reaches layer_forward's
// multi-row short pass; as gemm_nn's k they vary the zero-skip pattern.
constexpr int kShapeInDims[] = {1,  2,  3,  4,  5,  6,  7,  8,  9,  10, 11,
                                12, 13, 14, 15, 16, 17, 31, 64, 65, 128, 129};
// out_dim % 4 leftovers of 1, 2 and 3 outputs, alone and after full
// 4-output groups; rows 1 to 9 reach the leftover row pairs and the odd row.
constexpr int kShapeOutDims[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 64, 65};
// gemm_nn column counts: a column block of each width from 1 to 8 vectors
// (4 to 32 columns), with and without a cols % 4 tail, and rows spanning
// more than one 8-vector block. Blocks of 1 to 3 vectors take four rows per
// pass and of 4 to 5 vectors two, so rows 1 to 9 reach full passes and
// every count of leftover rows.
constexpr int kShapeGemmCols[] = {1,  3,  4,  5,  8,  9,  12, 16, 17,
                                  20, 24, 28, 31, 32, 33, 44, 64, 65};
constexpr int kShapeMaxRows = 9;

// Random values in [-1, 1) where about one in six is an exact 0.0 and one in
// six an exact -0.0, so zero skips and signed-zero arithmetic are exercised.
Vector RandomWithZeros(int n, uint64_t seed) {
  Rng rng(seed);
  Vector v(n);
  for (double& x : v) {
    const double u = rng.Uniform();
    x = u < 1.0 / 6.0 ? 0.0 : u < 2.0 / 6.0 ? -0.0 : rng.Uniform() * 2.0 - 1.0;
  }
  return v;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Copies `values` into *storage so that the copy starts `offset` doubles
// (0 to 7) past a 64-byte cache line, and returns the copy.
double* AtLineOffset(const Vector& values, int offset, Vector* storage) {
  storage->assign(values.size() + 2 * kernels::kLineDoubles, 0.0);
  void* line = storage->data();
  size_t space = storage->size() * sizeof(double);
  EXPECT_NE(std::align(64, sizeof(double), line, space), nullptr);
  double* copy = static_cast<double*>(line) + offset;
  std::copy(values.begin(), values.end(), copy);
  return copy;
}

constexpr int kLineOffsets = static_cast<int>(kernels::kLineDoubles);

// The fused layer kernel must be exactly dot + bias + relu of the same
// backend -- that is what keeps batched and scalar MLP paths bitwise-equal
// within a backend. Compared by bits, so -0.0 against +0.0 fails. Operands
// start at every 8-byte offset in a cache line: the input and output at
// `offset`, the weights and bias at another offset.
TEST(KernelParityTest, LayerForwardMatchesComposedPrimitivesBitwise) {
  Vector in_store;
  Vector w_store;
  Vector bias_store;
  Vector out_store;
  for (Backend backend : SupportedBackends()) {
    const KernelTable* t = kernels::TableForBackend(backend);
    for (int in_dim : kShapeInDims) {
      for (int out_dim : kShapeOutDims) {
        const Vector in_vals =
            RandomWithZeros(kShapeMaxRows * in_dim, 42 + in_dim);
        const Vector w_vals = RandomWithZeros(out_dim * in_dim, 43 + out_dim);
        const Vector bias_vals = RandomWithZeros(out_dim, 44);
        for (int offset = 0; offset < kLineOffsets; ++offset) {
          const int w_offset = (offset + 5) % kLineOffsets;
          const double* in = AtLineOffset(in_vals, offset, &in_store);
          const double* w = AtLineOffset(w_vals, w_offset, &w_store);
          const double* bias = AtLineOffset(bias_vals, w_offset, &bias_store);
          for (int rows = 1; rows <= kShapeMaxRows; ++rows) {
            for (Fused fuse : {Fused::kBias, Fused::kBiasRelu}) {
              double* out = AtLineOffset(Vector(rows * out_dim), offset,
                                         &out_store);
              t->layer_forward(in, rows, in_dim, w, bias, out_dim, fuse, out);
              for (int r = 0; r < rows; ++r) {
                for (int c = 0; c < out_dim; ++c) {
                  const double* row = in + static_cast<size_t>(r) * in_dim;
                  const double* wr = w + static_cast<size_t>(c) * in_dim;
                  double z = t->dot(row, wr, in_dim);
                  z += bias[c];
                  if (fuse == Fused::kBiasRelu && !(z > 0.0)) z = 0.0;
                  ASSERT_TRUE(SameBits(out[r * out_dim + c], z))
                      << t->name << " rows " << rows << " in_dim " << in_dim
                      << " out_dim " << out_dim << " offset " << offset
                      << " relu " << (fuse == Fused::kBiasRelu) << " r " << r
                      << " c " << c << ": " << out[r * out_dim + c] << " vs "
                      << z;
                }
              }
            }
          }
        }
      }
    }
  }
}

// Signed zeros that survive the arithmetic: a product below the smallest
// subnormal rounds to -0.0, and -0.0 accumulators stay -0.0 where no +0.0
// joins them (in AVX2, dots whose four accumulators all take products;
// below 16 inputs the +0.0 accumulators turn them into +0.0). Plus a -0.0
// bias, the kBias output is then -0.0, which ReLU must turn into +0.0; bit
// comparison against the composed primitives checks both, on one to three
// rows so that the one-row and multi-row passes both see them.
TEST(KernelParityTest, LayerForwardKeepsSignedZerosBitwise) {
  int negative_zeros = 0;
  for (Backend backend : SupportedBackends()) {
    const KernelTable* t = kernels::TableForBackend(backend);
    for (int in_dim : kShapeInDims) {
      for (int rows = 1; rows <= 3; ++rows) {
        const int out_dim = 5;
        const Vector in(static_cast<size_t>(rows) * in_dim, 1e-200);
        const Vector w(static_cast<size_t>(out_dim) * in_dim, -1e-200);
        const Vector bias(out_dim, -0.0);
        for (Fused fuse : {Fused::kBias, Fused::kBiasRelu}) {
          Vector out(static_cast<size_t>(rows) * out_dim);
          t->layer_forward(in.data(), rows, in_dim, w.data(), bias.data(),
                           out_dim, fuse, out.data());
          for (int c = 0; c < out_dim; ++c) {
            double z = t->dot(in.data(), w.data() + c * in_dim, in_dim);
            z += bias[c];
            if (fuse == Fused::kBiasRelu && !(z > 0.0)) z = 0.0;
            negative_zeros += SameBits(z, -0.0) ? 1 : 0;
            for (int r = 0; r < rows; ++r) {
              EXPECT_TRUE(SameBits(out[r * out_dim + c], z))
                  << t->name << " in_dim " << in_dim << " rows " << rows
                  << " r " << r << " c " << c << " relu "
                  << (fuse == Fused::kBiasRelu);
            }
          }
        }
      }
    }
  }
  // The AVX2 dots at in_dim >= 16 end in -0.0, so the case is not vacuous.
  if (kernels::CpuSupportsAvx2()) {
    EXPECT_GT(negative_zeros, 0);
  }
}

// gemm_nn must be exactly Matrix::ApplyTranspose's order per output row:
// zero the row, then axpy each b row scaled by a nonzero a[i][kk], in kk
// order. Row 1 of `a` is all exact zeros (alternating signs), so that row
// must come out as +0.0 everywhere. Operands start at every 8-byte offset
// in a cache line: `a` and the output at `offset`, `b` at another offset.
TEST(KernelParityTest, GemmNnMatchesPerRowAxpyLoopBitwise) {
  Vector a_store;
  Vector b_store;
  Vector out_store;
  for (Backend backend : SupportedBackends()) {
    const KernelTable* t = kernels::TableForBackend(backend);
    for (int k : kShapeInDims) {
      for (int cols : kShapeGemmCols) {
        Vector a_vals = RandomWithZeros(kShapeMaxRows * k, 45 + k);
        for (int kk = 0; kk < k; ++kk) {
          a_vals[k + kk] = kk % 2 == 0 ? 0.0 : -0.0;
        }
        const Vector b_vals = RandomWithZeros(k * cols, 46 + cols);
        for (int offset = 0; offset < kLineOffsets; ++offset) {
          const double* a = AtLineOffset(a_vals, offset, &a_store);
          const double* b =
              AtLineOffset(b_vals, (offset + 3) % kLineOffsets, &b_store);
          for (int rows = 1; rows <= kShapeMaxRows; ++rows) {
            double* out =
                AtLineOffset(Vector(rows * cols), offset, &out_store);
            t->gemm_nn(a, rows, k, b, cols, out);
            Vector want(cols);
            for (int i = 0; i < rows; ++i) {
              std::fill(want.begin(), want.end(), 0.0);
              for (int kk = 0; kk < k; ++kk) {
                const double a_ik = a[static_cast<size_t>(i) * k + kk];
                if (a_ik == 0.0) continue;
                t->axpy(want.data(), b + static_cast<size_t>(kk) * cols, a_ik,
                        cols);
              }
              for (int j = 0; j < cols; ++j) {
                ASSERT_TRUE(SameBits(out[i * cols + j], want[j]))
                    << t->name << " rows " << rows << " k " << k << " cols "
                    << cols << " offset " << offset << " i " << i << " j "
                    << j << ": " << out[i * cols + j] << " vs " << want[j];
              }
            }
          }
        }
      }
    }
  }
}

// Each row of gemm_nn skips its own zero coefficients, also where a pass
// shares b's loads among several rows: a skipped 0 * inf would be NaN. b
// has rows of +inf, and each row of `a` is zero at a different subset of
// them (all coefficients nonnegative, so no inf - inf), so rows sharing a
// pass disagree about which b rows to skip.
TEST(KernelParityTest, GemmNnSkipsEachRowsOwnZeros) {
  const double inf = std::numeric_limits<double>::infinity();
  for (Backend backend : SupportedBackends()) {
    const KernelTable* t = kernels::TableForBackend(backend);
    for (int cols : kShapeGemmCols) {
      const int k = 6;
      Vector b = RandomVector(k * cols, 47 + cols);
      for (int kk : {1, 4}) {
        std::fill(b.begin() + kk * cols, b.begin() + (kk + 1) * cols, inf);
      }
      Vector a(static_cast<size_t>(kShapeMaxRows) * k);
      for (int i = 0; i < kShapeMaxRows; ++i) {
        for (int kk = 0; kk < k; ++kk) {
          // Row i is zero at b row 1 when bit 0 of i is set, at b row 4 when
          // bit 1 is, and nonzero elsewhere.
          const bool zero = (kk == 1 && (i & 1)) || (kk == 4 && (i & 2));
          a[i * k + kk] = zero ? 0.0 : 0.25 + 0.5 * ((i + kk) % 3);
        }
      }
      for (int rows = 1; rows <= kShapeMaxRows; ++rows) {
        Vector out(static_cast<size_t>(rows) * cols);
        t->gemm_nn(a.data(), rows, k, b.data(), cols, out.data());
        Vector want(cols);
        for (int i = 0; i < rows; ++i) {
          std::fill(want.begin(), want.end(), 0.0);
          for (int kk = 0; kk < k; ++kk) {
            const double a_ik = a[i * k + kk];
            if (a_ik == 0.0) continue;
            t->axpy(want.data(), b.data() + kk * cols, a_ik, cols);
          }
          for (int j = 0; j < cols; ++j) {
            ASSERT_TRUE(SameBits(out[i * cols + j], want[j]))
                << t->name << " rows " << rows << " cols " << cols << " i "
                << i << " j " << j << ": " << out[i * cols + j] << " vs "
                << want[j];
          }
        }
      }
    }
  }
}

// The Adam entry is elementwise IEEE mul/add/div/sqrt in one fixed order,
// so the AVX2 backend must reproduce the scalar one exactly: every length
// 1-67 (each n % 4 tail, after 0 to 16 vector steps), at a misaligned
// start, for zero, negative, tiny (subnormal), large and random gradients
// over nonzero moments, at the first step and at a step count where both
// bias corrections have reached 1.
TEST(KernelParityTest, AdamIsBitwiseEqualAcrossBackends) {
  if (!kernels::CpuSupportsAvx2()) GTEST_SKIP() << "no AVX2 on this host";
  const KernelTable* scalar = kernels::TableForBackend(Backend::kScalar);
  const KernelTable* avx2 = kernels::TableForBackend(Backend::kAvx2);
  auto make_step = [](int t) {
    const double beta1 = 0.9;
    const double beta2 = 0.999;
    return kernels::AdamStep{
        .beta1 = beta1,
        .beta2 = beta2,
        .one_minus_beta1 = 1.0 - beta1,
        .one_minus_beta2 = 1.0 - beta2,
        .bias_correction1 = 1.0 - std::pow(beta1, t),
        .bias_correction2 = 1.0 - std::pow(beta2, t),
        .learning_rate = 0.1,
        .epsilon = 1e-8,
    };
  };
  auto gradient = [](int kind, int n, uint64_t seed) {
    Vector g = RandomVector(n + 1, seed);
    for (double& x : g) {
      switch (kind) {
        case 0: x = 0.0; break;
        case 1: x = -std::fabs(x); break;
        case 2: x *= 1e-310; break;
        case 3: x *= 1e150; break;
        default: break;
      }
    }
    return g;
  };
  int steps = 0;
  for (int t : {1, 2, 1000000}) {
    const kernels::AdamStep step = make_step(t);
    for (int kind = 0; kind < 5; ++kind) {
      for (int n = 1; n <= 67; ++n) {
        const Vector g = gradient(kind, n, 61 * n + kind);
        Vector p_s = RandomVector(n + 1, 62 * n);
        Vector m_s = RandomVector(n + 1, 63 * n);
        Vector v_s = RandomVector(n + 1, 64 * n);
        for (double& v : v_s) v = std::fabs(v);
        if (t == 1) {
          std::fill(m_s.begin(), m_s.end(), 0.0);
          std::fill(v_s.begin(), v_s.end(), 0.0);
        }
        Vector p_v = p_s;
        Vector m_v = m_s;
        Vector v_v = v_s;
        // Two consecutive updates at offset 1, so the second reads moments
        // the first wrote.
        for (int rep = 0; rep < 2; ++rep) {
          scalar->adam(p_s.data() + 1, g.data() + 1, m_s.data() + 1,
                       v_s.data() + 1, n, step);
          avx2->adam(p_v.data() + 1, g.data() + 1, m_v.data() + 1,
                     v_v.data() + 1, n, step);
          ++steps;
        }
        for (int i = 0; i <= n; ++i) {
          ASSERT_TRUE(SameBits(p_s[i], p_v[i]) && SameBits(m_s[i], m_v[i]) &&
                      SameBits(v_s[i], v_v[i]))
              << "t " << t << " gradient kind " << kind << " n " << n
              << " i " << i << ": params " << p_s[i] << " vs " << p_v[i]
              << ", m " << m_s[i] << " vs " << m_v[i] << ", v " << v_s[i]
              << " vs " << v_v[i];
        }
      }
    }
  }
  EXPECT_EQ(steps, 3 * 5 * 67 * 2);
  EXPECT_EQ(make_step(1000000).bias_correction1, 1.0);
  EXPECT_EQ(make_step(1000000).bias_correction2, 1.0);
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
// 4x128 ReLU topology.
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
        // Bump through every existing slab one line at a time (blocks take
        // whole lines, so no slab remainder is skipped) until the arena has
        // to grow.
        KernelArena::Scope poison(&arena);
        const size_t grown = arena.grow_count();
        while (arena.grow_count() == grown) {
          std::fill_n(arena.Alloc(kernels::kLineDoubles),
                      kernels::kLineDoubles, std::nan(""));
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

// Every arena block starts on a 64-byte cache line, whatever the sizes
// before it (1 to 67 doubles), in a fresh slab after growth, and in the one
// slab a grown chain merges into.
TEST(KernelParityTest, ArenaBlocksStartOnACacheLine) {
  std::thread worker([] {
    KernelArena& arena = KernelArena::ThreadLocal();
    auto on_line = [](const double* p) {
      return reinterpret_cast<uintptr_t>(p) % 64 == 0;
    };
    for (const char* phase : {"first slab", "merged slab"}) {
      const size_t grown = arena.grow_count();
      {
        KernelArena::Scope scope(&arena);
        for (size_t n = 1; n <= 67; ++n) {
          EXPECT_TRUE(on_line(arena.Alloc(n))) << phase << " n " << n;
        }
        // Larger than the whole arena, so it takes a new slab.
        const size_t more = arena.reserved_bytes() / sizeof(double) + 1;
        EXPECT_TRUE(on_line(arena.Alloc(more))) << phase << " growth";
        for (size_t n = 1; n <= 67; ++n) {
          EXPECT_TRUE(on_line(arena.Alloc(n)))
              << phase << " after growth, n " << n;
        }
        EXPECT_GT(arena.grow_count(), grown) << phase;
      }
    }
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
