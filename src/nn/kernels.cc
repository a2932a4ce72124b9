// The only translation unit allowed to contain vector intrinsics or
// `#pragma omp simd` (udao_lint raw-intrinsic rule): everything SIMD lives
// behind the KernelTable dispatch so a bad intrinsic can only enter through
// one reviewed funnel, and the scalar backend stays a faithful bit-for-bit
// reference for the pre-kernel plain loops.
//
// Exactness rules the implementations below obey (tests pin them):
//  - Scalar kernels replicate the original matrix.cc / mlp.cc loops exactly:
//    single-chain sequential dot accumulation, per-element mul+add axpy (no
//    FMA contraction on baseline x86-64), zero-coefficient skips in gemm_nn.
//    Under UDAO_KERNEL=scalar the whole system is bitwise-identical to the
//    pre-kernel code.
//  - Within a backend, layer_forward and gemm_nn are bitwise-identical to
//    composing that backend's dot and axpy: the AVX2 register blocking only
//    shares loads and keeps partial sums in registers; every output keeps
//    its own accumulators, operations and operation order.
//  - Across backends, results agree to a relative 1e-10 (kernel_parity_test
//    uses 1e-12 headroom per element; DESIGN.md "Kernel layer" documents the
//    contract). AVX2 reassociates dot sums (4 vector accumulators) and
//    contracts mul+add to FMA, which is where the low-bit drift comes from.
//  - The Adam update is the exception: both backends perform the same
//    correctly rounded mul/add/div/sqrt per element in the same order, so
//    they agree bit for bit. Its AVX2 entry is compiled for "avx2" alone:
//    without "fma" in the target the compiler cannot contract a mul+add.
#include "nn/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <new>

#include "common/check.h"
#include "common/metrics_registry.h"

#if defined(__x86_64__) || defined(__i386__)
#define UDAO_KERNELS_X86 1
#include <immintrin.h>
#else
#define UDAO_KERNELS_X86 0
#endif

namespace udao {
namespace kernels {

namespace {

// Every table kernel starts on a 64-byte boundary, so where its loops fall
// relative to instruction-fetch and decoded-uop-cache boundaries is fixed by
// its own code. Unpinned, it moved with the size of whatever the linker put
// before this file: a 16-byte shift alone cost cold_solve ~16% in p50.
#define UDAO_KERNEL_ALIGNED __attribute__((aligned(64)))

// ------------------------------------------------------------------ scalar

UDAO_KERNEL_ALIGNED
double DotScalar(const double* a, const double* b, int n) {
  double acc = 0.0;
  for (int i = 0; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

// Elementwise, so vectorization cannot reassociate anything: each lane is an
// independent mul+add, bitwise-identical to the sequential loop. This is the
// portable-SIMD fallback lane of the kernel layer (no -mavx2 required).
UDAO_KERNEL_ALIGNED
void AxpyScalar(double* dst, const double* src, double scale, int n) {
#pragma omp simd
  for (int i = 0; i < n; ++i) dst[i] += scale * src[i];
}

UDAO_KERNEL_ALIGNED
void LayerForwardScalar(const double* in, int rows, int in_dim,
                        const double* w, const double* bias, int out_dim,
                        Fused fuse, double* out) {
  for (int r = 0; r < rows; ++r) {
    const double* a = in + static_cast<size_t>(r) * in_dim;
    double* o = out + static_cast<size_t>(r) * out_dim;
    for (int c = 0; c < out_dim; ++c) {
      double acc = DotScalar(a, w + static_cast<size_t>(c) * in_dim, in_dim);
      acc += bias[c];
      o[c] = (fuse == Fused::kBiasRelu && !(acc > 0.0)) ? 0.0 : acc;
    }
  }
}

UDAO_KERNEL_ALIGNED
void GemmNnScalar(const double* a, int rows, int k, const double* b, int cols,
                  double* out) {
  for (int i = 0; i < rows; ++i) {
    double* out_row = out + static_cast<size_t>(i) * cols;
    for (int j = 0; j < cols; ++j) out_row[j] = 0.0;
    const double* a_row = a + static_cast<size_t>(i) * k;
    for (int kk = 0; kk < k; ++kk) {
      const double a_ik = a_row[kk];
      if (a_ik == 0.0) continue;
      AxpyScalar(out_row, b + static_cast<size_t>(kk) * cols, a_ik, cols);
    }
  }
}

// The reference Adam update: one element at a time, in the table's order.
UDAO_KERNEL_ALIGNED
void AdamScalar(double* params, const double* grad, double* m, double* v,
                int n, const AdamStep& step) {
  for (int i = 0; i < n; ++i) {
    m[i] = step.beta1 * m[i] + step.one_minus_beta1 * grad[i];
    v[i] = step.beta2 * v[i] + step.one_minus_beta2 * grad[i] * grad[i];
    const double mhat = m[i] / step.bias_correction1;
    const double vhat = v[i] / step.bias_correction2;
    params[i] -=
        step.learning_rate * mhat / (std::sqrt(vhat) + step.epsilon);
  }
}

const KernelTable kScalarTable = {
    Backend::kScalar, "scalar",            &DotScalar,    &AxpyScalar,
    &LayerForwardScalar, &GemmNnScalar,    &AdamScalar,
};

// -------------------------------------------------------------------- avx2
//
// Per-function target attributes keep the rest of the build on the baseline
// architecture: no global -mavx2, so the binary still starts on any x86-64
// and the dispatcher alone decides whether these functions ever execute.

#if UDAO_KERNELS_X86

// Reduction order of every AVX2 dot product: (acc0+acc1)+(acc2+acc3) over
// its four accumulators, then (LaneSum) low lane pair + high lane pair, then
// the two scalars.
__attribute__((target("avx2,fma"), always_inline)) inline double LaneSum(
    __m256d acc) {
  const __m128d lo = _mm256_castpd256_pd128(acc);
  const __m128d hi = _mm256_extractf128_pd(acc, 1);
  const __m128d pair = _mm_add_pd(lo, hi);
  return _mm_cvtsd_f64(pair) + _mm_cvtsd_f64(_mm_unpackhi_pd(pair, pair));
}

UDAO_KERNEL_ALIGNED
__attribute__((target("avx2,fma"))) double DotAvx2(const double* a,
                                                   const double* b, int n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  __m256d acc2 = _mm256_setzero_pd();
  __m256d acc3 = _mm256_setzero_pd();
  int i = 0;
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i),
                           acc0);
    acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i + 4),
                           _mm256_loadu_pd(b + i + 4), acc1);
    acc2 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i + 8),
                           _mm256_loadu_pd(b + i + 8), acc2);
    acc3 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i + 12),
                           _mm256_loadu_pd(b + i + 12), acc3);
  }
  for (; i + 4 <= n; i += 4) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i),
                           acc0);
  }
  double acc = LaneSum(
      _mm256_add_pd(_mm256_add_pd(acc0, acc1), _mm256_add_pd(acc2, acc3)));
  for (; i < n; ++i) acc = std::fma(a[i], b[i], acc);
  return acc;
}

UDAO_KERNEL_ALIGNED
__attribute__((target("avx2,fma"))) void AxpyAvx2(double* dst,
                                                  const double* src,
                                                  double scale, int n) {
  const __m256d vs = _mm256_set1_pd(scale);
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        dst + i,
        _mm256_fmadd_pd(_mm256_loadu_pd(src + i), vs,
                        _mm256_loadu_pd(dst + i)));
  }
  for (; i < n; ++i) dst[i] = std::fma(src[i], scale, dst[i]);
}

// The register-blocked kernels below are DotAvx2 and AxpyAvx2 rearranged,
// not approximated: each output element sees the same operations on the
// same operands in the same order, so the blocking changes no bit. Their
// helpers are forced inline so accumulators stay in named registers of the
// calling kernel whatever the optimization level.

// DotAvx2's vector part for two weight rows at once: each input load feeds
// both rows' FMAs, and each row keeps DotAvx2's four accumulators and block
// order. Returns each row's (acc0+acc1)+(acc2+acc3); the n % 4 tail is the
// caller's.
__attribute__((target("avx2,fma"), always_inline)) inline void DotPairAvx2(
    const double* a, const double* w0, const double* w1, int n, __m256d* s0,
    __m256d* s1) {
  __m256d p0 = _mm256_setzero_pd();
  __m256d p1 = _mm256_setzero_pd();
  __m256d p2 = _mm256_setzero_pd();
  __m256d p3 = _mm256_setzero_pd();
  __m256d q0 = _mm256_setzero_pd();
  __m256d q1 = _mm256_setzero_pd();
  __m256d q2 = _mm256_setzero_pd();
  __m256d q3 = _mm256_setzero_pd();
  int i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256d x0 = _mm256_loadu_pd(a + i);
    const __m256d x1 = _mm256_loadu_pd(a + i + 4);
    const __m256d x2 = _mm256_loadu_pd(a + i + 8);
    const __m256d x3 = _mm256_loadu_pd(a + i + 12);
    p0 = _mm256_fmadd_pd(x0, _mm256_loadu_pd(w0 + i), p0);
    q0 = _mm256_fmadd_pd(x0, _mm256_loadu_pd(w1 + i), q0);
    p1 = _mm256_fmadd_pd(x1, _mm256_loadu_pd(w0 + i + 4), p1);
    q1 = _mm256_fmadd_pd(x1, _mm256_loadu_pd(w1 + i + 4), q1);
    p2 = _mm256_fmadd_pd(x2, _mm256_loadu_pd(w0 + i + 8), p2);
    q2 = _mm256_fmadd_pd(x2, _mm256_loadu_pd(w1 + i + 8), q2);
    p3 = _mm256_fmadd_pd(x3, _mm256_loadu_pd(w0 + i + 12), p3);
    q3 = _mm256_fmadd_pd(x3, _mm256_loadu_pd(w1 + i + 12), q3);
  }
  for (; i + 4 <= n; i += 4) {
    const __m256d x = _mm256_loadu_pd(a + i);
    p0 = _mm256_fmadd_pd(x, _mm256_loadu_pd(w0 + i), p0);
    q0 = _mm256_fmadd_pd(x, _mm256_loadu_pd(w1 + i), q0);
  }
  *s0 = _mm256_add_pd(_mm256_add_pd(p0, p1), _mm256_add_pd(p2, p3));
  *s1 = _mm256_add_pd(_mm256_add_pd(q0, q1), _mm256_add_pd(q2, q3));
}

// LaneSum's additions for four dot products at once: lane c of the result
// is (s_c[0] + s_c[2]) + (s_c[1] + s_c[3]), operand for operand.
__attribute__((target("avx2,fma"), always_inline)) inline __m256d
HorizontalSum4(__m256d s0, __m256d s1, __m256d s2, __m256d s3) {
  const __m256d s02 = _mm256_add_pd(_mm256_permute2f128_pd(s0, s2, 0x20),
                                    _mm256_permute2f128_pd(s0, s2, 0x31));
  const __m256d s13 = _mm256_add_pd(_mm256_permute2f128_pd(s1, s3, 0x20),
                                    _mm256_permute2f128_pd(s1, s3, 0x31));
  return _mm256_hadd_pd(s02, s13);
}

// Rows per register-blocked pass, one rule for both blocked kernels. A row
// of a pass keeps `accumulators` vectors live across the pass's loop, and
// the pass loads `shared` vectors that all its rows read, plus one operand
// per row at a time. A row with few accumulators runs latency-bound (each
// FMA waits for the previous one into the same register), so a pass takes
// as many rows, up to four, as fit the 16 ymm registers.
constexpr int RowsPerPass(int accumulators, int shared) {
  for (int rows = 4; rows > 1; rows /= 2) {
    if (rows * accumulators + shared + 1 <= 16) return rows;
  }
  return 1;
}

// DotAvx2 below 16 inputs runs only its 4-wide loop, so each dot keeps one
// live accumulator, acc0, and its reduction (acc0+acc1)+(acc2+acc3) over
// zeros is acc0 + 0.0 (which turns a -0.0 lane into +0.0, so it stays).
// R input rows (row stride = n) against four weight rows (w0, stride n) at
// once, each weight load feeding R FMAs; sums[r] gets row r's four sums.
template <int R>
__attribute__((target("avx2,fma"), always_inline)) inline void ShortDotsAvx2(
    const double* a, const double* w0, int n, __m256d* sums) {
  const size_t stride = static_cast<size_t>(n);
  __m256d acc[R][4];
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 4
    for (int j = 0; j < 4; ++j) acc[r][j] = _mm256_setzero_pd();
  }
  for (int i = 0; i + 4 <= n; i += 4) {
    __m256d wv[4];
#pragma GCC unroll 4
    for (int j = 0; j < 4; ++j) wv[j] = _mm256_loadu_pd(w0 + j * stride + i);
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      const __m256d x = _mm256_loadu_pd(a + r * stride + i);
#pragma GCC unroll 4
      for (int j = 0; j < 4; ++j) {
        acc[r][j] = _mm256_fmadd_pd(x, wv[j], acc[r][j]);
      }
    }
  }
  const __m256d zero = _mm256_setzero_pd();
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
    sums[r] = HorizontalSum4(
        _mm256_add_pd(acc[r][0], zero), _mm256_add_pd(acc[r][1], zero),
        _mm256_add_pd(acc[r][2], zero), _mm256_add_pd(acc[r][3], zero));
  }
}

// Finishes four outputs of one input row from their vector sums: the
// in_dim % 4 tail per output as in DotAvx2, then bias and ReLU on the
// vector.
__attribute__((target("avx2,fma"), always_inline)) inline void FinishFourAvx2(
    __m256d acc, const double* a, const double* w0, int in_dim,
    const double* bias, Fused fuse, double* o) {
  const int vec_end = in_dim & ~3;
  if (vec_end < in_dim) {
    alignas(32) double sum[4];
    _mm256_store_pd(sum, acc);
    for (int j = 0; j < 4; ++j) {
      const double* wj = w0 + static_cast<size_t>(j) * in_dim;
      for (int i = vec_end; i < in_dim; ++i) {
        sum[j] = std::fma(a[i], wj[i], sum[j]);
      }
    }
    acc = _mm256_load_pd(sum);
  }
  acc = _mm256_add_pd(acc, _mm256_loadu_pd(bias));
  if (fuse == Fused::kBiasRelu) {
    // !(acc > 0.0) ? 0.0 : acc per lane: the ordered compare is false for
    // NaN, and the and-mask yields +0.0 for -0.0.
    acc = _mm256_and_pd(acc,
                        _mm256_cmp_pd(acc, _mm256_setzero_pd(), _CMP_GT_OQ));
  }
  _mm256_storeu_pd(o, acc);
}

// Four outputs per step, HorizontalSum4 finishing their sums together. From
// 16 inputs on, each dot keeps DotAvx2's four accumulators, so a pass takes
// one input row and two DotPairAvx2 calls share its loads. Below 16, a dot
// keeps one, so a pass takes RowsPerPass rows through ShortDotsAvx2; the
// rows left over take the one-row pass. The out_dim % 4 leftover outputs (a
// 1-output layer is all leftover) take two rows per DotPairAvx2 pass with
// the weight row as the shared operand: fma(w, a, acc) and fma(a, w, acc)
// round the same exact product, so each sum keeps DotAvx2's bits. An odd
// last row takes DotAvx2 itself.
UDAO_KERNEL_ALIGNED
__attribute__((target("avx2,fma"))) void LayerForwardAvx2(
    const double* in, int rows, int in_dim, const double* w,
    const double* bias, int out_dim, Fused fuse, double* out) {
  const size_t stride = static_cast<size_t>(in_dim);
  const int vec_end = in_dim & ~3;
  const int left = out_dim & ~3;  // first leftover output
  int r = 0;
  if (in_dim < 16) {
    constexpr int kRows = RowsPerPass(4, 4);
    for (; r + kRows <= rows && left > 0; r += kRows) {
      const double* a = in + r * stride;
      double* o = out + static_cast<size_t>(r) * out_dim;
      for (int c = 0; c < left; c += 4) {
        const double* w0 = w + c * stride;
        __m256d sums[kRows];
        ShortDotsAvx2<kRows>(a, w0, in_dim, sums);
        for (int q = 0; q < kRows; ++q) {
          FinishFourAvx2(sums[q], a + q * stride, w0, in_dim, bias + c, fuse,
                         o + static_cast<size_t>(q) * out_dim + c);
        }
      }
    }
  }
  for (; r < rows && left > 0; ++r) {
    const double* a = in + r * stride;
    double* o = out + static_cast<size_t>(r) * out_dim;
    for (int c = 0; c < left; c += 4) {
      const double* w0 = w + c * stride;
      __m256d s0;
      __m256d s1;
      __m256d s2;
      __m256d s3;
      DotPairAvx2(a, w0, w0 + stride, in_dim, &s0, &s1);
      DotPairAvx2(a, w0 + 2 * stride, w0 + 3 * stride, in_dim, &s2, &s3);
      FinishFourAvx2(HorizontalSum4(s0, s1, s2, s3), a, w0, in_dim, bias + c,
                     fuse, o + c);
    }
  }
  if (left == out_dim) return;
  auto finish = [&](double z, int c) {
    z += bias[c];
    return (fuse == Fused::kBiasRelu && !(z > 0.0)) ? 0.0 : z;
  };
  r = 0;
  for (; r + 2 <= rows; r += 2) {
    const double* a0 = in + r * stride;
    const double* a1 = a0 + stride;
    double* o0 = out + static_cast<size_t>(r) * out_dim;
    double* o1 = o0 + out_dim;
    for (int c = left; c < out_dim; ++c) {
      const double* wc = w + c * stride;
      __m256d s0;
      __m256d s1;
      DotPairAvx2(wc, a0, a1, in_dim, &s0, &s1);
      double z0 = LaneSum(s0);
      double z1 = LaneSum(s1);
      for (int i = vec_end; i < in_dim; ++i) {
        z0 = std::fma(a0[i], wc[i], z0);
        z1 = std::fma(a1[i], wc[i], z1);
      }
      o0[c] = finish(z0, c);
      o1[c] = finish(z1, c);
    }
  }
  if (r < rows) {
    const double* a = in + r * stride;
    double* o = out + static_cast<size_t>(r) * out_dim;
    for (int c = left; c < out_dim; ++c) {
      o[c] = finish(DotAvx2(a, w + c * stride, in_dim), c);
    }
  }
}

// R output rows x V vectors (4 * V columns), held in registers across the
// whole k loop: each element is AxpyAvx2's fma(b[k][j], a_ik, acc) in k
// order with its own row's a_ik == 0.0 skips, stored once at the end. The R
// rows read the same row of b, each through its own memory operands (b
// stays in L1; loading it into registers once spilled accumulators).
template <int R, int V>
__attribute__((target("avx2,fma"), always_inline)) inline void GemmPassAvx2(
    const double* a, int k, const double* b, int cols, double* out) {
  static_assert(V >= 1 && V <= 8, "one block holds 1 to 8 vectors");
  __m256d acc[R][V];
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 8
    for (int v = 0; v < V; ++v) acc[r][v] = _mm256_setzero_pd();
  }
  for (int kk = 0; kk < k; ++kk) {
    const double* bk = b + static_cast<size_t>(kk) * cols;
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      const double a_rk = a[static_cast<size_t>(r) * k + kk];
      if (a_rk == 0.0) continue;
      const __m256d va = _mm256_set1_pd(a_rk);
#pragma GCC unroll 8
      for (int v = 0; v < V; ++v) {
        acc[r][v] =
            _mm256_fmadd_pd(_mm256_loadu_pd(bk + 4 * v), va, acc[r][v]);
      }
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 8
    for (int v = 0; v < V; ++v) {
      _mm256_storeu_pd(out + static_cast<size_t>(r) * cols + 4 * v,
                       acc[r][v]);
    }
  }
}

// One V-vector column block of every output row: RowsPerPass rows per pass
// (a row keeps V accumulators, and every row reads the same V vectors of
// b), the rows left over one at a time.
template <int V>
__attribute__((target("avx2,fma"), always_inline)) inline void
GemmColumnBlockAvx2(const double* a, int rows, int k, const double* b,
                    int cols, double* out) {
  constexpr int kRows = RowsPerPass(V, V);
  int i = 0;
  for (; i + kRows <= rows; i += kRows) {
    GemmPassAvx2<kRows, V>(a + static_cast<size_t>(i) * k, k, b, cols,
                           out + static_cast<size_t>(i) * cols);
  }
  if constexpr (kRows > 1) {
    for (; i < rows; ++i) {
      GemmPassAvx2<1, V>(a + static_cast<size_t>(i) * k, k, b, cols,
                         out + static_cast<size_t>(i) * cols);
    }
  }
}

// Column blocks of 8 vectors, then one block of the remaining 1 to 7
// vectors (one k pass each: the pass count, not the FMA count, dominates),
// then each row's cols % 4 tail through AxpyAvx2 itself.
UDAO_KERNEL_ALIGNED
__attribute__((target("avx2,fma"))) void GemmNnAvx2(const double* a, int rows,
                                                    int k, const double* b,
                                                    int cols, double* out) {
  int j = 0;
  for (; j + 32 <= cols; j += 32) {
    GemmColumnBlockAvx2<8>(a, rows, k, b + j, cols, out + j);
  }
  switch ((cols - j) / 4) {
    case 7:
      GemmColumnBlockAvx2<7>(a, rows, k, b + j, cols, out + j);
      break;
    case 6:
      GemmColumnBlockAvx2<6>(a, rows, k, b + j, cols, out + j);
      break;
    case 5:
      GemmColumnBlockAvx2<5>(a, rows, k, b + j, cols, out + j);
      break;
    case 4:
      GemmColumnBlockAvx2<4>(a, rows, k, b + j, cols, out + j);
      break;
    case 3:
      GemmColumnBlockAvx2<3>(a, rows, k, b + j, cols, out + j);
      break;
    case 2:
      GemmColumnBlockAvx2<2>(a, rows, k, b + j, cols, out + j);
      break;
    case 1:
      GemmColumnBlockAvx2<1>(a, rows, k, b + j, cols, out + j);
      break;
    default:
      break;
  }
  const int tail = cols & ~3;
  if (tail == cols) return;
  for (int i = 0; i < rows; ++i) {
    const double* a_row = a + static_cast<size_t>(i) * k;
    double* out_row = out + static_cast<size_t>(i) * cols;
    for (j = tail; j < cols; ++j) out_row[j] = 0.0;
    for (int kk = 0; kk < k; ++kk) {
      const double a_ik = a_row[kk];
      if (a_ik == 0.0) continue;
      AxpyAvx2(out_row + tail, b + static_cast<size_t>(kk) * cols + tail, a_ik,
               cols - tail);
    }
  }
}

// AdamScalar four elements per step: the same operations on the same
// operands, each correctly rounded, so the lanes equal the scalar loop bit
// for bit. "avx2" without "fma" keeps the compiler from contracting any
// mul+add here; the n % 4 tail is AdamScalar itself.
UDAO_KERNEL_ALIGNED
__attribute__((target("avx2"))) void AdamAvx2(double* params,
                                              const double* grad, double* m,
                                              double* v, int n,
                                              const AdamStep& step) {
  const __m256d beta1 = _mm256_set1_pd(step.beta1);
  const __m256d beta2 = _mm256_set1_pd(step.beta2);
  const __m256d one_minus_beta1 = _mm256_set1_pd(step.one_minus_beta1);
  const __m256d one_minus_beta2 = _mm256_set1_pd(step.one_minus_beta2);
  const __m256d bias_correction1 = _mm256_set1_pd(step.bias_correction1);
  const __m256d bias_correction2 = _mm256_set1_pd(step.bias_correction2);
  const __m256d learning_rate = _mm256_set1_pd(step.learning_rate);
  const __m256d epsilon = _mm256_set1_pd(step.epsilon);
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d g = _mm256_loadu_pd(grad + i);
    const __m256d mi =
        _mm256_add_pd(_mm256_mul_pd(beta1, _mm256_loadu_pd(m + i)),
                      _mm256_mul_pd(one_minus_beta1, g));
    const __m256d vi = _mm256_add_pd(
        _mm256_mul_pd(beta2, _mm256_loadu_pd(v + i)),
        _mm256_mul_pd(_mm256_mul_pd(one_minus_beta2, g), g));
    _mm256_storeu_pd(m + i, mi);
    _mm256_storeu_pd(v + i, vi);
    const __m256d mhat = _mm256_div_pd(mi, bias_correction1);
    const __m256d vhat = _mm256_div_pd(vi, bias_correction2);
    const __m256d delta =
        _mm256_div_pd(_mm256_mul_pd(learning_rate, mhat),
                      _mm256_add_pd(_mm256_sqrt_pd(vhat), epsilon));
    _mm256_storeu_pd(params + i,
                     _mm256_sub_pd(_mm256_loadu_pd(params + i), delta));
  }
  AdamScalar(params + i, grad + i, m + i, v + i, n - i, step);
}

const KernelTable kAvx2Table = {
    Backend::kAvx2, "avx2",            &DotAvx2,    &AxpyAvx2,
    &LayerForwardAvx2, &GemmNnAvx2,    &AdamAvx2,
};

#endif  // UDAO_KERNELS_X86

#undef UDAO_KERNEL_ALIGNED

// --------------------------------------------------------------- dispatch

const KernelTable* ChooseStartupTable() {
  const char* env = std::getenv("UDAO_KERNEL");
  if (env == nullptr || env[0] == '\0' ||
      std::strcmp(env, "native") == 0) {
    return CpuSupportsAvx2() ? TableForBackend(Backend::kAvx2)
                             : TableForBackend(Backend::kScalar);
  }
  if (std::strcmp(env, "scalar") == 0) {
    return TableForBackend(Backend::kScalar);
  }
  if (std::strcmp(env, "avx2") == 0) {
    // Failing loudly instead of falling back keeps the CI parity matrix
    // honest: an avx2 leg on a machine without AVX2 must go red, not
    // silently re-test the scalar kernels.
    UDAO_CHECK(CpuSupportsAvx2());
    return TableForBackend(Backend::kAvx2);
  }
  // Unknown value: abort via a self-describing check (stderr itself is
  // reserved for the CHECK abort path in common/check.h).
  const bool udao_kernel_env_must_be_scalar_avx2_or_native = false;
  UDAO_CHECK(udao_kernel_env_must_be_scalar_avx2_or_native);
  return nullptr;
}

std::atomic<const KernelTable*>& TableSlot() {
  static std::atomic<const KernelTable*> slot{ChooseStartupTable()};
  return slot;
}

}  // namespace

bool CpuSupportsAvx2() {
#if UDAO_KERNELS_X86
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

const KernelTable* ActiveTable() {
  return TableSlot().load(std::memory_order_acquire);
}

Backend ActiveBackend() { return ActiveTable()->backend; }

const KernelTable* TableForBackend(Backend backend) {
  switch (backend) {
    case Backend::kScalar:
      return &kScalarTable;
    case Backend::kAvx2:
#if UDAO_KERNELS_X86
      UDAO_CHECK(CpuSupportsAvx2());
      return &kAvx2Table;
#else
      break;
#endif
  }
  UDAO_CHECK(false);
  return nullptr;
}

void SetBackendForTesting(Backend backend) {
  TableSlot().store(TableForBackend(backend), std::memory_order_release);
}

// ------------------------------------------------------------------ arena

double* KernelArena::Alloc(size_t n) {
  // Whole lines: slab sizes stay multiples of a line (the minimum slab and
  // every growth are), so each block, like each slab, starts on one.
  n = WholeLines(std::max<size_t>(n, 1));
  while (slab_ < slabs_.size()) {
    Slab& s = slabs_[slab_];
    if (used_ + n <= s.size) {
      double* p = s.data.get() + used_;
      used_ += n;
      return p;
    }
    // Skip the remainder of this slab and bump into the next one.
    ++slab_;
    used_ = 0;
  }
  // Growth: besides Merge, the only heap traffic the arena ever causes.
  // Doubling against the total already reserved keeps the slab count
  // logarithmic in demand.
  constexpr size_t kMinSlabDoubles = 4096;  // 32 KiB
  const size_t size = std::max(n, std::max(kMinSlabDoubles, reserved_));
  AddSlab(size);
  reserved_ += size;
  slab_ = slabs_.size() - 1;
  used_ = n;
  return slabs_.back().data.get();
}

void KernelArena::Merge() {
  // Free the chain before acquiring its replacement, so the two are never
  // held at once.
  slabs_.clear();
  AddSlab(reserved_);
}

void KernelArena::AddSlab(size_t size) {
  // Not zero-filled: every consumer writes a block before reading it, so a
  // slab's pages become resident only as far as demand actually reaches.
  Slab slab;
  slab.data.reset(static_cast<double*>(::operator new[](
      size * sizeof(double), std::align_val_t{kLineBytes})));
  slab.size = size;
  slabs_.push_back(std::move(slab));
  ++grow_count_;
  UDAO_METRIC_COUNTER_ADD("udao.nn.arena_bytes",
                          static_cast<long long>(size * sizeof(double)));
}

void KernelArena::LineAlignedDelete::operator()(double* p) const {
  ::operator delete[](p, std::align_val_t{kLineBytes});
}

KernelArena& KernelArena::ThreadLocal() {
  static thread_local KernelArena arena;
  return arena;
}

}  // namespace kernels
}  // namespace udao
