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
//  - Within a backend, dot128 is bitwise-identical to dot(a, b, 128): the
//    unrolled form preserves the generic accumulator structure and reduction
//    order, only removing loop control.
//  - Across backends, results agree to a relative 1e-10 (kernel_parity_test
//    uses 1e-12 headroom per element; DESIGN.md "Kernel layer" documents the
//    contract). AVX2 reassociates dot sums (4 vector accumulators) and
//    contracts mul+add to FMA, which is where the low-bit drift comes from.
#include "nn/kernels.h"

#include <cmath>
#include <cstdlib>
#include <cstring>

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

// Same single dependency chain and order as DotScalar (so the result is
// bitwise-identical); the unroll only amortizes loop control.
UDAO_KERNEL_ALIGNED
double Dot128Scalar(const double* a, const double* b) {
  double acc = 0.0;
  for (int i = 0; i < 128; i += 8) {
    acc += a[i] * b[i];
    acc += a[i + 1] * b[i + 1];
    acc += a[i + 2] * b[i + 2];
    acc += a[i + 3] * b[i + 3];
    acc += a[i + 4] * b[i + 4];
    acc += a[i + 5] * b[i + 5];
    acc += a[i + 6] * b[i + 6];
    acc += a[i + 7] * b[i + 7];
  }
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
      double acc = in_dim == 128 ? Dot128Scalar(a, w + 128 * c)
                                 : DotScalar(a, w + static_cast<size_t>(c) *
                                                        in_dim,
                                             in_dim);
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

const KernelTable kScalarTable = {
    Backend::kScalar, "scalar",     &DotScalar,   &Dot128Scalar,
    &AxpyScalar,      &LayerForwardScalar, &GemmNnScalar,
};

// -------------------------------------------------------------------- avx2
//
// Per-function target attributes keep the rest of the build on the baseline
// architecture: no global -mavx2, so the binary still starts on any x86-64
// and the dispatcher alone decides whether these functions ever execute.

#if UDAO_KERNELS_X86

// Reduction order shared by DotAvx2 and Dot128Avx2: (acc0+acc1)+(acc2+acc3),
// then low lane pair + high lane pair, then the two scalars.
__attribute__((target("avx2,fma"))) inline double HorizontalSum(
    __m256d acc0, __m256d acc1, __m256d acc2, __m256d acc3) {
  const __m256d acc =
      _mm256_add_pd(_mm256_add_pd(acc0, acc1), _mm256_add_pd(acc2, acc3));
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
  double acc = HorizontalSum(acc0, acc1, acc2, acc3);
  for (; i < n; ++i) acc = std::fma(a[i], b[i], acc);
  return acc;
}

// n == 128 fully unrolled: 8 blocks of 16, the exact iterations DotAvx2's
// main loop performs for n = 128 (and no tail), so the result is
// bitwise-identical to DotAvx2(a, b, 128).
#define UDAO_DOT128_BLOCK(off)                                              \
  acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + (off)),                        \
                         _mm256_loadu_pd(b + (off)), acc0);                 \
  acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(a + (off) + 4),                    \
                         _mm256_loadu_pd(b + (off) + 4), acc1);             \
  acc2 = _mm256_fmadd_pd(_mm256_loadu_pd(a + (off) + 8),                    \
                         _mm256_loadu_pd(b + (off) + 8), acc2);             \
  acc3 = _mm256_fmadd_pd(_mm256_loadu_pd(a + (off) + 12),                   \
                         _mm256_loadu_pd(b + (off) + 12), acc3);

UDAO_KERNEL_ALIGNED
__attribute__((target("avx2,fma"))) double Dot128Avx2(const double* a,
                                                      const double* b) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  __m256d acc2 = _mm256_setzero_pd();
  __m256d acc3 = _mm256_setzero_pd();
  UDAO_DOT128_BLOCK(0)
  UDAO_DOT128_BLOCK(16)
  UDAO_DOT128_BLOCK(32)
  UDAO_DOT128_BLOCK(48)
  UDAO_DOT128_BLOCK(64)
  UDAO_DOT128_BLOCK(80)
  UDAO_DOT128_BLOCK(96)
  UDAO_DOT128_BLOCK(112)
  return HorizontalSum(acc0, acc1, acc2, acc3);
}

#undef UDAO_DOT128_BLOCK

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

UDAO_KERNEL_ALIGNED
__attribute__((target("avx2,fma"))) void LayerForwardAvx2(
    const double* in, int rows, int in_dim, const double* w,
    const double* bias, int out_dim, Fused fuse, double* out) {
  for (int r = 0; r < rows; ++r) {
    const double* a = in + static_cast<size_t>(r) * in_dim;
    double* o = out + static_cast<size_t>(r) * out_dim;
    for (int c = 0; c < out_dim; ++c) {
      double acc = in_dim == 128 ? Dot128Avx2(a, w + 128 * c)
                                 : DotAvx2(a, w + static_cast<size_t>(c) *
                                                      in_dim,
                                           in_dim);
      acc += bias[c];
      o[c] = (fuse == Fused::kBiasRelu && !(acc > 0.0)) ? 0.0 : acc;
    }
  }
}

UDAO_KERNEL_ALIGNED
__attribute__((target("avx2,fma"))) void GemmNnAvx2(const double* a, int rows,
                                                    int k, const double* b,
                                                    int cols, double* out) {
  for (int i = 0; i < rows; ++i) {
    double* out_row = out + static_cast<size_t>(i) * cols;
    for (int j = 0; j < cols; ++j) out_row[j] = 0.0;
    const double* a_row = a + static_cast<size_t>(i) * k;
    for (int kk = 0; kk < k; ++kk) {
      const double a_ik = a_row[kk];
      if (a_ik == 0.0) continue;
      AxpyAvx2(out_row, b + static_cast<size_t>(kk) * cols, a_ik, cols);
    }
  }
}

const KernelTable kAvx2Table = {
    Backend::kAvx2, "avx2",            &DotAvx2,    &Dot128Avx2,
    &AxpyAvx2,      &LayerForwardAvx2, &GemmNnAvx2,
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
  if (n == 0) n = 1;
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
  slab.data = std::make_unique_for_overwrite<double[]>(size);
  slab.size = size;
  slabs_.push_back(std::move(slab));
  ++grow_count_;
  UDAO_METRIC_COUNTER_ADD("udao.nn.arena_bytes",
                          static_cast<long long>(size * sizeof(double)));
}

KernelArena& KernelArena::ThreadLocal() {
  static thread_local KernelArena arena;
  return arena;
}

}  // namespace kernels
}  // namespace udao
