#ifndef UDAO_NN_KERNELS_H_
#define UDAO_NN_KERNELS_H_

#include <atomic>
#include <cstddef>
#include <memory>
#include <vector>

namespace udao {
namespace kernels {

/// The dense-kernel backends. Exactly one is active per process; it is chosen
/// once at startup (see ActiveTable) and every dense primitive in the
/// codebase -- Matrix products, the MLP forward/backward GEMMs, Adam
/// updates -- routes through it. Within one backend, a row's results are
/// the same in any batch and equal the per-sample reference loops in
/// tests/ bit for bit; across backends the reductions may differ in the last
/// bits (the tolerance contract pinned by kernel_parity_test and DESIGN.md),
/// while the elementwise Adam update is bitwise-identical.
enum class Backend {
  /// Portable reference kernels: bitwise-identical to the plain loops the
  /// Matrix/Mlp code used before the kernel layer existed. Elementwise axpy
  /// is `#pragma omp simd` vectorized (exact -- no reassociation); dot
  /// products stay a single sequential accumulation chain.
  kScalar,
  /// AVX2+FMA intrinsics (x86-64 only): 4-accumulator dot products, fused
  /// multiply-add axpy, register-blocked layer_forward and gemm_nn built
  /// from them, and an Adam update without FMA. Requires CpuSupportsAvx2().
  kAvx2,
};

/// Fusion applied by the layer-forward kernel after each output dot product.
enum class Fused {
  /// out = in * W^T + bias (the output layer, and tanh layers whose
  /// activation is applied by the caller).
  kBias,
  /// out = relu(in * W^T + bias) -- the hidden-layer hot path.
  kBiasRelu,
};

/// The constants of one Adam step, shared by every parameter it updates
/// (nn/adam.h computes them once per step).
struct AdamStep {
  double beta1;
  double beta2;
  double one_minus_beta1;    ///< 1 - beta1
  double one_minus_beta2;    ///< 1 - beta2
  double bias_correction1;   ///< 1 - beta1^t
  double bias_correction2;   ///< 1 - beta2^t
  double learning_rate;
  double epsilon;
};

/// One backend's kernel set. All pointers are non-null. Rows are contiguous
/// (row-major) and operands never alias.
struct KernelTable {
  Backend backend;
  const char* name;
  /// Dot product of a[0, n) and b[0, n).
  double (*dot)(const double* a, const double* b, int n);
  /// dst[i] += scale * src[i] for i in [0, n).
  void (*axpy)(double* dst, const double* src, double scale, int n);
  /// Fused dense layer, w in [out_dim, in_dim] row-major ([fan_out, fan_in]
  /// weights). Every element equals, bit for bit, the same backend's
  ///   z = dot(in_row_r, w_row_c, in_dim); z += bias[c];
  ///   out[r][c] = (kBiasRelu && !(z > 0.0)) ? 0.0 : z
  /// so a row's outputs do not depend on the rows or outputs that share the
  /// call.
  void (*layer_forward)(const double* in, int rows, int in_dim,
                        const double* w, const double* bias, int out_dim,
                        Fused fuse, double* out);
  /// out[rows, cols] = a[rows, k] * b[k, cols]. Every output row equals, bit
  /// for bit, the same backend's zero-filled row followed by
  ///   for kk in [0, k): if (a[i][kk] != 0.0) axpy(out_i, b_kk, a[i][kk])
  /// -- the pre-kernel Matrix::Multiply / ApplyTranspose order, which keeps
  /// batched backprop bitwise-equal to a per-sample loop within a backend.
  void (*gemm_nn)(const double* a, int rows, int k, const double* b, int cols,
                  double* out);
  /// One Adam update of params[0, n) in place, with moments m and v. Each
  /// element is, in this order and without fused multiply-adds,
  ///   m = beta1 * m + (1 - beta1) * g
  ///   v = beta2 * v + ((1 - beta2) * g) * g
  ///   p = p - (lr * (m / bc1)) / (sqrt(v / bc2) + eps)
  /// so every backend returns the same bits (IEEE mul, add, div and sqrt
  /// are correctly rounded).
  void (*adam)(double* params, const double* grad, double* m, double* v,
               int n, const AdamStep& step);
};

/// True when the CPU executes AVX2+FMA (always false off x86-64).
bool CpuSupportsAvx2();

/// The process-wide active kernel table. Chosen once, on first use, from the
/// UDAO_KERNEL environment variable:
///   unset / "native"  best supported backend (avx2 when available)
///   "scalar"          force the portable reference kernels
///   "avx2"            force AVX2; aborts loudly if the CPU lacks it, so a
///                     CI matrix leg can never silently test the wrong code
/// Any other value aborts. Reads are lock-free (acquire load of an atomic
/// pointer), so concurrent PredictBatch callers share the table safely.
const KernelTable* ActiveTable();

/// Backend of ActiveTable().
Backend ActiveBackend();

/// The table for one backend; aborts if the backend is unsupported here.
const KernelTable* TableForBackend(Backend backend);

/// Swaps the active table (release store). Testing/bench only: the parity
/// suite and bench_kernels flip backends in-process to compare them.
void SetBackendForTesting(Backend backend);

/// RAII backend override that restores the previous backend on destruction.
class ScopedBackendForTesting {
 public:
  explicit ScopedBackendForTesting(Backend backend) : prev_(ActiveBackend()) {
    SetBackendForTesting(backend);
  }
  ~ScopedBackendForTesting() { SetBackendForTesting(prev_); }
  ScopedBackendForTesting(const ScopedBackendForTesting&) = delete;
  ScopedBackendForTesting& operator=(const ScopedBackendForTesting&) = delete;

 private:
  Backend prev_;
};

/// Dispatched conveniences over ActiveTable(). Hot loops that issue many
/// calls should hoist `const KernelTable* t = ActiveTable()` instead.
inline double Dot(const double* a, const double* b, int n) {
  return ActiveTable()->dot(a, b, n);
}

inline void Axpy(double* dst, const double* src, double scale, int n) {
  ActiveTable()->axpy(dst, src, scale, n);
}

inline void LayerForward(const double* in, int rows, int in_dim,
                         const double* w, const double* bias, int out_dim,
                         Fused fuse, double* out) {
  ActiveTable()->layer_forward(in, rows, in_dim, w, bias, out_dim, fuse, out);
}

inline void GemmNn(const double* a, int rows, int k, const double* b,
                   int cols, double* out) {
  ActiveTable()->gemm_nn(a, rows, k, b, cols, out);
}

/// Bump allocator for the per-solve activation/gradient temporaries of the
/// batched MLP paths. The MOGD descent loop calls PredictBatch/GradientBatch
/// every Adam iteration; routing their temporaries through a thread-local
/// arena turns thousands of Matrix heap allocations per solve into pointer
/// bumps over memory acquired during the first iteration (warmup). Growth
/// events -- the only times the arena touches the heap -- are counted
/// (grow_count) and reported via the udao.nn.arena_bytes counter, which is
/// how tests assert zero allocations per iteration after warmup. Slabs are
/// not zero-filled, and a chain grown during warmup is merged into one slab
/// once the arena is empty again, so resident memory tracks peak demand.
///
/// Not thread-safe; use ThreadLocal() (one arena per thread) or confine an
/// instance to one thread. Blocks are released in LIFO order by Scope.
class KernelArena {
 public:
  KernelArena() = default;
  KernelArena(const KernelArena&) = delete;
  KernelArena& operator=(const KernelArena&) = delete;

  /// Returns an uninitialized block of n doubles, valid until the enclosing
  /// Scope unwinds past the current position.
  double* Alloc(size_t n);

  /// Number of slab acquisitions (heap allocations) so far.
  size_t grow_count() const { return grow_count_; }

  /// Total heap bytes this arena holds.
  size_t reserved_bytes() const { return reserved_ * sizeof(double); }

  /// The calling thread's arena.
  static KernelArena& ThreadLocal();

  /// Rewinds the arena to its construction-time position, releasing every
  /// allocation made inside the scope (capacity is retained). Rewinding an
  /// arena to empty also merges a chain of slabs into one (see Merge).
  class Scope {
   public:
    explicit Scope(KernelArena* arena)
        : arena_(arena), slab_(arena->slab_), used_(arena->used_) {}
    ~Scope() {
      arena_->slab_ = slab_;
      arena_->used_ = used_;
      if (slab_ == 0 && used_ == 0 && arena_->slabs_.size() > 1) {
        arena_->Merge();
      }
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    KernelArena* arena_;
    size_t slab_;
    size_t used_;
  };

 private:
  struct Slab {
    std::unique_ptr<double[]> data;
    size_t size = 0;
  };

  /// Replaces the slabs of an empty arena with one slab of the same total
  /// capacity (counted as a growth). A call pattern that grew a chain then
  /// bumps through one slab, so the memory it touches -- what stays
  /// resident -- is its demand, not a partly used prefix of every slab.
  void Merge();
  /// Acquires one uninitialized slab of `size` doubles (a growth).
  void AddSlab(size_t size);

  std::vector<Slab> slabs_;
  size_t slab_ = 0;  ///< Index of the slab currently bumped into.
  size_t used_ = 0;  ///< Doubles consumed in slabs_[slab_].
  size_t grow_count_ = 0;
  size_t reserved_ = 0;  ///< Total doubles across all slabs.
};

}  // namespace kernels
}  // namespace udao

#endif  // UDAO_NN_KERNELS_H_
