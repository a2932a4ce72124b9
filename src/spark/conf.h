#ifndef UDAO_SPARK_CONF_H_
#define UDAO_SPARK_CONF_H_

#include <map>
#include <string>
#include <vector>

#include "common/matrix.h"
#include "common/random.h"
#include "common/status.h"

namespace udao {

/// Kind of a tunable runtime parameter (knob).
enum class ParamType { kContinuous, kInteger, kBoolean, kCategorical };

/// Declarative description of one Spark knob: its type, range, and default.
/// The MOO layer never manipulates raw knob values directly; it works through
/// ParamSpace's normalize/denormalize encoding, which is the paper's variable
/// transformation (one-hot for categoricals, [0,1] normalization, relaxation
/// of integers/booleans to continuous).
struct ParamSpec {
  std::string name;
  ParamType type = ParamType::kContinuous;
  /// Inclusive numeric range for continuous/integer knobs. Booleans use
  /// [0, 1]; categoricals use indices [0, categories.size() - 1].
  double lo = 0.0;
  double hi = 1.0;
  /// Labels for categorical knobs (empty otherwise).
  std::vector<std::string> categories;
  double default_value = 0.0;

  int NumCategories() const { return static_cast<int>(categories.size()); }
};

/// An ordered set of knobs together with the encoding used by the optimizer.
///
/// Encoding: continuous/integer/boolean knobs map to a single dimension
/// normalized to [0,1]; categorical knobs expand into one dimension per
/// category (one-hot, relaxed to [0,1] during optimization). Decoding rounds
/// integers to the nearest value, booleans at 0.5, and categoricals by argmax
/// over their dummy dimensions -- exactly the treatment in Section IV-B.
class ParamSpace {
 public:
  ParamSpace() = default;
  explicit ParamSpace(std::vector<ParamSpec> specs);

  int NumParams() const { return static_cast<int>(specs_.size()); }
  /// Total dimensionality after one-hot expansion.
  int EncodedDim() const { return encoded_dim_; }
  const ParamSpec& spec(int i) const { return specs_[i]; }
  const std::vector<ParamSpec>& specs() const { return specs_; }

  /// Index of the knob named `name`, or error if absent.
  StatusOr<int> IndexOf(const std::string& name) const;

  /// Raw knob values -> encoded point in [0,1]^EncodedDim().
  Vector Encode(const Vector& raw) const;

  /// Encoded point -> raw knob values (rounds integers/booleans, argmaxes
  /// categoricals, clamps to range). Any encoded point decodes to a *valid*
  /// configuration; this is what makes the relaxed optimization sound.
  Vector Decode(const Vector& encoded) const;

  /// Raw default configuration (x1 in the paper: the configuration used for a
  /// task's first-ever run).
  Vector Defaults() const;

  /// Uniform random raw configuration.
  Vector Sample(Rng* rng) const;

  /// Maps a unit-hypercube point (dim == NumParams(), not EncodedDim()) to a
  /// raw configuration; used by Latin-hypercube / Halton samplers.
  Vector FromUnit(const Vector& unit) const;

  /// Allocation-free forms of FromUnit and Encode for enumeration sweeps
  /// that stream many points through fixed buffers: `unit` and `raw` hold
  /// NumParams() values, `enc` EncodedDim() values. Semantics (including
  /// clamping) are identical to the Vector-returning forms.
  void FromUnitTo(const double* unit, double* raw) const;
  void EncodeTo(const double* raw, double* enc) const;

  /// Validates that `raw` is in range and well-typed.
  Status Validate(const Vector& raw) const;

  /// Appends the space's structure (knob count, then each knob's name, type,
  /// bounds, default and categories) to `out` with common/byte_key.h
  /// framing. Equal bytes mean structurally identical spaces; cache and
  /// dedup keys use it so a space rebuilt differently at a recycled address
  /// misses instead of aliasing the old one.
  void AppendStructure(std::string* out) const;

 private:
  std::vector<ParamSpec> specs_;
  int encoded_dim_ = 0;
};

/// Sparse per-stage knob overrides over a shared base configuration -- the
/// theta_c (context) / theta_p (per-stage) split of the paper's successor
/// ("A Spark Optimizer for Adaptive, Fine-Grained Parameter Tuning",
/// arXiv 2403.00995). Stage ids are the engine's plan-walk stage indices;
/// knob ids are ParamSpace indices into the SAME space as the base conf.
/// Stages without an entry run the base conf untouched.
///
/// Overlays never change stage STRUCTURE: boundary placement (and the other
/// plan-time decisions -- broadcast-vs-shuffle joins, input splits, scan
/// batch sizing) is resolved once from the base conf; overrides change how
/// each stage is costed/executed.
struct StageConfOverlay {
  /// stage id -> (knob index -> raw value). Ordered maps keep iteration --
  /// and therefore serialization and noise-seed mixing -- deterministic.
  std::map<int, std::map<int, double>> overrides;

  bool empty() const { return overrides.empty(); }

  /// Records one override (replacing any previous value for that knob).
  void Set(int stage, int knob, double raw_value);

  /// Effective conf for `stage`: `base_raw` with this stage's overrides
  /// applied. Stages without overrides return `base_raw` unchanged.
  Vector Resolve(int stage, const Vector& base_raw) const;

  /// Adopts every entry of `other` (winning over this overlay on conflicts).
  void MergeFrom(const StageConfOverlay& other);

  /// Every knob index valid for `space` and every stage's resolved conf
  /// in range / well-typed. Stage ids are not bounded here: entries for
  /// stages a plan does not have are inert, which is what lets one overlay
  /// outlive re-planning.
  Status Validate(const ParamSpace& space, const Vector& base_raw) const;
};

/// ParamSpace indices of the BatchParamSpace() knobs that form the shared
/// context (theta_c): resource allocation, chosen once per job and never
/// re-tuned mid-query (executor instances / cores / memory).
const std::vector<int>& BatchContextKnobs();

/// ParamSpace indices of the per-stage re-tunable set (theta_p): knobs that
/// change how a stage is costed at runtime (parallelism, maxSizeInFlight,
/// bypass-merge threshold, shuffle compression, memory fraction, shuffle
/// partitions). Knobs in neither list (columnar batch size,
/// maxPartitionBytes, broadcast threshold) act only at plan time and stay
/// with the context.
const std::vector<int>& BatchStageKnobs();

/// Named accessor view over a raw configuration vector for the batch knob set;
/// mirrors the 12 most important Spark parameters the paper selects
/// (Appendix C-B).
struct SparkConf {
  double parallelism = 48;                    // spark.default.parallelism
  double executor_instances = 8;              // spark.executor.instances
  double executor_cores = 2;                  // spark.executor.cores
  double executor_memory_gb = 4;              // spark.executor.memory
  double max_size_in_flight_mb = 48;          // spark.reducer.maxSizeInFlight
  double bypass_merge_threshold = 200;        // shuffle.sort.bypassMergeThreshold
  double shuffle_compress = 1;                // spark.shuffle.compress (bool)
  double memory_fraction = 0.6;               // spark.memory.fraction
  double columnar_batch_size = 10000;         // inMemoryColumnarStorage.batchSize
  double max_partition_bytes_mb = 128;        // sql.files.maxPartitionBytes
  double broadcast_threshold_mb = 10;         // sql.autoBroadcastJoinThreshold
  double shuffle_partitions = 200;            // spark.sql.shuffle.partitions

  /// Total cores allocated to the job; the paper's "cost in #cores" objective.
  double TotalCores() const { return executor_instances * executor_cores; }

  Vector ToRaw() const;
  static SparkConf FromRaw(const Vector& raw);
};

/// Named accessor view for the streaming knob set (Appendix C-B: the 10+
/// most important Spark Streaming parameters, led by batch interval, block
/// interval, and input rate).
struct StreamConf {
  double batch_interval_ms = 4000;     // batchInterval
  double block_interval_ms = 400;      // spark.streaming.blockInterval
  double input_rate_krps = 600;        // inputRate (thousand records/s)
  double parallelism = 48;             // spark.default.parallelism
  double executor_instances = 8;       // spark.executor.instances
  double executor_cores = 2;           // spark.executor.cores
  double executor_memory_gb = 4;       // spark.executor.memory
  double max_size_in_flight_mb = 48;   // spark.reducer.maxSizeInFlight
  double bypass_merge_threshold = 200; // shuffle.sort.bypassMergeThreshold
  double shuffle_compress = 1;         // spark.shuffle.compress (bool)
  double memory_fraction = 0.6;        // spark.memory.fraction

  double TotalCores() const { return executor_instances * executor_cores; }

  Vector ToRaw() const;
  static StreamConf FromRaw(const Vector& raw);
};

/// The 12-knob batch parameter space used for all TPCx-BB experiments.
const ParamSpace& BatchParamSpace();

/// The 11-knob streaming parameter space used for the stream benchmark.
const ParamSpace& StreamParamSpace();

}  // namespace udao

#endif  // UDAO_SPARK_CONF_H_
