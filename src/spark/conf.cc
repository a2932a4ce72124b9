#include "spark/conf.h"

#include <algorithm>
#include <cmath>

#include "common/byte_key.h"
#include "common/check.h"

namespace udao {

namespace {

double Clamp(double v, double lo, double hi) {
  return std::min(hi, std::max(lo, v));
}

}  // namespace

ParamSpace::ParamSpace(std::vector<ParamSpec> specs)
    : specs_(std::move(specs)) {
  encoded_dim_ = 0;
  for (const ParamSpec& spec : specs_) {
    UDAO_CHECK(!spec.name.empty());
    if (spec.type == ParamType::kCategorical) {
      UDAO_CHECK_GE(spec.NumCategories(), 2);
      encoded_dim_ += spec.NumCategories();
    } else {
      UDAO_CHECK_LT(spec.lo, spec.hi + 1e-12);
      encoded_dim_ += 1;
    }
  }
}

StatusOr<int> ParamSpace::IndexOf(const std::string& name) const {
  for (int i = 0; i < NumParams(); ++i) {
    if (specs_[i].name == name) return i;
  }
  return Status::NotFound("no knob named " + name);
}

Vector ParamSpace::Encode(const Vector& raw) const {
  UDAO_CHECK_EQ(static_cast<int>(raw.size()), NumParams());
  Vector enc(encoded_dim_);
  EncodeTo(raw.data(), enc.data());
  return enc;
}

void ParamSpace::EncodeTo(const double* raw, double* enc) const {
  int pos = 0;
  for (int i = 0; i < NumParams(); ++i) {
    const ParamSpec& s = specs_[i];
    if (s.type == ParamType::kCategorical) {
      const int cat = static_cast<int>(std::lround(raw[i]));
      UDAO_CHECK(cat >= 0 && cat < s.NumCategories());
      for (int c = 0; c < s.NumCategories(); ++c) {
        enc[pos++] = c == cat ? 1.0 : 0.0;
      }
    } else {
      // Clamp into [lo, hi] before normalizing: MOGD's seeded/warm-start
      // entry points assume encodings live in the unit box (ClipToUnitBox
      // only guards the descent path), so an out-of-range raw must not
      // produce an encoding outside [0, 1].
      const double span = s.hi - s.lo;
      enc[pos++] = span > 0 ? (Clamp(raw[i], s.lo, s.hi) - s.lo) / span : 0.0;
    }
  }
  UDAO_DCHECK(pos == encoded_dim_);
}

Vector ParamSpace::Decode(const Vector& encoded) const {
  UDAO_CHECK_EQ(static_cast<int>(encoded.size()), encoded_dim_);
  Vector raw(NumParams());
  int pos = 0;
  for (int i = 0; i < NumParams(); ++i) {
    const ParamSpec& s = specs_[i];
    switch (s.type) {
      case ParamType::kCategorical: {
        int best = 0;
        for (int c = 1; c < s.NumCategories(); ++c) {
          if (encoded[pos + c] > encoded[pos + best]) best = c;
        }
        raw[i] = best;
        pos += s.NumCategories();
        break;
      }
      case ParamType::kBoolean: {
        raw[i] = Clamp(encoded[pos], 0.0, 1.0) >= 0.5 ? 1.0 : 0.0;
        ++pos;
        break;
      }
      case ParamType::kInteger: {
        const double v = s.lo + Clamp(encoded[pos], 0.0, 1.0) * (s.hi - s.lo);
        raw[i] = Clamp(std::round(v), s.lo, s.hi);
        ++pos;
        break;
      }
      case ParamType::kContinuous: {
        raw[i] = s.lo + Clamp(encoded[pos], 0.0, 1.0) * (s.hi - s.lo);
        ++pos;
        break;
      }
    }
  }
  return raw;
}

Vector ParamSpace::Defaults() const {
  Vector raw(NumParams());
  for (int i = 0; i < NumParams(); ++i) raw[i] = specs_[i].default_value;
  return raw;
}

Vector ParamSpace::Sample(Rng* rng) const {
  Vector unit(NumParams());
  for (double& u : unit) u = rng->Uniform();
  return FromUnit(unit);
}

Vector ParamSpace::FromUnit(const Vector& unit) const {
  UDAO_CHECK_EQ(static_cast<int>(unit.size()), NumParams());
  Vector raw(NumParams());
  FromUnitTo(unit.data(), raw.data());
  return raw;
}

void ParamSpace::FromUnitTo(const double* unit, double* raw) const {
  for (int i = 0; i < NumParams(); ++i) {
    const ParamSpec& s = specs_[i];
    const double u = Clamp(unit[i], 0.0, 1.0);
    switch (s.type) {
      case ParamType::kCategorical:
        raw[i] = std::min<double>(s.NumCategories() - 1,
                                  std::floor(u * s.NumCategories()));
        break;
      case ParamType::kBoolean:
        raw[i] = u >= 0.5 ? 1.0 : 0.0;
        break;
      case ParamType::kInteger:
        raw[i] = Clamp(std::round(s.lo + u * (s.hi - s.lo)), s.lo, s.hi);
        break;
      case ParamType::kContinuous:
        raw[i] = s.lo + u * (s.hi - s.lo);
        break;
    }
  }
}

Status ParamSpace::Validate(const Vector& raw) const {
  if (static_cast<int>(raw.size()) != NumParams()) {
    return Status::InvalidArgument("configuration has wrong arity");
  }
  for (int i = 0; i < NumParams(); ++i) {
    const ParamSpec& s = specs_[i];
    const double v = raw[i];
    if (!std::isfinite(v)) {
      return Status::InvalidArgument("knob " + s.name + " is not finite");
    }
    if (s.type == ParamType::kCategorical) {
      if (v < 0 || v >= s.NumCategories() || v != std::floor(v)) {
        return Status::InvalidArgument("knob " + s.name +
                                       " has invalid category index");
      }
    } else if (v < s.lo - 1e-9 || v > s.hi + 1e-9) {
      return Status::InvalidArgument("knob " + s.name + " out of range");
    } else if ((s.type == ParamType::kInteger ||
                s.type == ParamType::kBoolean) &&
               v != std::floor(v)) {
      return Status::InvalidArgument("knob " + s.name + " must be integral");
    }
  }
  return Status::Ok();
}

void ParamSpace::AppendStructure(std::string* out) const {
  AppendPod(out, NumParams());
  for (const ParamSpec& spec : specs_) {
    AppendString(out, spec.name);
    AppendPod(out, spec.type);
    AppendPod(out, spec.lo);
    AppendPod(out, spec.hi);
    AppendPod(out, spec.default_value);
    // The count keeps variable-length category lists from aliasing across
    // adjacent specs.
    AppendPod(out, spec.NumCategories());
    for (const std::string& category : spec.categories) {
      AppendString(out, category);
    }
  }
}

void StageConfOverlay::Set(int stage, int knob, double raw_value) {
  overrides[stage][knob] = raw_value;
}

Vector StageConfOverlay::Resolve(int stage, const Vector& base_raw) const {
  auto it = overrides.find(stage);
  if (it == overrides.end()) return base_raw;
  Vector raw = base_raw;
  for (const auto& [knob, value] : it->second) {
    UDAO_CHECK(knob >= 0 && knob < static_cast<int>(raw.size()));
    raw[knob] = value;
  }
  return raw;
}

void StageConfOverlay::MergeFrom(const StageConfOverlay& other) {
  for (const auto& [stage, knobs] : other.overrides) {
    for (const auto& [knob, value] : knobs) overrides[stage][knob] = value;
  }
}

Status StageConfOverlay::Validate(const ParamSpace& space,
                                  const Vector& base_raw) const {
  Status base_ok = space.Validate(base_raw);
  if (!base_ok.ok()) return base_ok;
  for (const auto& [stage, knobs] : overrides) {
    if (stage < 0) {
      return Status::InvalidArgument("overlay has negative stage id");
    }
    for (const auto& [knob, value] : knobs) {
      (void)value;
      if (knob < 0 || knob >= space.NumParams()) {
        return Status::InvalidArgument("overlay knob index out of range");
      }
    }
    Status st = space.Validate(Resolve(stage, base_raw));
    if (!st.ok()) {
      return Status::InvalidArgument("overlay for stage " +
                                     std::to_string(stage) +
                                     " resolves invalid: " + st.message());
    }
  }
  return Status::Ok();
}

const std::vector<int>& BatchContextKnobs() {
  // executor.instances, executor.cores, executor.memory.
  static const std::vector<int>& knobs = *new std::vector<int>{1, 2, 3};
  return knobs;
}

const std::vector<int>& BatchStageKnobs() {
  // parallelism, maxSizeInFlight, bypassMergeThreshold, shuffle.compress,
  // memory.fraction, shuffle.partitions -- the knobs the stage-costing model
  // actually reads per stage. Indices 8/9/10 (columnar batch size,
  // maxPartitionBytes, broadcast threshold) only act during the plan walk.
  static const std::vector<int>& knobs = *new std::vector<int>{0, 4, 5, 6, 7,
                                                               11};
  return knobs;
}

Vector SparkConf::ToRaw() const {
  return {parallelism,
          executor_instances,
          executor_cores,
          executor_memory_gb,
          max_size_in_flight_mb,
          bypass_merge_threshold,
          shuffle_compress,
          memory_fraction,
          columnar_batch_size,
          max_partition_bytes_mb,
          broadcast_threshold_mb,
          shuffle_partitions};
}

SparkConf SparkConf::FromRaw(const Vector& raw) {
  UDAO_CHECK_EQ(raw.size(), 12u);
  SparkConf c;
  c.parallelism = raw[0];
  c.executor_instances = raw[1];
  c.executor_cores = raw[2];
  c.executor_memory_gb = raw[3];
  c.max_size_in_flight_mb = raw[4];
  c.bypass_merge_threshold = raw[5];
  c.shuffle_compress = raw[6];
  c.memory_fraction = raw[7];
  c.columnar_batch_size = raw[8];
  c.max_partition_bytes_mb = raw[9];
  c.broadcast_threshold_mb = raw[10];
  c.shuffle_partitions = raw[11];
  return c;
}

Vector StreamConf::ToRaw() const {
  return {batch_interval_ms,
          block_interval_ms,
          input_rate_krps,
          parallelism,
          executor_instances,
          executor_cores,
          executor_memory_gb,
          max_size_in_flight_mb,
          bypass_merge_threshold,
          shuffle_compress,
          memory_fraction};
}

StreamConf StreamConf::FromRaw(const Vector& raw) {
  UDAO_CHECK_EQ(raw.size(), 11u);
  StreamConf c;
  c.batch_interval_ms = raw[0];
  c.block_interval_ms = raw[1];
  c.input_rate_krps = raw[2];
  c.parallelism = raw[3];
  c.executor_instances = raw[4];
  c.executor_cores = raw[5];
  c.executor_memory_gb = raw[6];
  c.max_size_in_flight_mb = raw[7];
  c.bypass_merge_threshold = raw[8];
  c.shuffle_compress = raw[9];
  c.memory_fraction = raw[10];
  return c;
}

const ParamSpace& BatchParamSpace() {
  static const ParamSpace& space = *new ParamSpace({
      {"spark.default.parallelism", ParamType::kInteger, 8, 400, {}, 48},
      {"spark.executor.instances", ParamType::kInteger, 2, 28, {}, 8},
      {"spark.executor.cores", ParamType::kInteger, 1, 8, {}, 2},
      {"spark.executor.memory", ParamType::kInteger, 1, 32, {}, 4},
      {"spark.reducer.maxSizeInFlight", ParamType::kInteger, 8, 128, {}, 48},
      {"spark.shuffle.sort.bypassMergeThreshold", ParamType::kInteger, 100,
       800, {}, 200},
      {"spark.shuffle.compress", ParamType::kBoolean, 0, 1, {}, 1},
      {"spark.memory.fraction", ParamType::kContinuous, 0.4, 0.9, {}, 0.6},
      {"spark.sql.inMemoryColumnarStorage.batchSize", ParamType::kInteger,
       2500, 40000, {}, 10000},
      {"spark.sql.files.maxPartitionBytes", ParamType::kInteger, 32, 512, {},
       128},
      {"spark.sql.autoBroadcastJoinThreshold", ParamType::kInteger, 1, 64, {},
       10},
      {"spark.sql.shuffle.partitions", ParamType::kInteger, 8, 400, {}, 200},
  });
  return space;
}

const ParamSpace& StreamParamSpace() {
  static const ParamSpace& space = *new ParamSpace({
      {"batchInterval", ParamType::kInteger, 1000, 10000, {}, 4000},
      {"spark.streaming.blockInterval", ParamType::kInteger, 100, 1000, {},
       400},
      {"inputRate", ParamType::kInteger, 50, 1200, {}, 600},
      {"spark.default.parallelism", ParamType::kInteger, 8, 400, {}, 48},
      {"spark.executor.instances", ParamType::kInteger, 2, 28, {}, 8},
      {"spark.executor.cores", ParamType::kInteger, 1, 8, {}, 2},
      {"spark.executor.memory", ParamType::kInteger, 1, 32, {}, 4},
      {"spark.reducer.maxSizeInFlight", ParamType::kInteger, 8, 128, {}, 48},
      {"spark.shuffle.sort.bypassMergeThreshold", ParamType::kInteger, 100,
       800, {}, 200},
      {"spark.shuffle.compress", ParamType::kBoolean, 0, 1, {}, 1},
      {"spark.memory.fraction", ParamType::kContinuous, 0.4, 0.9, {}, 0.6},
  });
  return space;
}

}  // namespace udao
