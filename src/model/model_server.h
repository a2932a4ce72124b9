#ifndef UDAO_MODEL_MODEL_SERVER_H_
#define UDAO_MODEL_MODEL_SERVER_H_

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/matrix.h"
#include "common/random.h"
#include "common/status.h"
#include "common/sync.h"
#include "model/gp_model.h"
#include "model/mlp_model.h"
#include "model/objective_model.h"
#include "spark/metrics.h"

namespace udao {

/// Which learned-model family the server trains for its objectives.
enum class ModelKind { kGp, kDnn };

/// Model-server policy knobs.
struct ModelServerConfig {
  ModelKind kind = ModelKind::kDnn;
  /// All served objectives (latency, throughput, costs) are positive-valued,
  /// so models train in log space by default (see log_transform_targets).
  GpConfig gp = [] {
    GpConfig cfg;
    cfg.log_transform_targets = true;
    return cfg;
  }();
  MlpModelConfig dnn = [] {
    MlpModelConfig cfg;
    cfg.log_transform_targets = true;
    return cfg;
  }();
  /// A "large trace update": at least this many new traces triggers a full
  /// retrain (the paper retrains with hyper-parameter tuning on ~5000 new
  /// traces; scaled to simulator data volumes). At least 1.
  int retrain_threshold = 48;
  /// A "small trace update": at least this many new traces triggers
  /// incremental fine-tuning from the latest checkpoint (DNN only; GPs
  /// refit). At least 1.
  int finetune_threshold = 8;
  int finetune_epochs = 40;
  uint64_t seed = 7;
};

/// Offline model server (Section II-B / V). Collects runtime traces
/// asynchronously from the optimizer's hot path, trains one predictive model
/// per (workload, objective), and serves the most recent model to the MOO
/// module on demand.
///
/// Training is lazy: traces accumulate via Ingest(); the first GetModel()
/// call after enough new data applies the paper's retrain/fine-tune policy,
/// and the request that makes that call pays for the fine-tune or retrain.
/// Every other GetModel() serves the latest trained snapshot as is, so
/// traces below the thresholds leave the MOO path and the served models
/// untouched.
///
/// Thread safety: all methods may be called concurrently (several optimizer
/// instances share one server). A single mutex serializes trace ingestion
/// and the lazy (re)train inside GetModel; the returned model handle is an
/// immutable snapshot, so callers use it lock-free after retrieval.
class ModelServer {
 public:
  /// A training dataset for one (workload, objective) pair: encoded
  /// configurations against observed objective values.
  struct DataSet {
    std::vector<Vector> x;
    Vector y;
  };

  explicit ModelServer(ModelServerConfig config = ModelServerConfig());

  /// Records one observation: the encoded configuration and the value of one
  /// objective for `workload_id`. InvalidArgument when the configuration is
  /// empty, its dimension disagrees with earlier traces of the pair, or the
  /// value is non-finite -- ingestion is a public service boundary, so bad
  /// telemetry is a recoverable Status for the caller, not a process abort.
  /// Rejected traces change nothing. An accepted trace bumps the workload's
  /// generation only when the pair has a served model that is now due for
  /// a retrain or fine-tune (see Generation()).
  Status Ingest(const std::string& workload_id, const std::string& objective,
                const Vector& encoded_conf, double value);

  /// Records the runtime metric vector of one run (used for OtterTune-style
  /// workload mapping). InvalidArgument when the vector's dimension
  /// disagrees with earlier metrics of the workload.
  Status IngestMetrics(const std::string& workload_id,
                       const RuntimeMetrics& metrics);

  /// Returns the current model, training or updating it first if the policy
  /// calls for it. NotFound if no traces exist for the pair.
  StatusOr<std::shared_ptr<const ObjectiveModel>> GetModel(
      const std::string& workload_id, const std::string& objective);

  /// True once at least one trace exists for the pair.
  bool HasTraces(const std::string& workload_id,
                 const std::string& objective) const;

  /// Training data for the pair (for workload mapping / baselines), returned
  /// as a snapshot copy so it stays coherent however many Ingest() calls race
  /// with the caller's use of it.
  StatusOr<DataSet> GetData(const std::string& workload_id,
                            const std::string& objective) const;

  /// Mean metric vector over all ingested runs of a workload.
  StatusOr<Vector> MeanMetrics(const std::string& workload_id) const;

  /// All workload ids with metric observations.
  std::vector<std::string> WorkloadsWithMetrics() const;

  /// Number of traces ingested for the pair (0 if none).
  int NumTraces(const std::string& workload_id,
                const std::string& objective) const;

  /// Monotone per-workload version of the models already served: bumped by
  /// each Ingest() that leaves a served (workload, objective) model due for
  /// a retrain or fine-tune -- the crossing trace, and every later trace
  /// before the (re)train, since each one changes its training data. It
  /// never moves inside GetModel: a due model's (re)train was announced by
  /// the ingest that made it due, and a first train replaces no served
  /// model. Traces below the thresholds, and traces into a pair GetModel
  /// never returned, leave it alone. So a model that GetModel returns after
  /// this read g is the model it keeps returning while this still reads g.
  /// Serving-layer caches tag entries with the generation read before they
  /// resolve models and compare against this to detect staleness in one
  /// cheap map lookup -- no model access, no training. Starts at 0 for
  /// workloads never seen.
  ///
  /// Reads take only the workload's generation shard lock, NEVER mu_: the
  /// serving warm path probes this per request, and making it wait behind a
  /// training run (which holds mu_ for seconds) would turn every cache hit
  /// into a cold-path stall. Different workloads hash to different shards,
  /// so tenants do not contend on each other's staleness probes either.
  uint64_t Generation(const std::string& workload_id) const;

  const ModelServerConfig& config() const { return config_; }

 private:
  struct Entry {
    DataSet data;
    std::shared_ptr<const ObjectiveModel> model;
    /// Traces ingested since the model was last (re)trained.
    int pending = 0;
  };

  /// Trains a model on `data` with this server's config. Requires mu_: it
  /// draws from rng_, and the deterministic-training story (same ingest
  /// order -> same model bits) depends on those draws being serialized with
  /// the ingest/retrain sequence.
  StatusOr<std::shared_ptr<const ObjectiveModel>> TrainFreshLocked(
      const DataSet& data) UDAO_REQUIRES(mu_);

  /// True when the next GetModel for the entry (re)trains: it has no model
  /// yet, or at least min(retrain_threshold, finetune_threshold) traces
  /// arrived since its last (re)train.
  bool ModelDueLocked(const Entry& entry) const UDAO_REQUIRES(mu_);

  /// Generation counters live outside mu_ in a small sharded map (see
  /// Generation()). Bumps happen inside mu_ critical sections AFTER the data
  /// mutation, with lock order mu_ -> shard everywhere, so a concurrent
  /// reader can observe a generation slightly older than the data but never
  /// newer -- the conservative direction: a too-old tag makes a serving
  /// cache revalidate once more, a too-new one would let it serve stale.
  static constexpr int kGenerationShards = 16;
  struct GenerationShard {
    mutable Mutex mu;
    std::map<std::string, uint64_t> generations UDAO_GUARDED_BY(mu);
  };
  GenerationShard& GenerationShardFor(const std::string& workload_id) const;
  void BumpGeneration(const std::string& workload_id) UDAO_REQUIRES(mu_);

  ModelServerConfig config_;
  /// Guards rng_, entries_, and metrics_ (every member below config_ except
  /// generation_shards_, which carries per-shard locks).
  mutable Mutex mu_;
  Rng rng_ UDAO_GUARDED_BY(mu_);
  std::map<std::pair<std::string, std::string>, Entry> entries_
      UDAO_GUARDED_BY(mu_);
  std::map<std::string, std::vector<Vector>> metrics_ UDAO_GUARDED_BY(mu_);
  mutable std::array<GenerationShard, kGenerationShards> generation_shards_;
};

}  // namespace udao

#endif  // UDAO_MODEL_MODEL_SERVER_H_
