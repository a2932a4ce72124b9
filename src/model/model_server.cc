#include "model/model_server.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/fault_injector.h"
#include "common/metrics_registry.h"

namespace udao {

ModelServer::ModelServer(ModelServerConfig config)
    : config_(config), rng_(config.seed) {
  // A threshold below 1 would make every GetModel retrain with no ingest to
  // bump the generation, so a cached frontier could outlive its model.
  UDAO_CHECK_GE(config_.retrain_threshold, 1);
  UDAO_CHECK_GE(config_.finetune_threshold, 1);
}

Status ModelServer::Ingest(const std::string& workload_id,
                           const std::string& objective,
                           const Vector& encoded_conf, double value) {
  if (encoded_conf.empty()) {
    return Status::InvalidArgument("empty encoded configuration for " +
                                   workload_id + "/" + objective);
  }
  if (!std::isfinite(value)) {
    return Status::InvalidArgument("non-finite objective value for " +
                                   workload_id + "/" + objective);
  }
  MutexLock lock(mu_);
  Entry& entry = entries_[{workload_id, objective}];
  if (!entry.data.x.empty() &&
      entry.data.x.front().size() != encoded_conf.size()) {
    return Status::InvalidArgument(
        "configuration dimension mismatch for " + workload_id + "/" +
        objective + ": got " + std::to_string(encoded_conf.size()) +
        ", expected " + std::to_string(entry.data.x.front().size()));
  }
  entry.data.x.push_back(encoded_conf);
  entry.data.y.push_back(value);
  ++entry.pending;
  // A served model that this trace makes (or keeps) due will be replaced by
  // the next GetModel, and this trace is in its training data: frontiers
  // computed on the served model are out of date from here on. Traces below
  // the threshold, or into a pair never served, change no served model.
  if (entry.model != nullptr && ModelDueLocked(entry)) {
    BumpGeneration(workload_id);
  }
  UDAO_METRIC_COUNTER_ADD("udao.model.ingests", 1);
  return Status::Ok();
}

Status ModelServer::IngestMetrics(const std::string& workload_id,
                                  const RuntimeMetrics& metrics) {
  const Vector v = metrics.ToVector();
  MutexLock lock(mu_);
  std::vector<Vector>& rows = metrics_[workload_id];
  if (!rows.empty() && rows.front().size() != v.size()) {
    return Status::InvalidArgument("metrics dimension mismatch for " +
                                   workload_id);
  }
  rows.push_back(v);
  return Status::Ok();
}

StatusOr<std::shared_ptr<const ObjectiveModel>> ModelServer::TrainFreshLocked(
    const DataSet& data) {
  Matrix x = Matrix::FromRows(data.x);
  if (config_.kind == ModelKind::kGp) {
    StatusOr<std::shared_ptr<GpModel>> gp =
        GpModel::Fit(x, data.y, config_.gp);
    if (!gp.ok()) return gp.status();
    return std::shared_ptr<const ObjectiveModel>(*gp);
  }
  StatusOr<std::shared_ptr<MlpModel>> dnn =
      MlpModel::Fit(x, data.y, config_.dnn, &rng_);
  if (!dnn.ok()) return dnn.status();
  return std::shared_ptr<const ObjectiveModel>(*dnn);
}

StatusOr<std::shared_ptr<const ObjectiveModel>> ModelServer::GetModel(
    const std::string& workload_id, const std::string& objective) {
  // Fault-injection site for degradation testing: an armed failure surfaces
  // exactly like a real model-resolution error (the serving layer's
  // stale-cache shed path keys off it), an armed delay simulates a slow
  // model store. Checked outside the lock so injected latency never
  // serializes unrelated lookups.
  if (Status fault = UDAO_FAULT_SITE("model_server.get_model"); !fault.ok()) {
    return fault;
  }
  MutexLock lock(mu_);
  auto it = entries_.find({workload_id, objective});
  if (it == entries_.end() || it->second.data.x.empty()) {
    return Status::NotFound("no traces for workload " + workload_id +
                            " objective " + objective);
  }
  Entry& entry = it->second;
  UDAO_METRIC_COUNTER_ADD("udao.model.get_model", 1);
  // Neither (re)train below bumps the generation: the Ingest that made a
  // served model due already did, and a first train replaces no served model.
  if (entry.model == nullptr || entry.pending >= config_.retrain_threshold) {
    // First model, or a large trace update: full retrain.
    UDAO_TRACE_SPAN("model.train_full");
    UDAO_METRIC_COUNTER_ADD("udao.model.train_full", 1);
    UDAO_METRIC_OBSERVE("udao.model.train_traces",
                        static_cast<double>(entry.data.x.size()));
    StatusOr<std::shared_ptr<const ObjectiveModel>> model =
        TrainFreshLocked(entry.data);
    if (!model.ok()) return model.status();
    entry.model = *model;
    entry.pending = 0;
  } else if (ModelDueLocked(entry)) {
    UDAO_TRACE_SPAN("model.finetune");
    UDAO_METRIC_COUNTER_ADD("udao.model.finetune", 1);
    if (config_.kind == ModelKind::kDnn) {
      // Small update: fine-tune from the latest checkpoint. Handles already
      // returned by GetModel are immutable snapshots, so training happens on
      // a deep copy that is swapped in once it is ready.
      const auto* dnn = dynamic_cast<const MlpModel*>(entry.model.get());
      UDAO_CHECK(dnn != nullptr);
      std::shared_ptr<MlpModel> tuned = dnn->Clone();
      Matrix x = Matrix::FromRows(entry.data.x);
      tuned->FineTune(x, entry.data.y, config_.finetune_epochs, &rng_);
      entry.model = std::move(tuned);
    } else {
      // GPs have no incremental path; refit on all data.
      StatusOr<std::shared_ptr<const ObjectiveModel>> model =
          TrainFreshLocked(entry.data);
      if (!model.ok()) return model.status();
      entry.model = *model;
    }
    entry.pending = 0;
  } else {
    // Served straight from the trained snapshot: the cache-hit path that
    // keeps GetModel off the few-seconds MOO budget.
    UDAO_METRIC_COUNTER_ADD("udao.model.cache_hits", 1);
  }
  return entry.model;
}

bool ModelServer::HasTraces(const std::string& workload_id,
                            const std::string& objective) const {
  MutexLock lock(mu_);
  auto it = entries_.find({workload_id, objective});
  return it != entries_.end() && !it->second.data.x.empty();
}

StatusOr<ModelServer::DataSet> ModelServer::GetData(
    const std::string& workload_id, const std::string& objective) const {
  MutexLock lock(mu_);
  auto it = entries_.find({workload_id, objective});
  if (it == entries_.end()) {
    return Status::NotFound("no traces for workload " + workload_id);
  }
  return it->second.data;
}

StatusOr<Vector> ModelServer::MeanMetrics(
    const std::string& workload_id) const {
  MutexLock lock(mu_);
  auto it = metrics_.find(workload_id);
  if (it == metrics_.end() || it->second.empty()) {
    return Status::NotFound("no metrics for workload " + workload_id);
  }
  Vector mean(it->second.front().size(), 0.0);
  for (const Vector& v : it->second) {
    for (size_t i = 0; i < mean.size(); ++i) mean[i] += v[i];
  }
  for (double& m : mean) m /= static_cast<double>(it->second.size());
  return mean;
}

std::vector<std::string> ModelServer::WorkloadsWithMetrics() const {
  MutexLock lock(mu_);
  std::vector<std::string> out;
  out.reserve(metrics_.size());
  for (const auto& [id, unused] : metrics_) out.push_back(id);
  return out;
}

int ModelServer::NumTraces(const std::string& workload_id,
                           const std::string& objective) const {
  MutexLock lock(mu_);
  auto it = entries_.find({workload_id, objective});
  if (it == entries_.end()) return 0;
  return static_cast<int>(it->second.data.x.size());
}

bool ModelServer::ModelDueLocked(const Entry& entry) const {
  return entry.model == nullptr ||
         entry.pending >= std::min(config_.retrain_threshold,
                                   config_.finetune_threshold);
}

ModelServer::GenerationShard& ModelServer::GenerationShardFor(
    const std::string& workload_id) const {
  const size_t h = std::hash<std::string>{}(workload_id);
  return generation_shards_[h % kGenerationShards];
}

void ModelServer::BumpGeneration(const std::string& workload_id) {
  GenerationShard& shard = GenerationShardFor(workload_id);
  MutexLock lock(shard.mu);
  ++shard.generations[workload_id];
}

uint64_t ModelServer::Generation(const std::string& workload_id) const {
  GenerationShard& shard = GenerationShardFor(workload_id);
  MutexLock lock(shard.mu);
  auto it = shard.generations.find(workload_id);
  return it == shard.generations.end() ? 0 : it->second;
}

}  // namespace udao
