#include "common/metrics_registry.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <utility>

namespace udao {

namespace {

// FNV-1a over the metric name; stable so a metric always maps to one stripe.
size_t StripeHash(const std::string& name) {
  uint64_t h = 1469598103934665603ull;
  for (const char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return static_cast<size_t>(h);
}

// JSON string escaping for metric/span names. Names are identifiers by
// convention, but the snapshot must stay valid JSON for any input.
void AppendJsonString(const std::string& s, std::string* out) {
  out->push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      case '\r':
        *out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void AppendJsonNumber(double v, std::string* out) {
  if (!std::isfinite(v)) {
    // JSON has no inf/nan; clamp to null, which readers treat as absent.
    *out += "null";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  *out += buf;
}

}  // namespace

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

MetricsRegistry::Stripe& MetricsRegistry::StripeFor(const std::string& name) {
  return stripes_[StripeHash(name) % kStripes];
}

const MetricsRegistry::Stripe& MetricsRegistry::StripeFor(
    const std::string& name) const {
  return stripes_[StripeHash(name) % kStripes];
}

void MetricsRegistry::AddCounter(const std::string& name, long long delta) {
  Stripe& stripe = StripeFor(name);
  MutexLock lock(stripe.mu);
  stripe.counters[name] += delta;
}

void MetricsRegistry::SetGauge(const std::string& name, double value) {
  Stripe& stripe = StripeFor(name);
  MutexLock lock(stripe.mu);
  stripe.gauges[name] = value;
}

void MetricsRegistry::Observe(const std::string& name, double value) {
  Stripe& stripe = StripeFor(name);
  MutexLock lock(stripe.mu);
  Histogram& h = stripe.histograms[name];
  if (h.count == 0 || value < h.min) h.min = value;
  if (h.count == 0 || value > h.max) h.max = value;
  ++h.count;
  h.sum += value;
  ++h.buckets[static_cast<size_t>(BucketIndex(value))];
}

void MetricsRegistry::RecordTrace(std::vector<SpanNode> nodes) {
  if (nodes.empty()) return;
  MutexLock lock(traces_mu_);
  traces_.push_back(std::move(nodes));
  while (traces_.size() > kMaxTraces) traces_.pop_front();
}

long long MetricsRegistry::CounterValue(const std::string& name) const {
  const Stripe& stripe = StripeFor(name);
  MutexLock lock(stripe.mu);
  auto it = stripe.counters.find(name);
  return it == stripe.counters.end() ? 0 : it->second;
}

double MetricsRegistry::GaugeValue(const std::string& name) const {
  const Stripe& stripe = StripeFor(name);
  MutexLock lock(stripe.mu);
  auto it = stripe.gauges.find(name);
  return it == stripe.gauges.end() ? 0.0 : it->second;
}

HistogramSnapshot MetricsRegistry::HistogramValue(
    const std::string& name) const {
  HistogramSnapshot snap;
  snap.buckets.assign(kNumBuckets, 0);
  const Stripe& stripe = StripeFor(name);
  MutexLock lock(stripe.mu);
  auto it = stripe.histograms.find(name);
  if (it == stripe.histograms.end()) return snap;
  const Histogram& h = it->second;
  snap.count = h.count;
  snap.sum = h.sum;
  snap.min = h.min;
  snap.max = h.max;
  snap.buckets.assign(h.buckets.begin(), h.buckets.end());
  return snap;
}

std::map<std::string, long long> MetricsRegistry::Counters() const {
  std::map<std::string, long long> out;
  for (const Stripe& stripe : stripes_) {
    MutexLock lock(stripe.mu);
    for (const auto& [name, value] : stripe.counters) out[name] = value;
  }
  return out;
}

std::string MetricsRegistry::SnapshotJson() const {
  // Merge the stripes under their locks first, then render without holding
  // any lock. A snapshot taken during writes is a coherent per-metric view
  // (each metric is read atomically under its stripe lock).
  std::map<std::string, long long> counters = Counters();
  std::map<std::string, double> gauges;
  std::map<std::string, Histogram> histograms;
  for (const Stripe& stripe : stripes_) {
    MutexLock lock(stripe.mu);
    for (const auto& [name, value] : stripe.gauges) gauges[name] = value;
    for (const auto& [name, h] : stripe.histograms) histograms[name] = h;
  }
  std::deque<std::vector<SpanNode>> traces;
  {
    MutexLock lock(traces_mu_);
    traces = traces_;
  }

  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    AppendJsonString(name, &out);
    out += ": " + std::to_string(value);
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : gauges) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    AppendJsonString(name, &out);
    out += ": ";
    AppendJsonNumber(value, &out);
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    AppendJsonString(name, &out);
    out += ": {\"count\": " + std::to_string(h.count) + ", \"sum\": ";
    AppendJsonNumber(h.sum, &out);
    out += ", \"min\": ";
    AppendJsonNumber(h.count > 0 ? h.min : 0.0, &out);
    out += ", \"max\": ";
    AppendJsonNumber(h.count > 0 ? h.max : 0.0, &out);
    out += ", \"buckets\": [";
    bool first_bucket = true;
    for (int i = 0; i < kNumBuckets; ++i) {
      if (h.buckets[static_cast<size_t>(i)] == 0) continue;
      if (!first_bucket) out += ", ";
      first_bucket = false;
      out += "[";
      AppendJsonNumber(BucketLowerBound(i), &out);
      out += ", " + std::to_string(h.buckets[static_cast<size_t>(i)]) + "]";
    }
    out += "]}";
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"traces\": [";
  first = true;
  for (const std::vector<SpanNode>& tree : traces) {
    out += first ? "\n    [" : ",\n    [";
    first = false;
    bool first_span = true;
    for (const SpanNode& span : tree) {
      if (!first_span) out += ", ";
      first_span = false;
      out += "{\"name\": ";
      AppendJsonString(span.name, &out);
      out += ", \"parent\": " + std::to_string(span.parent) +
             ", \"start_ms\": ";
      AppendJsonNumber(span.start_ms, &out);
      out += ", \"duration_ms\": ";
      AppendJsonNumber(span.duration_ms, &out);
      out += "}";
    }
    out += "]";
  }
  out += first ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

void MetricsRegistry::Reset() {
  for (Stripe& stripe : stripes_) {
    MutexLock lock(stripe.mu);
    stripe.counters.clear();
    stripe.gauges.clear();
    stripe.histograms.clear();
  }
  MutexLock lock(traces_mu_);
  traces_.clear();
}

double MetricsRegistry::BucketLowerBound(int i) {
  if (i <= 0) return 0.0;
  return std::ldexp(1.0, i - 32);
}

int MetricsRegistry::BucketIndex(double value) {
  if (!(value >= 0.0) || value < std::ldexp(1.0, -31)) return 0;
  int exp = 0;
  // frexp: value = m * 2^exp with m in [0.5, 1), so value in
  // [2^(exp-1), 2^exp) -> bucket lower bound 2^(exp-1) = 2^(i-32).
  std::frexp(value, &exp);
  const int idx = exp + 31;
  if (idx < 1) return 1;
  if (idx > kNumBuckets - 1) return kNumBuckets - 1;
  return idx;
}

#if UDAO_METRICS_ENABLED

namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Thread-local trace assembly: the nodes of the in-progress tree plus the
// index of the innermost open span. When the last open span closes, the
// finished tree moves to the registry. No locking: each thread owns its own
// buffer, and pool workers therefore produce one tree per task chain.
struct ThreadTrace {
  std::vector<SpanNode> nodes;
  int current = -1;
  int open = 0;
  uint64_t root_start_ns = 0;
};

ThreadTrace& LocalTrace() {
  thread_local ThreadTrace trace;
  return trace;
}

}  // namespace

TraceSpan::TraceSpan(const char* name) {
  ThreadTrace& trace = LocalTrace();
  start_ns_ = NowNs();
  if (trace.open == 0) {
    trace.nodes.clear();
    trace.current = -1;
    trace.root_start_ns = start_ns_;
  }
  SpanNode node;
  node.name = name;
  node.parent = trace.current;
  node.start_ms =
      static_cast<double>(start_ns_ - trace.root_start_ns) / 1e6;
  index_ = static_cast<int>(trace.nodes.size());
  trace.nodes.push_back(std::move(node));
  trace.current = index_;
  ++trace.open;
}

TraceSpan::~TraceSpan() {
  ThreadTrace& trace = LocalTrace();
  const double duration_ms = static_cast<double>(NowNs() - start_ns_) / 1e6;
  SpanNode& node = trace.nodes[static_cast<size_t>(index_)];
  node.duration_ms = duration_ms;
  MetricsRegistry::Global().Observe("udao.span." + node.name + "_ms",
                                    duration_ms);
  trace.current = node.parent;
  --trace.open;
  if (trace.open == 0) {
    MetricsRegistry::Global().RecordTrace(std::move(trace.nodes));
    trace.nodes = {};
    trace.current = -1;
  }
}

#else

TraceSpan::TraceSpan(const char* /*name*/) {}
TraceSpan::~TraceSpan() = default;

#endif  // UDAO_METRICS_ENABLED

}  // namespace udao
