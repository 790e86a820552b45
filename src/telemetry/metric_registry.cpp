#include "telemetry/metric_registry.h"

#include <algorithm>

namespace alvc::telemetry {

Histogram::Histogram(double lo, double hi, std::size_t buckets) {
  data_.lo = lo;
  data_.hi = hi > lo ? hi : lo + 1.0;
  data_.buckets.assign(std::max<std::size_t>(buckets, 1), 0);
  width_ = (data_.hi - data_.lo) / static_cast<double>(data_.buckets.size());
}

void Histogram::record(double sample) noexcept {
  ++data_.count;
  data_.sum += sample;
  if (sample < data_.lo) {
    ++data_.underflow;
  } else if (sample >= data_.hi) {
    ++data_.overflow;
  } else {
    // Rounding at the exact top edge of the last bucket can land one past
    // the end; clamp (mirrors util::Histogram).
    const auto bucket = std::min(static_cast<std::size_t>((sample - data_.lo) / width_),
                                 data_.buckets.size() - 1);
    ++data_.buckets[bucket];
  }
}

void Histogram::reset() noexcept {
  std::fill(data_.buckets.begin(), data_.buckets.end(), 0);
  data_.underflow = 0;
  data_.overflow = 0;
  data_.count = 0;
  data_.sum = 0.0;
}

Counter& MetricRegistry::counter(const std::string& name) {
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricRegistry::gauge(const std::string& name) {
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricRegistry::histogram(const std::string& name, double lo, double hi,
                                     std::size_t buckets) {
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>(lo, hi, buckets);
  return *slot;
}

MetricRegistry::Snapshot MetricRegistry::snapshot() const {
  Snapshot out;
  out.counters.reserve(counters_.size());
  for (const auto& [name, metric] : counters_) {
    out.counters.push_back(CounterValue{name, metric->value()});
  }
  out.gauges.reserve(gauges_.size());
  for (const auto& [name, metric] : gauges_) {
    out.gauges.push_back(GaugeValue{name, metric->value()});
  }
  out.histograms.reserve(histograms_.size());
  for (const auto& [name, metric] : histograms_) {
    out.histograms.push_back(HistogramValue{name, metric->snapshot()});
  }
  return out;
}

void MetricRegistry::reset() {
  for (const auto& [name, metric] : counters_) metric->reset();
  for (const auto& [name, metric] : gauges_) metric->reset();
  for (const auto& [name, metric] : histograms_) metric->reset();
}

std::size_t MetricRegistry::metric_count() const {
  return counters_.size() + gauges_.size() + histograms_.size();
}

MetricRegistry& MetricRegistry::global() noexcept {
  // Leaked on purpose: instrumented code may run during static destruction
  // (e.g. a bench fixture torn down after main), so the registry must
  // outlive everything.
  static auto* registry = new MetricRegistry();
  return *registry;
}

}  // namespace alvc::telemetry
