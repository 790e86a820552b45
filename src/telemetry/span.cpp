#include "telemetry/span.h"

namespace alvc::telemetry {

const char* to_string(ClockMode mode) noexcept {
  switch (mode) {
    case ClockMode::kDisabled: return "disabled";
    case ClockMode::kSteady: return "steady";
    case ClockMode::kLogical: return "logical";
  }
  return "?";
}

Tracer::Tracer() : steady_epoch_(std::chrono::steady_clock::now()) {}

double Tracer::now_us() const noexcept {
  switch (mode_) {
    case ClockMode::kLogical: return logical_us_;
    case ClockMode::kSteady: {
      const auto elapsed = std::chrono::steady_clock::now() - steady_epoch_;
      return std::chrono::duration<double, std::micro>(elapsed).count();
    }
    case ClockMode::kDisabled: break;
  }
  return 0.0;
}

void Tracer::clear() {
  next_id_ = 1;
  spans_.clear();
}

Tracer& Tracer::global() noexcept {
  // Leaked like MetricRegistry::global(): spans may close during static
  // destruction.
  static auto* tracer = new Tracer();
  return *tracer;
}

ScopedSpan::ScopedSpan(Tracer& tracer, const char* name) {
  if (!tracer.enabled()) return;
  tracer_ = &tracer;
  name_ = name;
  id_ = tracer.next_id_++;
  parent_ = tracer.open_.empty() ? 0 : tracer.open_.back();
  tracer.open_.push_back(id_);
  start_us_ = tracer.now_us();
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  const double end_us = tracer_->now_us();
  tracer_->open_.pop_back();  // scope-bound, so this span is the innermost
  tracer_->spans_.push_back(SpanRecord{id_, parent_, name_, start_us_, end_us});
}

}  // namespace alvc::telemetry
