#include "admit/admit_store.h"

#include <cstdio>

#include "admit/deadline.h"
#include "obs/trace.h"

namespace dstore {
namespace admit {

namespace {

using Batch = std::vector<StatusOr<ValuePtr>>;

// Uniform helpers so the With* templates treat Status, StatusOr and batch
// results alike (the RetryingStore::WithRetries pattern).

// The outcome limiters and breakers hear: a batch reports its first
// overload-class failure, or OK (a NotFound key is not an overload).
inline const Status& OutcomeOf(const Status& s) { return s; }
template <typename T>
inline const Status& OutcomeOf(const StatusOr<T>& s) {
  return s.status();
}
Status OutcomeOf(const Batch& batch) {
  for (const auto& result : batch) {
    if (AdaptiveLimiter::IsOverloadSignal(result.status())) {
      return result.status();
    }
  }
  return Status::OK();
}

// A refusal fails the operation, or every key of a batch.
template <typename R>
R Refusal(Status status, size_t /*keys*/) {
  return R(std::move(status));
}
template <>
Batch Refusal<Batch>(Status status, size_t keys) {
  return Batch(keys, StatusOr<ValuePtr>(std::move(status)));
}

// Replaces each OK result with `late`; true if any was OK.
template <typename R>
bool ConvertLate(R* result, const Status& late) {
  if (!result->ok()) return false;
  *result = R(late);
  return true;
}
bool ConvertLate(Batch* batch, const Status& late) {
  bool any = false;
  for (auto& result : *batch) any |= ConvertLate(&result, late);
  return any;
}

}  // namespace

AdmittingStore::AdmittingStore(std::shared_ptr<KeyValueStore> inner,
                               const Options& options)
    : ForwardingStore(std::move(inner)),
      options_(options),
      introspection_([this] { return DebugLine(); }) {
  if (options_.publish_metrics) {
    auto* registry = obs::MetricsRegistry::Default();
    const obs::Labels labels = {{"store", this->inner()->Name()}};
    obs_deadline_expired_ = registry->GetCounter(
        "dstore_admit_deadline_expired_total", labels,
        "Operations abandoned before the backend: deadline already "
        "expired.");
    obs_late_ = registry->GetCounter(
        "dstore_admit_late_total", labels,
        "Successes converted to TimedOut: completed after the deadline.");
    obs_rate_limited_ = registry->GetCounter(
        "dstore_admit_rate_limited_total", labels,
        "Operations shed by the token-bucket rate limiter.");
  }
}

template <typename R, typename Op>
R AdmittingStore::WithAdmission(const char* op_name, Op&& op, size_t keys) {
  obs::Span span(std::string("admit.") + op_name, obs::Stage::kAdmit);
  const Deadline deadline = CurrentDeadline();
  if (options_.enforce_deadline && deadline.expired()) {
    if (obs_deadline_expired_ != nullptr) obs_deadline_expired_->Increment();
    return Refusal<R>(Status::TimedOut("deadline expired before " +
                                       std::string(op_name) + " on " +
                                       Name()),
                      keys);
  }
  if (options_.rate_limiter != nullptr &&
      !options_.rate_limiter->TryAcquire()) {
    if (obs_rate_limited_ != nullptr) obs_rate_limited_->Increment();
    return Refusal<R>(Status::Overloaded("rate limit exceeded on " + Name()),
                      keys);
  }
  if (options_.limiter != nullptr && !options_.limiter->TryAcquire()) {
    return Refusal<R>(
        Status::Overloaded("concurrency limit reached on " + Name()), keys);
  }
  R result = op();
  // Completed, but too late: the caller's budget is spent, and stacked
  // limiters/breakers must see a stalled backend as overload, not as a
  // slow success.
  if (options_.enforce_deadline && deadline.has_deadline() &&
      deadline.expired() &&
      ConvertLate(&result,
                  Status::TimedOut("completed after deadline on " + Name())) &&
      obs_late_ != nullptr) {
    obs_late_->Increment();
  }
  const Status& outcome = OutcomeOf(result);
  if (options_.limiter != nullptr) options_.limiter->Release(outcome);
  span.SetStatus(outcome);
  return result;
}

Status AdmittingStore::Put(const std::string& key, ValuePtr value) {
  return WithAdmission<Status>("put",
                               [&] { return inner()->Put(key, value); });
}

StatusOr<ValuePtr> AdmittingStore::Get(const std::string& key) {
  return WithAdmission<StatusOr<ValuePtr>>("get",
                                           [&] { return inner()->Get(key); });
}

Status AdmittingStore::Delete(const std::string& key) {
  return WithAdmission<Status>("delete",
                               [&] { return inner()->Delete(key); });
}

StatusOr<bool> AdmittingStore::Contains(const std::string& key) {
  return WithAdmission<StatusOr<bool>>(
      "contains", [&] { return inner()->Contains(key); });
}

StatusOr<std::vector<std::string>> AdmittingStore::ListKeys() {
  return WithAdmission<StatusOr<std::vector<std::string>>>(
      "listkeys", [&] { return inner()->ListKeys(); });
}

StatusOr<size_t> AdmittingStore::Count() {
  return WithAdmission<StatusOr<size_t>>("count",
                                         [&] { return inner()->Count(); });
}

Status AdmittingStore::Clear() {
  return WithAdmission<Status>("clear", [&] { return inner()->Clear(); });
}

StatusOr<ConditionalGetResult> AdmittingStore::GetIfChanged(
    const std::string& key, const std::string& etag) {
  return WithAdmission<StatusOr<ConditionalGetResult>>(
      "getifchanged", [&] { return inner()->GetIfChanged(key, etag); });
}

std::vector<StatusOr<ValuePtr>> AdmittingStore::MultiGet(
    const std::vector<std::string>& keys) {
  return WithAdmission<Batch>(
      "multiget", [&] { return inner()->MultiGet(keys); }, keys.size());
}

Status AdmittingStore::MultiPut(
    const std::vector<std::pair<std::string, ValuePtr>>& entries) {
  return WithAdmission<Status>("multiput",
                               [&] { return inner()->MultiPut(entries); });
}

std::string AdmittingStore::DebugLine() const {
  std::string line = "admit   " + Name();
  if (options_.limiter != nullptr) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), " limit=%.1f in_flight=%lld",
                  options_.limiter->limit(),
                  static_cast<long long>(options_.limiter->in_flight()));
    line += buf;
  }
  if (options_.rate_limiter != nullptr) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), " tokens=%.1f",
                  options_.rate_limiter->Available());
    line += buf;
  }
  return line;
}

CircuitBreaker::Options CircuitBreakerStore::WithDefaultName(
    CircuitBreaker::Options options, const KeyValueStore& inner) {
  if (options.name == CircuitBreaker::Options().name) {
    options.name = inner.Name();
  }
  return options;
}

CircuitBreakerStore::CircuitBreakerStore(
    std::shared_ptr<KeyValueStore> inner,
    CircuitBreaker::Options breaker_options)
    : ForwardingStore(std::move(inner)),
      breaker_(WithDefaultName(std::move(breaker_options), *this->inner())),
      introspection_([this] { return breaker_.DebugLine(); }) {}

template <typename R, typename Op>
R CircuitBreakerStore::WithBreaker(Op&& op, size_t keys) {
  Status admit = breaker_.Admit();
  if (!admit.ok()) return Refusal<R>(std::move(admit), keys);
  R result = op();
  breaker_.OnResult(OutcomeOf(result));
  return result;
}

Status CircuitBreakerStore::Put(const std::string& key, ValuePtr value) {
  return WithBreaker<Status>([&] { return inner()->Put(key, value); });
}

StatusOr<ValuePtr> CircuitBreakerStore::Get(const std::string& key) {
  return WithBreaker<StatusOr<ValuePtr>>([&] { return inner()->Get(key); });
}

Status CircuitBreakerStore::Delete(const std::string& key) {
  return WithBreaker<Status>([&] { return inner()->Delete(key); });
}

StatusOr<bool> CircuitBreakerStore::Contains(const std::string& key) {
  return WithBreaker<StatusOr<bool>>([&] { return inner()->Contains(key); });
}

StatusOr<std::vector<std::string>> CircuitBreakerStore::ListKeys() {
  return WithBreaker<StatusOr<std::vector<std::string>>>(
      [&] { return inner()->ListKeys(); });
}

StatusOr<size_t> CircuitBreakerStore::Count() {
  return WithBreaker<StatusOr<size_t>>([&] { return inner()->Count(); });
}

Status CircuitBreakerStore::Clear() {
  return WithBreaker<Status>([&] { return inner()->Clear(); });
}

StatusOr<ConditionalGetResult> CircuitBreakerStore::GetIfChanged(
    const std::string& key, const std::string& etag) {
  return WithBreaker<StatusOr<ConditionalGetResult>>(
      [&] { return inner()->GetIfChanged(key, etag); });
}

std::vector<StatusOr<ValuePtr>> CircuitBreakerStore::MultiGet(
    const std::vector<std::string>& keys) {
  return WithBreaker<Batch>([&] { return inner()->MultiGet(keys); },
                            keys.size());
}

Status CircuitBreakerStore::MultiPut(
    const std::vector<std::pair<std::string, ValuePtr>>& entries) {
  return WithBreaker<Status>([&] { return inner()->MultiPut(entries); });
}

}  // namespace admit
}  // namespace dstore
