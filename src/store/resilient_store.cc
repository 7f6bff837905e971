#include "store/resilient_store.h"

#include <algorithm>

#include "admit/deadline.h"

namespace dstore {

namespace {

// Uniform helpers so WithRetries can treat Status and StatusOr<T> alike.
inline const Status& StatusOf(const Status& s) { return s; }
template <typename T>
inline const Status& StatusOf(const StatusOr<T>& s) {
  return s.status();
}

}  // namespace

bool RetryingStore::BackOff(int64_t* backoff) {
  int64_t sleep_nanos = std::min(*backoff, options_.max_backoff_nanos);
  if (options_.full_jitter && sleep_nanos > 0) {
    MutexLock lock(mu_);
    sleep_nanos = static_cast<int64_t>(
        rng_.Uniform(static_cast<uint64_t>(sleep_nanos)));
  }
  const admit::Deadline deadline = admit::CurrentDeadline();
  if (deadline.has_deadline() && deadline.remaining_nanos() <= sleep_nanos) {
    // The budget cannot cover the backoff sleep, let alone the attempt
    // after it: stop here and surface the last real error instead of
    // timing out inside a sleep.
    return false;
  }
  clock_->SleepFor(sleep_nanos);
  {
    MutexLock lock(mu_);
    ++stats_.retries;
    stats_.backoff_nanos += static_cast<uint64_t>(sleep_nanos);
  }
  obs_retries_->Increment();
  obs_backoff_nanos_->Increment(static_cast<uint64_t>(sleep_nanos));
  *backoff = static_cast<int64_t>(static_cast<double>(*backoff) *
                                  options_.backoff_multiplier);
  return true;
}

void RetryingStore::CountExhausted() {
  {
    MutexLock lock(mu_);
    ++stats_.exhausted;
  }
  obs_exhausted_->Increment();
}

template <typename R, typename Op>
R RetryingStore::WithRetries(Op&& op) {
  int64_t backoff = options_.initial_backoff_nanos;
  R result = op();
  for (int attempt = 1;
       attempt < options_.max_attempts && IsTransient(StatusOf(result)) &&
       BackOff(&backoff);
       ++attempt) {
    result = op();
  }
  if (IsTransient(StatusOf(result))) CountExhausted();
  return result;
}

Status RetryingStore::Put(const std::string& key, ValuePtr value) {
  return WithRetries<Status>([&] { return inner()->Put(key, value); });
}

StatusOr<ValuePtr> RetryingStore::Get(const std::string& key) {
  return WithRetries<StatusOr<ValuePtr>>([&] { return inner()->Get(key); });
}

Status RetryingStore::Delete(const std::string& key) {
  return WithRetries<Status>([&] { return inner()->Delete(key); });
}

StatusOr<bool> RetryingStore::Contains(const std::string& key) {
  return WithRetries<StatusOr<bool>>([&] { return inner()->Contains(key); });
}

StatusOr<std::vector<std::string>> RetryingStore::ListKeys() {
  return WithRetries<StatusOr<std::vector<std::string>>>(
      [&] { return inner()->ListKeys(); });
}

StatusOr<size_t> RetryingStore::Count() {
  return WithRetries<StatusOr<size_t>>([&] { return inner()->Count(); });
}

Status RetryingStore::Clear() {
  return WithRetries<Status>([&] { return inner()->Clear(); });
}

StatusOr<ConditionalGetResult> RetryingStore::GetIfChanged(
    const std::string& key, const std::string& etag) {
  return WithRetries<StatusOr<ConditionalGetResult>>(
      [&] { return inner()->GetIfChanged(key, etag); });
}

std::vector<StatusOr<ValuePtr>> RetryingStore::MultiGet(
    const std::vector<std::string>& keys) {
  std::vector<StatusOr<ValuePtr>> results = inner()->MultiGet(keys);
  std::vector<size_t> pending;  // slots whose last answer was transient
  for (size_t i = 0; i < results.size(); ++i) {
    if (IsTransient(results[i].status())) pending.push_back(i);
  }
  int64_t backoff = options_.initial_backoff_nanos;
  for (int attempt = 1; attempt < options_.max_attempts && !pending.empty() &&
                        BackOff(&backoff);
       ++attempt) {
    std::vector<std::string> retry_keys;
    retry_keys.reserve(pending.size());
    for (size_t i : pending) retry_keys.push_back(keys[i]);
    std::vector<StatusOr<ValuePtr>> retried = inner()->MultiGet(retry_keys);
    std::vector<size_t> still_pending;
    for (size_t j = 0; j < pending.size() && j < retried.size(); ++j) {
      results[pending[j]] = std::move(retried[j]);
      if (IsTransient(results[pending[j]].status())) {
        still_pending.push_back(pending[j]);
      }
    }
    pending = std::move(still_pending);
  }
  if (!pending.empty()) CountExhausted();
  return results;
}

Status RetryingStore::MultiPut(
    const std::vector<std::pair<std::string, ValuePtr>>& entries) {
  return WithRetries<Status>([&] { return inner()->MultiPut(entries); });
}

RetryingStore::RetryStats RetryingStore::GetRetryStats() const {
  MutexLock lock(mu_);
  return stats_;
}

}  // namespace dstore
