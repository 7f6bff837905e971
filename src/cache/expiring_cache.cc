#include "cache/expiring_cache.h"

namespace dstore {

ExpiringCache::ExpiringCache(std::unique_ptr<Cache> inner, const Clock* clock)
    : inner_(std::move(inner)), clock_(clock) {}

Status ExpiringCache::Put(const std::string& key, ValuePtr value) {
  return PutWithTtl(key, std::move(value), /*ttl_nanos=*/0);
}

Status ExpiringCache::PutWithTtl(const std::string& key, ValuePtr value,
                                 int64_t ttl_nanos, const std::string& etag) {
  DSTORE_RETURN_IF_ERROR(inner_->Put(key, std::move(value)));
  MutexLock lock(mu_);
  if (ttl_nanos <= 0 && etag.empty()) {
    meta_.erase(key);  // never expires, nothing to revalidate
    return Status::OK();
  }
  Meta& meta = meta_[key];
  meta.expires_at = ttl_nanos <= 0 ? 0 : clock_->NowNanos() + ttl_nanos;
  meta.etag = etag;
  return Status::OK();
}

StatusOr<ValuePtr> ExpiringCache::Get(const std::string& key) {
  DSTORE_ASSIGN_OR_RETURN(Entry entry, GetEntry(key));
  if (entry.expired) {
    return Status::Expired("cached entry is past its expiration time");
  }
  return entry.value;
}

StatusOr<ExpiringCache::Entry> ExpiringCache::GetEntry(const std::string& key) {
  auto value = inner_->Get(key);
  if (!value.ok()) {
    // The inner cache may have evicted the entry; drop stale metadata so the
    // map cannot grow without bound.
    MutexLock lock(mu_);
    meta_.erase(key);
    return value.status();
  }
  Entry entry;
  entry.value = *std::move(value);
  MutexLock lock(mu_);
  auto it = meta_.find(key);
  if (it == meta_.end()) {
    entry.expires_at = 0;
    entry.expired = false;
    return entry;
  }
  entry.etag = it->second.etag;
  entry.expires_at = it->second.expires_at;
  entry.expired =
      it->second.expires_at != 0 && clock_->NowNanos() >= it->second.expires_at;
  return entry;
}

Status ExpiringCache::Touch(const std::string& key, int64_t ttl_nanos) {
  if (!inner_->Contains(key)) {
    return Status::NotFound("cannot touch absent entry");
  }
  MutexLock lock(mu_);
  Meta& meta = meta_[key];
  meta.expires_at = ttl_nanos <= 0 ? 0 : clock_->NowNanos() + ttl_nanos;
  return Status::OK();
}

Status ExpiringCache::Delete(const std::string& key) {
  DSTORE_RETURN_IF_ERROR(inner_->Delete(key));
  MutexLock lock(mu_);
  meta_.erase(key);
  return Status::OK();
}

void ExpiringCache::Clear() {
  inner_->Clear();
  MutexLock lock(mu_);
  meta_.clear();
}

bool ExpiringCache::Contains(const std::string& key) const {
  return inner_->Contains(key);
}

size_t ExpiringCache::EntryCount() const { return inner_->EntryCount(); }

size_t ExpiringCache::ChargeUsed() const { return inner_->ChargeUsed(); }

CacheStats ExpiringCache::Stats() const { return inner_->Stats(); }

std::string ExpiringCache::Name() const {
  return inner_->Name() + "+expiry";
}

size_t ExpiringCache::ExpiredCount() const {
  MutexLock lock(mu_);
  size_t count = 0;
  const int64_t now = clock_->NowNanos();
  for (const auto& [key, meta] : meta_) {
    if (meta.expires_at != 0 && now >= meta.expires_at &&
        inner_->Contains(key)) {
      ++count;
    }
  }
  return count;
}

}  // namespace dstore
