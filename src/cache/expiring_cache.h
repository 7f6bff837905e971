#ifndef DSTORE_CACHE_EXPIRING_CACHE_H_
#define DSTORE_CACHE_EXPIRING_CACHE_H_

#include <memory>
#include <string>
#include <unordered_map>

#include "cache/cache.h"
#include "common/clock.h"
#include "common/sync.h"

namespace dstore {

// Expiration-time management layered above any Cache, exactly as the paper
// prescribes (Section III): "Cache expiration times are managed by the DSCL
// and not by the underlying cache" because (a) not every cache supports
// expiration and (b) caches that do tend to purge expired entries, while the
// DSCL wants to KEEP them — an expired entry is not necessarily obsolete and
// can be revalidated with the server cheaply (If-Modified-Since style,
// Fig. 7) instead of refetched.
//
// Get() on an expired entry returns kExpired. GetEntry() additionally hands
// back the stale value and its entity tag so the caller can revalidate; on
// a successful revalidation call Touch() to extend the lifetime.
class ExpiringCache : public Cache {
 public:
  struct Entry {
    ValuePtr value;
    std::string etag;    // version identifier for revalidation
    bool expired;        // true if past its expiration time
    int64_t expires_at;  // clock nanos; 0 = never expires
  };

  // Does not take ownership of `clock` (pass a SimulatedClock in tests).
  ExpiringCache(std::unique_ptr<Cache> inner, const Clock* clock);

  // --- Cache interface (entries stored via Put never expire). ---
  Status Put(const std::string& key, ValuePtr value) override;
  StatusOr<ValuePtr> Get(const std::string& key) override;
  Status Delete(const std::string& key) override;
  void Clear() override;
  bool Contains(const std::string& key) const override;
  size_t EntryCount() const override;
  size_t ChargeUsed() const override;
  CacheStats Stats() const override;
  std::string Name() const override;
  StatusOr<std::vector<std::string>> Keys() const override {
    return inner_->Keys();
  }

  // --- Expiration-aware API. ---

  // Inserts with a time-to-live (<= 0 means no expiration) and an optional
  // entity tag identifying this version of the object.
  Status PutWithTtl(const std::string& key, ValuePtr value, int64_t ttl_nanos,
                    const std::string& etag = "");

  // Returns the entry, including stale ones (entry.expired tells which).
  // NotFound only if the key is absent altogether.
  StatusOr<Entry> GetEntry(const std::string& key);

  // Marks the current entry fresh again for `ttl_nanos` (after the server
  // confirmed the cached version is still current, Fig. 7's "o1 is current"
  // branch). Optionally replaces the etag.
  Status Touch(const std::string& key, int64_t ttl_nanos);

  // Number of entries currently past their expiration time.
  size_t ExpiredCount() const;

 private:
  // Kept only for entries that expire or carry an etag; an entry without
  // one reads as never-expiring with no etag.
  struct Meta {
    int64_t expires_at = 0;  // 0 = never
    std::string etag;
  };

  std::unique_ptr<Cache> inner_;
  const Clock* clock_;
  mutable Mutex mu_;
  std::unordered_map<std::string, Meta> meta_ GUARDED_BY(mu_);
};

}  // namespace dstore

#endif  // DSTORE_CACHE_EXPIRING_CACHE_H_
