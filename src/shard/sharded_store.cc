#include "shard/sharded_store.h"

#include <algorithm>
#include <cstdio>
#include <set>

#include "common/hash.h"
#include "obs/trace.h"

namespace dstore {

namespace {
// Overloaded counts: an open circuit breaker or shedding server should mark
// the shard unhealthy (and reads fail over) exactly like an outage would —
// while remaining a distinct status, never fabricated into NotFound.
bool IsTransient(const Status& status) {
  return status.IsUnavailable() || status.IsIOError() ||
         status.IsTimedOut() || status.IsOverloaded();
}
}  // namespace

ShardedStore::ShardedStore(ShardList shards, const Options& options)
    : options_(options),
      clock_(options.clock != nullptr ? options.clock : RealClock::Default()),
      ring_(shard::HashRing::Options{options.vnodes_per_shard, options.seed}) {
  if (options_.pool != nullptr) {
    pool_ = options_.pool;
  } else {
    owned_pool_ = std::make_unique<ThreadPool>(
        std::max<size_t>(1, options_.scatter_threads));
    pool_ = owned_pool_.get();
  }
  auto* registry = obs::MetricsRegistry::Default();
  const obs::Labels labels = {{"store", options_.name}};
  obs_forwarded_ = registry->GetCounter(
      "dstore_shard_forwarded_reads_total", labels,
      "Reads served by the pre-resize owner during a migration window.");
  obs_migrated_ = registry->GetCounter(
      "dstore_shard_keys_migrated_total", labels,
      "Keys copied to their new owner by the rebalance migrator.");
  obs_rebalances_ = registry->GetCounter(
      "dstore_shard_rebalances_total", labels,
      "Topology changes that started a migration.");
  obs_scatter_batches_ = registry->GetCounter(
      "dstore_shard_scatter_batches_total", labels,
      "Per-shard batches fanned out by scatter-gather operations.");
  obs_migration_active_ = registry->GetGauge(
      "dstore_shard_migration_active", labels,
      "1 while a rebalance migration is in flight.");
  obs_shard_count_ = registry->GetGauge(
      "dstore_shard_count", labels, "Shards currently in the ring.");
  for (auto& [name, store] : shards) {
    if (store == nullptr || ring_.HasShard(name)) continue;
    ring_.AddShard(name);
    shards_[name] = MakeShard(name, std::move(store));
  }
  obs_shard_count_->Set(static_cast<double>(shards_.size()));
}

ShardedStore::~ShardedStore() {
  stop_.store(true);
  MutexLock topo(topo_mu_);
  JoinMigrator();
}

std::shared_ptr<ShardedStore::Shard> ShardedStore::MakeShard(
    const std::string& name, std::shared_ptr<KeyValueStore> store) {
  auto shard = std::make_shared<Shard>();
  shard->store = std::move(store);
  auto* registry = obs::MetricsRegistry::Default();
  const obs::Labels labels = {{"store", options_.name}, {"shard", name}};
  shard->ops = registry->GetCounter("dstore_shard_ops_total", labels,
                                    "Operations routed to this shard.");
  shard->errors =
      registry->GetCounter("dstore_shard_errors_total", labels,
                           "Transient errors returned by this shard.");
  return shard;
}

void ShardedStore::Observe(Shard* shard, const Status& status) {
  shard->ops->Increment();
  if (IsTransient(status)) {
    shard->errors->Increment();
    shard->error_streak.fetch_add(1, std::memory_order_relaxed);
  } else {
    shard->error_streak.store(0, std::memory_order_relaxed);
  }
}

Mutex& ShardedStore::StripeFor(const std::string& key) {
  return stripes_[Mix64(Fnv1a64(key)) % kStripes];
}

bool ShardedStore::IsMigrated(const std::string& key) {
  MutexLock lock(migrated_mu_);
  return migrated_.count(key) != 0;
}

void ShardedStore::MarkMigrated(const std::string& key) {
  MutexLock lock(migrated_mu_);
  migrated_.insert(key);
}

std::shared_ptr<ShardedStore::Shard> ShardedStore::ForwardTarget(
    const std::string& key, const std::string& current_owner) {
  if (!old_ring_.has_value()) return nullptr;
  const std::string* previous = old_ring_->OwnerOf(key);
  if (previous == nullptr || *previous == current_owner) return nullptr;
  if (IsMigrated(key)) return nullptr;  // already moved or rewritten
  auto it = shards_.find(*previous);
  if (it != shards_.end()) return it->second;
  it = draining_.find(*previous);
  return it != draining_.end() ? it->second : nullptr;
}

// --- Single-key operations -------------------------------------------------
// Callers hold resize_mu_ (shared), so the ring, shard maps, and old_ring_
// are one coherent snapshot for the whole operation. During a migration
// window the per-key stripe additionally excludes the migrator, making
// "write at the new owner, then mark migrated" atomic against "copy the old
// value over".

Status ShardedStore::Put(const std::string& key, ValuePtr value) {
  obs::Span span("shard.put");
  span.SetAttribute("key", key);
  ReaderLock lock(resize_mu_);
  if (shards_.empty()) return Status::Unavailable("no shards configured");
  auto shard = shards_.at(*ring_.OwnerOf(key));
  if (!migration_active_.load(std::memory_order_acquire)) {
    const Status status = shard->store->Put(key, std::move(value));
    Observe(shard.get(), status);
    return status;
  }
  MutexLock stripe(StripeFor(key));
  const Status status = shard->store->Put(key, std::move(value));
  Observe(shard.get(), status);
  // Only an acknowledged write closes the forwarding window: an errored one
  // may not have landed, and the old value must stay reachable.
  if (status.ok()) MarkMigrated(key);
  return status;
}

Status ShardedStore::Delete(const std::string& key) {
  obs::Span span("shard.delete");
  ReaderLock lock(resize_mu_);
  if (shards_.empty()) return Status::Unavailable("no shards configured");
  auto shard = shards_.at(*ring_.OwnerOf(key));
  if (!migration_active_.load(std::memory_order_acquire)) {
    const Status status = shard->store->Delete(key);
    Observe(shard.get(), status);
    return status;
  }
  MutexLock stripe(StripeFor(key));
  const Status status = shard->store->Delete(key);
  Observe(shard.get(), status);
  // Marking the delete "migrated" stops the migrator from resurrecting the
  // old owner's copy and makes it drop that copy instead.
  if (status.ok()) MarkMigrated(key);
  return status;
}

StatusOr<ValuePtr> ShardedStore::Get(const std::string& key) {
  obs::Span span("shard.get");
  span.SetAttribute("key", key);
  ReaderLock lock(resize_mu_);
  return GetLocked(key);
}

template <typename R, typename Read>
R ShardedStore::ReadLocked(const std::string& key, Read&& read) {
  if (shards_.empty()) return Status::Unavailable("no shards configured");
  auto shard = shards_.at(*ring_.OwnerOf(key));
  if (!migration_active_.load(std::memory_order_acquire)) {
    R result = read(shard->store.get());
    Observe(shard.get(), result.status());
    return result;
  }
  // Hold the stripe across both reads: otherwise the migrator could finish
  // moving the key between "miss at the new owner" and "read the old one"
  // and the old owner's cleaned-up copy would read as a spurious NotFound.
  MutexLock stripe(StripeFor(key));
  auto prev = ForwardTarget(key, *ring_.OwnerOf(key));
  if (prev != nullptr && Unhealthy(*shard)) {
    // The new owner is in a failure streak and cannot hold anything
    // authoritative for this key yet (the window is still open) — serve
    // from the old owner directly instead of burning a doomed attempt.
    R fallback = read(prev->store.get());
    Observe(prev.get(), fallback.status());
    if (fallback.ok()) {
      obs_forwarded_->Increment();
      return fallback;
    }
  }
  R result = read(shard->store.get());
  Observe(shard.get(), result.status());
  if (result.ok() || prev == nullptr) return result;
  R forwarded = read(prev->store.get());
  Observe(prev.get(), forwarded.status());
  if (forwarded.ok()) {
    obs_forwarded_->Increment();
    return forwarded;
  }
  if (result.status().IsNotFound() && forwarded.status().IsNotFound()) {
    return result.status();  // absent on both sides of the window
  }
  // A transient error on either side means absence is unproven; surface the
  // error rather than a wrong NotFound.
  return result.status().IsNotFound() ? forwarded.status() : result.status();
}

StatusOr<ValuePtr> ShardedStore::GetLocked(const std::string& key) {
  return ReadLocked<StatusOr<ValuePtr>>(
      key, [&key](KeyValueStore* store) { return store->Get(key); });
}

StatusOr<ConditionalGetResult> ShardedStore::GetIfChanged(
    const std::string& key, const std::string& etag) {
  obs::Span span("shard.getifchanged");
  span.SetAttribute("key", key);
  ReaderLock lock(resize_mu_);
  return ReadLocked<StatusOr<ConditionalGetResult>>(
      key, [&key, &etag](KeyValueStore* store) {
        return store->GetIfChanged(key, etag);
      });
}

StatusOr<bool> ShardedStore::Contains(const std::string& key) {
  obs::Span span("shard.contains");
  ReaderLock lock(resize_mu_);
  if (shards_.empty()) return Status::Unavailable("no shards configured");
  auto shard = shards_.at(*ring_.OwnerOf(key));
  if (!migration_active_.load(std::memory_order_acquire)) {
    auto result = shard->store->Contains(key);
    Observe(shard.get(), result.status());
    return result;
  }
  MutexLock stripe(StripeFor(key));
  auto prev = ForwardTarget(key, *ring_.OwnerOf(key));
  auto result = shard->store->Contains(key);
  Observe(shard.get(), result.status());
  if (prev == nullptr || (result.ok() && *result)) return result;
  auto forwarded = prev->store->Contains(key);
  Observe(prev.get(), forwarded.status());
  if (forwarded.ok() && *forwarded) {
    obs_forwarded_->Increment();
    return forwarded;
  }
  if (result.ok() && forwarded.ok()) return false;
  return result.ok() ? forwarded.status() : result.status();
}

// --- Scatter-gather --------------------------------------------------------

void ShardedStore::RunBatches(std::vector<std::function<void()>> batches) {
  if (batches.empty()) return;
  obs_scatter_batches_->Increment(batches.size());
  if (batches.size() == 1) {
    batches.front()();
    return;
  }
  // Capture the live trace once: each worker roots a "shard.batch" span on
  // it, and the finished subtrees (including every http.roundtrip they
  // contain) are adopted back into this trace when its root ends — one
  // client trace stitches the whole fan-out. Invalid when not sampling, in
  // which case the workers record nothing.
  const obs::TraceHandle trace = obs::CurrentTraceHandle();
  const size_t total = batches.size();
  Mutex mu;
  CondVar done_cv;
  size_t done = 0;
  for (size_t i = 0; i < batches.size(); ++i) {
    pool_->Submit([&mu, &done_cv, &done, &trace, i,
                   batch = std::move(batches[i])] {
      {
        obs::Span::Options options;
        options.parent = &trace;
        obs::Span span("shard.batch", options);
        span.SetAttribute("batch", std::to_string(i));
        batch();
      }
      MutexLock lock(mu);
      ++done;
      done_cv.NotifyOne();
    });
  }
  MutexLock lock(mu);
  while (done != total) done_cv.Wait(mu);
}

std::vector<StatusOr<ValuePtr>> ShardedStore::MultiGet(
    const std::vector<std::string>& keys) {
  obs::Span span("shard.multiget");
  ReaderLock lock(resize_mu_);
  std::vector<StatusOr<ValuePtr>> results(
      keys.size(), StatusOr<ValuePtr>(Status::Internal("unset")));
  if (migration_active_.load(std::memory_order_acquire) || shards_.empty()) {
    // Per-key path: the forwarding window must be honoured key by key.
    for (size_t i = 0; i < keys.size(); ++i) results[i] = GetLocked(keys[i]);
    return results;
  }
  // Group by owner, fan the per-shard batches out, and write each batch's
  // results straight into its disjoint result slots.
  std::map<std::string, std::vector<size_t>> by_owner;
  for (size_t i = 0; i < keys.size(); ++i) {
    by_owner[*ring_.OwnerOf(keys[i])].push_back(i);
  }
  std::vector<std::function<void()>> batches;
  batches.reserve(by_owner.size());
  for (auto& [owner, indices] : by_owner) {
    Shard* shard = shards_.at(owner).get();
    const std::vector<size_t>* slots = &indices;
    batches.push_back([this, shard, slots, &keys, &results] {
      std::vector<std::string> batch_keys;
      batch_keys.reserve(slots->size());
      for (size_t i : *slots) batch_keys.push_back(keys[i]);
      auto batch = shard->store->MultiGet(batch_keys);
      for (size_t j = 0; j < slots->size() && j < batch.size(); ++j) {
        Observe(shard, batch[j].status());
        results[(*slots)[j]] = std::move(batch[j]);
      }
    });
  }
  RunBatches(std::move(batches));
  return results;
}

Status ShardedStore::MultiPut(
    const std::vector<std::pair<std::string, ValuePtr>>& entries) {
  obs::Span span("shard.multiput");
  ReaderLock lock(resize_mu_);
  if (shards_.empty()) return Status::Unavailable("no shards configured");
  if (migration_active_.load(std::memory_order_acquire)) {
    // Per-key path, stopping at the first error like the base default.
    for (const auto& [key, value] : entries) {
      auto shard = shards_.at(*ring_.OwnerOf(key));
      MutexLock stripe(StripeFor(key));
      const Status status = shard->store->Put(key, value);
      Observe(shard.get(), status);
      if (!status.ok()) return status;
      MarkMigrated(key);
    }
    return Status::OK();
  }
  std::map<std::string, std::vector<size_t>> by_owner;
  for (size_t i = 0; i < entries.size(); ++i) {
    by_owner[*ring_.OwnerOf(entries[i].first)].push_back(i);
  }
  // First failing entry (by input order) wins, so the reported error does
  // not depend on batch scheduling.
  Mutex err_mu;
  size_t err_index = entries.size();
  Status err = Status::OK();
  std::vector<std::function<void()>> batches;
  batches.reserve(by_owner.size());
  for (auto& [owner, indices] : by_owner) {
    Shard* shard = shards_.at(owner).get();
    const std::vector<size_t>* slots = &indices;
    batches.push_back([this, shard, slots, &entries, &err_mu, &err_index,
                       &err] {
      std::vector<std::pair<std::string, ValuePtr>> batch;
      batch.reserve(slots->size());
      for (size_t i : *slots) batch.push_back(entries[i]);
      const Status status = shard->store->MultiPut(batch);
      Observe(shard, status);
      if (!status.ok()) {
        MutexLock lock(err_mu);
        if (slots->front() < err_index) {
          err_index = slots->front();
          err = status;
        }
      }
    });
  }
  RunBatches(std::move(batches));
  return err;
}

StatusOr<std::vector<std::string>> ShardedStore::ListKeys() {
  obs::Span span("shard.listkeys");
  ReaderLock lock(resize_mu_);
  return ListKeysLocked();
}

StatusOr<std::vector<std::string>> ShardedStore::ListKeysLocked() {
  if (shards_.empty()) return Status::Unavailable("no shards configured");
  std::vector<Shard*> targets;
  for (auto& [name, shard] : shards_) targets.push_back(shard.get());
  // Mid-migration a key may briefly exist on both sides of the window;
  // include draining shards and dedupe below.
  for (auto& [name, shard] : draining_) targets.push_back(shard.get());
  std::vector<StatusOr<std::vector<std::string>>> partials(
      targets.size(),
      StatusOr<std::vector<std::string>>(Status::Internal("unset")));
  std::vector<std::function<void()>> batches;
  batches.reserve(targets.size());
  for (size_t i = 0; i < targets.size(); ++i) {
    batches.push_back([this, &targets, &partials, i] {
      partials[i] = targets[i]->store->ListKeys();
      Observe(targets[i], partials[i].status());
    });
  }
  RunBatches(std::move(batches));
  std::set<std::string> merged;
  for (auto& partial : partials) {
    if (!partial.ok()) return partial.status();
    merged.insert(partial->begin(), partial->end());
  }
  return std::vector<std::string>(merged.begin(), merged.end());
}

StatusOr<size_t> ShardedStore::Count() {
  obs::Span span("shard.count");
  ReaderLock lock(resize_mu_);
  if (shards_.empty()) return Status::Unavailable("no shards configured");
  if (migration_active_.load(std::memory_order_acquire)) {
    // Keys can transiently exist on two shards; count distinct keys.
    auto keys = ListKeysLocked();
    if (!keys.ok()) return keys.status();
    return keys->size();
  }
  std::vector<Shard*> targets;
  for (auto& [name, shard] : shards_) targets.push_back(shard.get());
  std::vector<StatusOr<size_t>> partials(
      targets.size(), StatusOr<size_t>(Status::Internal("unset")));
  std::vector<std::function<void()>> batches;
  batches.reserve(targets.size());
  for (size_t i = 0; i < targets.size(); ++i) {
    batches.push_back([this, &targets, &partials, i] {
      partials[i] = targets[i]->store->Count();
      Observe(targets[i], partials[i].status());
    });
  }
  RunBatches(std::move(batches));
  size_t total = 0;
  for (auto& partial : partials) {
    if (!partial.ok()) return partial.status();
    total += *partial;
  }
  return total;
}

Status ShardedStore::Clear() {
  obs::Span span("shard.clear");
  WaitForRebalance();  // clearing mid-migration would race copied keys
  ReaderLock lock(resize_mu_);
  if (shards_.empty()) return Status::OK();
  for (auto& [name, shard] : shards_) {
    const Status status = shard->store->Clear();
    Observe(shard.get(), status);
    if (!status.ok()) return status;
  }
  return Status::OK();
}

std::string ShardedStore::Name() const {
  ReaderLock lock(resize_mu_);
  std::string name = options_.name + "(";
  bool first = true;
  for (const auto& [shard_name, shard] : shards_) {
    if (!first) name += ",";
    name += shard_name;
    first = false;
  }
  return name + ")";
}

size_t ShardedStore::shard_count() const {
  ReaderLock lock(resize_mu_);
  return shards_.size();
}

// --- Topology changes ------------------------------------------------------

void ShardedStore::JoinMigrator() {
  if (migrator_.joinable()) migrator_.join();
}

void ShardedStore::WaitForRebalance() {
  MutexLock topo(topo_mu_);
  JoinMigrator();
}

Status ShardedStore::AddShard(const std::string& name,
                              std::shared_ptr<KeyValueStore> store) {
  if (store == nullptr) return Status::InvalidArgument("null shard store");
  MutexLock topo(topo_mu_);
  JoinMigrator();  // one migration at a time
  shard::HashRing old_snapshot, new_snapshot;
  ShardMap stores;
  uint64_t id = 0;
  {
    WriterLock resize(resize_mu_);
    if (shards_.count(name) != 0 || draining_.count(name) != 0) {
      return Status::AlreadyExists("shard '" + name + "' already registered");
    }
    const bool first = shards_.empty();
    old_snapshot = ring_;
    ring_.AddShard(name);
    shards_[name] = MakeShard(name, std::move(store));
    obs_shard_count_->Set(static_cast<double>(shards_.size()));
    if (first) return Status::OK();  // nothing can have moved
    old_ring_ = old_snapshot;
    {
      MutexLock m(migrated_mu_);
      migrated_.clear();
    }
    migration_active_.store(true, std::memory_order_release);
    obs_migration_active_->Set(1);
    id = ++rebalance_seq_;
    new_snapshot = ring_;
    stores = shards_;
  }
  obs_rebalances_->Increment();
  migrator_ = std::thread(&ShardedStore::MigratorMain, this,
                          std::move(old_snapshot), std::move(new_snapshot),
                          std::move(stores), id);
  return Status::OK();
}

Status ShardedStore::RemoveShard(const std::string& name) {
  MutexLock topo(topo_mu_);
  JoinMigrator();
  shard::HashRing old_snapshot, new_snapshot;
  ShardMap stores;
  uint64_t id = 0;
  {
    WriterLock resize(resize_mu_);
    auto it = shards_.find(name);
    if (it == shards_.end()) {
      return Status::NotFound("no shard '" + name + "'");
    }
    if (shards_.size() == 1) {
      return Status::InvalidArgument("cannot remove the last shard");
    }
    old_snapshot = ring_;
    ring_.RemoveShard(name);
    // The removed store keeps serving forwarded reads and the migrator
    // drains it; it drops out of the maps when migration completes.
    draining_[name] = it->second;
    shards_.erase(it);
    obs_shard_count_->Set(static_cast<double>(shards_.size()));
    old_ring_ = old_snapshot;
    {
      MutexLock m(migrated_mu_);
      migrated_.clear();
    }
    migration_active_.store(true, std::memory_order_release);
    obs_migration_active_->Set(1);
    id = ++rebalance_seq_;
    new_snapshot = ring_;
    stores = shards_;
    stores[name] = draining_[name];
  }
  obs_rebalances_->Increment();
  migrator_ = std::thread(&ShardedStore::MigratorMain, this,
                          std::move(old_snapshot), std::move(new_snapshot),
                          std::move(stores), id);
  return Status::OK();
}

// --- Migrator --------------------------------------------------------------

Status ShardedStore::MigratorFault(const char* op) {
  if (options_.fault_plan == nullptr) return Status::OK();
  auto fault = options_.fault_plan->Evaluate("shard.migrator", op);
  if (!fault.has_value()) return Status::OK();
  if (fault->latency_nanos > 0) clock_->SleepFor(fault->latency_nanos);
  if (fault->kind == fault::FaultKind::kLatency) return Status::OK();
  return fault->ToStatus("shard.migrator", op);
}

void ShardedStore::RecordMigration(uint64_t rebalance_id, const char* action,
                                   const std::string& key,
                                   const std::string& from,
                                   const std::string& to) {
  std::string line = "#" + std::to_string(rebalance_id) + " " + action + " " +
                     key + " " + from;
  if (!to.empty()) line += " -> " + to;
  MutexLock lock(trace_mu_);
  migration_trace_.push_back(std::move(line));
}

size_t ShardedStore::MigratePass(const shard::HashRing& old_ring,
                                 const shard::HashRing& new_ring,
                                 const ShardMap& stores, uint64_t rebalance_id,
                                 bool* made_progress) {
  size_t pending = 0;
  std::function<void()> hook;
  {
    MutexLock lock(trace_mu_);
    hook = migration_step_hook_;
  }
  for (const std::string& source : old_ring.Shards()) {
    if (stop_.load()) return 0;
    auto src_it = stores.find(source);
    if (src_it == stores.end()) continue;
    Shard* src = src_it->second.get();
    Status list_fault = MigratorFault("list");
    StatusOr<std::vector<std::string>> keys =
        list_fault.ok() ? src->store->ListKeys()
                        : StatusOr<std::vector<std::string>>(list_fault);
    if (!keys.ok()) {
      ++pending;
      continue;
    }
    std::sort(keys->begin(), keys->end());
    for (const std::string& key : *keys) {
      if (stop_.load()) return 0;
      const std::string* dest = new_ring.OwnerOf(key);
      if (dest == nullptr || *dest == source) continue;  // did not move
      auto dst_it = stores.find(*dest);
      if (dst_it == stores.end()) {
        ++pending;
        continue;
      }
      Shard* dst = dst_it->second.get();
      bool settled = false;
      {
        MutexLock stripe(StripeFor(key));
        if (IsMigrated(key)) {
          // The key was rewritten (or deleted) under the new ring, or a
          // previous pass copied it but failed the source delete: the copy
          // here is stale — drop it so it cannot resurrect later.
          Status status = MigratorFault("cleanup");
          if (status.ok()) status = src->store->Delete(key);
          if (status.ok()) {
            RecordMigration(rebalance_id, "drop", key, source, "");
            *made_progress = true;
            settled = true;
          }
        } else {
          Status status = MigratorFault("copy");
          StatusOr<ValuePtr> value = status.ok()
                                         ? src->store->Get(key)
                                         : StatusOr<ValuePtr>(status);
          if (value.status().IsNotFound()) {
            settled = true;  // vanished underneath us; nothing to move
          } else if (value.ok()) {
            if (dst->store->Put(key, *value).ok()) {
              MarkMigrated(key);
              keys_migrated_.fetch_add(1);
              obs_migrated_->Increment();
              RecordMigration(rebalance_id, "move", key, source, *dest);
              *made_progress = true;
              // Failure here is retried as a "drop" next pass.
              settled = src->store->Delete(key).ok();
            }
          }
        }
      }
      if (hook) hook();
      if (!settled) ++pending;
    }
  }
  return pending;
}

void ShardedStore::MigratorMain(shard::HashRing old_ring,
                                shard::HashRing new_ring, ShardMap stores,
                                uint64_t rebalance_id) {
  obs::Span span("shard.rebalance");
  for (;;) {
    if (stop_.load()) break;
    bool progress = false;
    const size_t pending =
        MigratePass(old_ring, new_ring, stores, rebalance_id, &progress);
    if (pending == 0) break;
    if (!progress) clock_->SleepFor(options_.migration_retry_backoff_nanos);
  }
  WriterLock resize(resize_mu_);
  draining_.clear();
  old_ring_.reset();
  migration_active_.store(false, std::memory_order_release);
  obs_migration_active_->Set(0);
}

// --- Introspection ---------------------------------------------------------

void ShardedStore::SetMigrationStepHook(std::function<void()> hook) {
  MutexLock lock(trace_mu_);
  migration_step_hook_ = std::move(hook);
}

std::string ShardedStore::MigrationTraceString() const {
  MutexLock lock(trace_mu_);
  std::string out;
  for (const std::string& line : migration_trace_) {
    out += line;
    out += "\n";
  }
  return out;
}

std::vector<ShardedStore::ShardStatus> ShardedStore::ShardStatuses() {
  ReaderLock lock(resize_mu_);
  const auto fractions = ring_.OwnershipFractions();
  std::vector<ShardStatus> out;
  auto fill = [&](const std::string& name, const Shard& shard,
                  bool draining) {
    ShardStatus status;
    status.name = name;
    const auto it = fractions.find(name);
    status.ownership = it == fractions.end() ? 0.0 : it->second;
    auto count = shard.store->Count();
    status.keys = count.ok() ? static_cast<int64_t>(*count) : -1;
    status.error_streak = shard.error_streak.load(std::memory_order_relaxed);
    status.healthy = !Unhealthy(shard);
    status.draining = draining;
    out.push_back(std::move(status));
  };
  for (const auto& [name, shard] : shards_) fill(name, *shard, false);
  for (const auto& [name, shard] : draining_) fill(name, *shard, true);
  return out;
}

std::string ShardedStore::DescribeRing() const {
  ReaderLock lock(resize_mu_);
  return ring_.Describe();
}

std::string ShardedStore::DescribeTopology() {
  std::string out;
  {
    ReaderLock lock(resize_mu_);
    char header[160];
    std::snprintf(header, sizeof(header),
                  "topology %s shards=%zu vnodes=%zu seed=%llu migration=%s\n",
                  options_.name.c_str(), shards_.size(),
                  options_.vnodes_per_shard,
                  static_cast<unsigned long long>(options_.seed),
                  migration_active_.load() ? "active" : "idle");
    out += header;
  }
  for (const ShardStatus& status : ShardStatuses()) {
    char line[192];
    std::snprintf(line, sizeof(line),
                  "shard %s own=%.1f%% keys=%lld streak=%llu %s%s\n",
                  status.name.c_str(), status.ownership * 100.0,
                  static_cast<long long>(status.keys),
                  static_cast<unsigned long long>(status.error_streak),
                  status.healthy ? "healthy" : "unhealthy",
                  status.draining ? " draining" : "");
    out += line;
  }
  return out;
}

}  // namespace dstore
