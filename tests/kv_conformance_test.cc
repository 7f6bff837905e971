// Conformance suite run against EVERY KeyValueStore implementation — the
// point of the paper's common key-value interface is that all stores behave
// identically behind it, so one parameterized suite covers file system, SQL,
// cloud, remote-cache, and memory stores.

#include <filesystem>
#include <functional>
#include <memory>

#include <gtest/gtest.h>

#include "admit/admit_store.h"
#include "admit/limiter.h"
#include "admit/token_bucket.h"
#include "cache/lru_cache.h"
#include "common/random.h"
#include "fault/fault_store.h"
#include "net/latency_model.h"
#include "store/cloud_client.h"
#include "store/cloud_server.h"
#include "store/file_store.h"
#include "store/forwarding_store.h"
#include "store/key_value.h"
#include "store/lsm/lsm_store.h"
#include "shard/sharded_store.h"
#include "store/memory_store.h"
#include "store/remote_cache.h"
#include "store/resilient_store.h"
#include "replica/placement.h"
#include "replica/replicated_store.h"
#include "udsm/mirrored_store.h"
#include "store/sql_client.h"
#include "store/sql_server.h"

namespace dstore {
namespace {

// Holds a store plus whatever server machinery keeps it alive.
struct StoreFixture {
  std::unique_ptr<KeyValueStore> store;
  std::function<void()> teardown;
};

using FixtureFactory = StoreFixture (*)();

StoreFixture MakeMemoryFixture() {
  return {std::make_unique<MemoryStore>(), [] {}};
}

StoreFixture MakeFileFixture() {
  static int counter = 0;
  const auto root = std::filesystem::temp_directory_path() /
                    ("dstore_kv_conformance_" + std::to_string(::getpid()) +
                     "_" + std::to_string(counter++));
  auto store = FileStore::Open(root);
  EXPECT_TRUE(store.ok());
  auto path = root;
  return {*std::move(store), [path] {
            std::error_code ec;
            std::filesystem::remove_all(path, ec);
          }};
}

// Small memtable so the conformance workload (1 MiB values) actually
// exercises flushes and L0 reads, not just the memtable.
std::unique_ptr<lsm::LsmStore> OpenLsmAt(const std::filesystem::path& root) {
  lsm::LsmOptions options;
  options.memtable_bytes = 256u << 10;
  auto store = lsm::LsmStore::Open(root, options);
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  return store.ok() ? *std::move(store) : nullptr;
}

StoreFixture MakeLsmFixture() {
  static int counter = 0;
  const auto root = std::filesystem::temp_directory_path() /
                    ("dstore_kv_conformance_lsm_" +
                     std::to_string(::getpid()) + "_" +
                     std::to_string(counter++));
  return {OpenLsmAt(root), [root] {
            std::error_code ec;
            std::filesystem::remove_all(root, ec);
          }};
}

// ShardedStore over three LsmStore shards: routing must compose with a
// real persistent backend, not just MemoryStore.
StoreFixture MakeShardedLsmFixture() {
  static int counter = 0;
  const auto root = std::filesystem::temp_directory_path() /
                    ("dstore_kv_conformance_lsm_shards_" +
                     std::to_string(::getpid()) + "_" +
                     std::to_string(counter++));
  ShardedStore::ShardList shards;
  for (int i = 0; i < 3; ++i) {
    shards.emplace_back(
        "lsm" + std::to_string(i),
        std::shared_ptr<KeyValueStore>(
            OpenLsmAt(root / ("shard" + std::to_string(i)))));
  }
  return {std::make_unique<ShardedStore>(std::move(shards)), [root] {
            std::error_code ec;
            std::filesystem::remove_all(root, ec);
          }};
}

StoreFixture MakeSqlFixture() {
  auto server = SqlServer::Start("");
  EXPECT_TRUE(server.ok());
  auto client = SqlClient::Connect("127.0.0.1", (*server)->port());
  EXPECT_TRUE(client.ok());
  auto shared_server = std::shared_ptr<SqlServer>(std::move(*server));
  return {*std::move(client), [shared_server] { shared_server->Stop(); }};
}

StoreFixture MakeCloudFixture() {
  auto server = CloudStoreServer::Start(std::make_unique<NoLatency>());
  EXPECT_TRUE(server.ok());
  auto client = CloudStoreClient::Connect("127.0.0.1", (*server)->port());
  EXPECT_TRUE(client.ok());
  auto shared_server = std::shared_ptr<CloudStoreServer>(std::move(*server));
  return {*std::move(client), [shared_server] { shared_server->Stop(); }};
}

StoreFixture MakeRemoteCacheFixture() {
  auto server =
      RemoteCacheServer::Start(std::make_unique<LruCache>(64u << 20));
  EXPECT_TRUE(server.ok());
  auto conn = RemoteCacheConnection::Connect("127.0.0.1", (*server)->port());
  EXPECT_TRUE(conn.ok());
  auto shared_server = std::shared_ptr<RemoteCacheServer>(std::move(*server));
  return {std::make_unique<RemoteCacheStore>(*conn),
          [shared_server] { shared_server->Stop(); }};
}

// Wraps a base fixture's store in a FaultInjectingStore carrying a
// probability-0 rule. The decorator must be behaviour-identical to the bare
// store when no fault fires, so the whole suite runs again over each
// wrapped variant.
template <FixtureFactory kBase>
StoreFixture MakeFaultWrappedFixture() {
  StoreFixture base = kBase();
  auto plan = std::make_shared<fault::FaultPlan>(1);
  plan->AddRule(*fault::FaultRule::Parse("site=store p=0.0"));
  return {std::make_unique<FaultInjectingStore>(
              std::shared_ptr<KeyValueStore>(std::move(base.store)),
              std::move(plan)),
          base.teardown};
}

// Wraps a base fixture's store in the full admission stack (adaptive
// limiter + token bucket + circuit breaker) configured so nothing can ever
// trip or shed. Pass-through admission must be behaviour-identical to the
// bare store, the same way a probability-0 fault plan is.
template <FixtureFactory kBase>
StoreFixture MakeAdmitWrappedFixture() {
  StoreFixture base = kBase();
  admit::AdmittingStore::Options options;
  admit::AdaptiveLimiter::Options limiter_options;
  limiter_options.initial_limit = 1e6;
  limiter_options.min_limit = 1e6;
  limiter_options.max_limit = 1e6;
  options.limiter = std::make_shared<admit::AdaptiveLimiter>(limiter_options);
  admit::TokenBucket::Options bucket_options;
  bucket_options.rate_per_sec = 1e9;
  bucket_options.burst = 1e9;
  options.rate_limiter = std::make_shared<admit::TokenBucket>(bucket_options);
  auto admitting = std::make_shared<admit::AdmittingStore>(
      std::shared_ptr<KeyValueStore>(std::move(base.store)), options);
  admit::CircuitBreaker::Options breaker_options;
  breaker_options.failure_threshold = 1'000'000'000;
  return {std::make_unique<admit::CircuitBreakerStore>(std::move(admitting),
                                                       breaker_options),
          base.teardown};
}

// The production client chain over the wire: admit -> breaker -> retry ->
// a ShardedStore over three CloudStoreClients, one server each. Batches and
// revalidations must cross every decorator and reach the servers intact.
StoreFixture MakeCloudChainFixture() {
  std::vector<std::shared_ptr<CloudStoreServer>> servers;
  ShardedStore::ShardList shards;
  for (int i = 0; i < 3; ++i) {
    auto server = CloudStoreServer::Start(std::make_unique<NoLatency>());
    EXPECT_TRUE(server.ok());
    servers.push_back(std::move(*server));
    auto client = CloudStoreClient::Connect(
        "127.0.0.1", servers.back()->port(), "c" + std::to_string(i));
    EXPECT_TRUE(client.ok());
    shards.emplace_back("c" + std::to_string(i),
                        std::shared_ptr<KeyValueStore>(std::move(*client)));
  }
  auto sharded = std::make_shared<ShardedStore>(std::move(shards));
  auto retry = std::make_shared<RetryingStore>(sharded);
  auto breaker = std::make_shared<admit::CircuitBreakerStore>(retry);
  return {std::make_unique<admit::AdmittingStore>(breaker), [servers] {
            for (const auto& server : servers) server->Stop();
          }};
}

// ShardedStore over k memory shards must satisfy the same contract as any
// single store — routing and scatter-gather are invisible to clients.
template <int kShards>
StoreFixture MakeShardedMemoryFixture() {
  ShardedStore::ShardList shards;
  for (int i = 0; i < kShards; ++i) {
    shards.emplace_back("m" + std::to_string(i),
                        std::make_shared<MemoryStore>());
  }
  return {std::make_unique<ShardedStore>(std::move(shards)), [] {}};
}

// Composition check: each shard is itself a MirroredStore replica group.
StoreFixture MakeShardedMirroredFixture() {
  ShardedStore::ShardList shards;
  for (int i = 0; i < 2; ++i) {
    std::vector<std::shared_ptr<KeyValueStore>> replicas = {
        std::make_shared<MemoryStore>(), std::make_shared<MemoryStore>()};
    shards.emplace_back("mir" + std::to_string(i),
                        std::make_shared<MirroredStore>(std::move(replicas)));
  }
  return {std::make_unique<ShardedStore>(std::move(shards)), [] {}};
}

// The factories below hand back shared_ptr-owned stores (ReplicatedStore
// and the replicated ring build as shared_ptr); a bare ForwardingStore makes
// them fit the fixture's unique_ptr without giving up shared ownership.

// A 3-replica primary-backup group over memory backends (W=2, R=2): the
// replication layer must be behaviour-identical to a bare store.
StoreFixture MakeReplicated3Fixture() {
  std::vector<replica::ReplicatedStore::Backend> backends;
  for (int i = 0; i < 3; ++i) {
    backends.push_back(
        {"r" + std::to_string(i), std::make_shared<MemoryStore>()});
  }
  replica::ReplicaGroup::Options options;
  options.name = "conformance";
  auto store = replica::ReplicatedStore::Create(std::move(backends), options);
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  return {std::make_unique<ForwardingStore>(*store), [] {}};
}

// The paper-shaped topology: a sharded store whose shards are replica
// groups placed on distinct nodes by the ring's successor lists.
StoreFixture MakeShardedReplicatedFixture() {
  replica::ReplicatedRingOptions options;
  options.nodes = {"n0", "n1", "n2", "n3"};
  options.groups = 3;
  options.replication_factor = 3;
  options.group.name = "conf-ring";
  options.backend_factory = [](const std::string&, const std::string&) {
    return std::make_shared<MemoryStore>();
  };
  auto store = replica::BuildReplicatedRing(options);
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  return {std::make_unique<ForwardingStore>(*store), [] {}};
}

struct Param {
  const char* name;
  FixtureFactory factory;
  bool supports_list;  // remote cache does not enumerate keys
};

class KvConformanceTest : public ::testing::TestWithParam<Param> {
 protected:
  void SetUp() override {
    fixture_ = GetParam().factory();
    ASSERT_NE(fixture_.store, nullptr);
    ASSERT_TRUE(fixture_.store->Clear().ok());
  }
  void TearDown() override {
    if (fixture_.store) fixture_.store->Clear().ok();
    if (fixture_.teardown) fixture_.teardown();
  }

  KeyValueStore& store() { return *fixture_.store; }

  StoreFixture fixture_;
};

TEST_P(KvConformanceTest, PutThenGet) {
  ASSERT_TRUE(store().PutString("key", "value").ok());
  auto got = store().GetString("key");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, "value");
}

TEST_P(KvConformanceTest, GetMissingIsNotFound) {
  EXPECT_TRUE(store().Get("missing").status().IsNotFound());
}

TEST_P(KvConformanceTest, PutOverwrites) {
  (void)store().PutString("key", "v1");
  (void)store().PutString("key", "v2");
  EXPECT_EQ(*store().GetString("key"), "v2");
}

TEST_P(KvConformanceTest, DeleteThenGetIsNotFound) {
  (void)store().PutString("key", "v");
  ASSERT_TRUE(store().Delete("key").ok());
  EXPECT_TRUE(store().Get("key").status().IsNotFound());
}

TEST_P(KvConformanceTest, DeleteMissingIsOk) {
  EXPECT_TRUE(store().Delete("never-existed").ok());
}

TEST_P(KvConformanceTest, ContainsReflectsState) {
  EXPECT_FALSE(*store().Contains("key"));
  (void)store().PutString("key", "v");
  EXPECT_TRUE(*store().Contains("key"));
  (void)store().Delete("key");
  EXPECT_FALSE(*store().Contains("key"));
}

TEST_P(KvConformanceTest, CountTracksEntries) {
  EXPECT_EQ(*store().Count(), 0u);
  for (int i = 0; i < 5; ++i) {
    (void)store().PutString("key" + std::to_string(i), "v");
  }
  EXPECT_EQ(*store().Count(), 5u);
  (void)store().Delete("key0");
  EXPECT_EQ(*store().Count(), 4u);
}

TEST_P(KvConformanceTest, ClearEmptiesStore) {
  for (int i = 0; i < 5; ++i) {
    (void)store().PutString("key" + std::to_string(i), "v");
  }
  ASSERT_TRUE(store().Clear().ok());
  EXPECT_EQ(*store().Count(), 0u);
}

TEST_P(KvConformanceTest, ListKeysReturnsAll) {
  if (!GetParam().supports_list) {
    GTEST_SKIP() << "store does not enumerate keys";
  }
  std::set<std::string> expected;
  for (int i = 0; i < 7; ++i) {
    const std::string key = "k" + std::to_string(i);
    (void)store().PutString(key, "v");
    expected.insert(key);
  }
  auto keys = store().ListKeys();
  ASSERT_TRUE(keys.ok());
  EXPECT_EQ(std::set<std::string>(keys->begin(), keys->end()), expected);
}

TEST_P(KvConformanceTest, BinaryValuesSurvive) {
  Random rng(5);
  const Bytes value = rng.RandomBytes(4096);
  ASSERT_TRUE(store().Put("bin", MakeValue(Bytes(value))).ok());
  auto got = store().Get("bin");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(**got, value);
}

TEST_P(KvConformanceTest, AwkwardKeysSurvive) {
  // Keys with path separators, spaces, quotes, and non-ASCII bytes must be
  // handled by every backend (hex in file names / paths, escaping in SQL).
  const std::vector<std::string> keys = {
      "a/b/c", "with space", "quote'quote", "semi;colon",
      std::string("nul\0byte", 8), "uni\xc3\xa9"};
  for (const auto& key : keys) {
    ASSERT_TRUE(store().PutString(key, "v:" + key).ok()) << key;
  }
  for (const auto& key : keys) {
    auto got = store().GetString(key);
    ASSERT_TRUE(got.ok()) << key;
    EXPECT_EQ(*got, "v:" + key);
  }
}

TEST_P(KvConformanceTest, EmptyValueAllowed) {
  ASSERT_TRUE(store().Put("empty", MakeValue(Bytes{})).ok());
  auto got = store().Get("empty");
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE((*got)->empty());
}

TEST_P(KvConformanceTest, LargeValueRoundTrips) {
  Random rng(17);
  const Bytes value = rng.CompressibleBytes(1 << 20, 0.5);  // 1 MiB
  ASSERT_TRUE(store().Put("large", MakeValue(Bytes(value))).ok());
  auto got = store().Get("large");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(**got, value);
}

TEST_P(KvConformanceTest, NullValueRejected) {
  EXPECT_TRUE(store().Put("key", nullptr).IsInvalidArgument());
}

TEST_P(KvConformanceTest, MultiGetMatchesIndividualGets) {
  (void)store().PutString("m1", "v1");
  (void)store().PutString("m3", "v3");
  auto results = store().MultiGet({"m1", "m2", "m3"});
  ASSERT_EQ(results.size(), 3u);
  ASSERT_TRUE(results[0].ok());
  EXPECT_EQ(ToString(**results[0]), "v1");
  EXPECT_TRUE(results[1].status().IsNotFound());
  ASSERT_TRUE(results[2].ok());
  EXPECT_EQ(ToString(**results[2]), "v3");
}

TEST_P(KvConformanceTest, MultiPutVisibleToGets) {
  ASSERT_TRUE(store()
                  .MultiPut({{"b1", MakeValue(std::string_view("x"))},
                             {"b2", MakeValue(std::string_view("y"))}})
                  .ok());
  EXPECT_EQ(*store().GetString("b1"), "x");
  EXPECT_EQ(*store().GetString("b2"), "y");
}

TEST_P(KvConformanceTest, GetIfChangedRevalidates) {
  (void)store().PutString("key", "version-1");
  auto first = store().GetIfChanged("key", "");
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->not_modified);
  ASSERT_NE(first->value, nullptr);
  EXPECT_FALSE(first->etag.empty());

  // Same version: revalidation confirms without a body.
  auto second = store().GetIfChanged("key", first->etag);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->not_modified);

  // New version: full value returned with a new etag.
  (void)store().PutString("key", "version-2");
  auto third = store().GetIfChanged("key", first->etag);
  ASSERT_TRUE(third.ok());
  EXPECT_FALSE(third->not_modified);
  EXPECT_EQ(ToString(*third->value), "version-2");
  EXPECT_NE(third->etag, first->etag);
}

INSTANTIATE_TEST_SUITE_P(
    AllStores, KvConformanceTest,
    ::testing::Values(
        Param{"memory", &MakeMemoryFixture, true},
        Param{"file", &MakeFileFixture, true},
        Param{"lsm", &MakeLsmFixture, true},
        Param{"sql", &MakeSqlFixture, true},
        Param{"cloud", &MakeCloudFixture, true},
        Param{"rediscache", &MakeRemoteCacheFixture, true},
        Param{"memory_fault0", &MakeFaultWrappedFixture<&MakeMemoryFixture>,
              true},
        Param{"file_fault0", &MakeFaultWrappedFixture<&MakeFileFixture>, true},
        Param{"lsm_fault0", &MakeFaultWrappedFixture<&MakeLsmFixture>, true},
        Param{"sql_fault0", &MakeFaultWrappedFixture<&MakeSqlFixture>, true},
        Param{"cloud_fault0", &MakeFaultWrappedFixture<&MakeCloudFixture>,
              true},
        Param{"rediscache_fault0",
              &MakeFaultWrappedFixture<&MakeRemoteCacheFixture>, true},
        Param{"shard1", &MakeShardedMemoryFixture<1>, true},
        Param{"shard3", &MakeShardedMemoryFixture<3>, true},
        Param{"shard8", &MakeShardedMemoryFixture<8>, true},
        Param{"shard_mirror", &MakeShardedMirroredFixture, true},
        Param{"shard3_lsm", &MakeShardedLsmFixture, true},
        Param{"shard3_fault0",
              &MakeFaultWrappedFixture<&MakeShardedMemoryFixture<3>>, true},
        Param{"replicated3", &MakeReplicated3Fixture, true},
        Param{"replicated3_fault0",
              &MakeFaultWrappedFixture<&MakeReplicated3Fixture>, true},
        Param{"shard3_replicated", &MakeShardedReplicatedFixture, true},
        Param{"memory_admit", &MakeAdmitWrappedFixture<&MakeMemoryFixture>,
              true},
        Param{"cloud_admit", &MakeAdmitWrappedFixture<&MakeCloudFixture>,
              true},
        Param{"shard3_admit",
              &MakeAdmitWrappedFixture<&MakeShardedMemoryFixture<3>>, true},
        Param{"cloud_chain", &MakeCloudChainFixture, true}),
    [](const ::testing::TestParamInfo<Param>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace dstore
