#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "admit/admit_store.h"
#include "admit/deadline.h"
#include "cache/expiring_cache.h"
#include "cache/lru_cache.h"
#include "common/clock.h"
#include "common/sync.h"
#include "dscl/enhanced_store.h"
#include "net/async_server.h"
#include "net/latency_model.h"
#include "obs/metrics.h"
#include "shard/sharded_store.h"
#include "store/cloud_client.h"
#include "store/cloud_server.h"
#include "store/forwarding_store.h"
#include "store/memory_store.h"
#include "store/remote_cache.h"
#include "store/resilient_store.h"

namespace dstore {
namespace {

TEST(BatchOpsTest, DefaultMultiGetLoopsOverGet) {
  MemoryStore store;
  ASSERT_TRUE(store.PutString("a", "1").ok());
  ASSERT_TRUE(store.PutString("c", "3").ok());
  auto results = store.MultiGet({"a", "b", "c"});
  ASSERT_EQ(results.size(), 3u);
  ASSERT_TRUE(results[0].ok());
  EXPECT_EQ(ToString(**results[0]), "1");
  EXPECT_TRUE(results[1].status().IsNotFound());
  ASSERT_TRUE(results[2].ok());
  EXPECT_EQ(ToString(**results[2]), "3");
}

TEST(BatchOpsTest, DefaultMultiPutAppliesAll) {
  MemoryStore store;
  ASSERT_TRUE(store
                  .MultiPut({{"x", MakeValue(std::string_view("1"))},
                             {"y", MakeValue(std::string_view("2"))}})
                  .ok());
  EXPECT_EQ(*store.GetString("x"), "1");
  EXPECT_EQ(*store.GetString("y"), "2");
}

class RemoteBatchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto server =
        RemoteCacheServer::Start(std::make_unique<LruCache>(64u << 20));
    ASSERT_TRUE(server.ok());
    server_ = *std::move(server);
    auto conn = RemoteCacheConnection::Connect("127.0.0.1", server_->port());
    ASSERT_TRUE(conn.ok());
    conn_ = *conn;
    store_ = std::make_unique<RemoteCacheStore>(conn_);
  }
  void TearDown() override { server_->Stop(); }

  std::unique_ptr<RemoteCacheServer> server_;
  std::shared_ptr<RemoteCacheConnection> conn_;
  std::unique_ptr<RemoteCacheStore> store_;
};

TEST_F(RemoteBatchTest, MultiPutThenMultiGetOverTheWire) {
  std::vector<std::pair<std::string, ValuePtr>> entries;
  for (int i = 0; i < 20; ++i) {
    entries.emplace_back("k" + std::to_string(i),
                         MakeValue("v" + std::to_string(i)));
  }
  ASSERT_TRUE(store_->MultiPut(entries).ok());

  std::vector<std::string> keys;
  for (int i = 0; i < 20; ++i) keys.push_back("k" + std::to_string(i));
  keys.push_back("missing");
  auto results = store_->MultiGet(keys);
  ASSERT_EQ(results.size(), 21u);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(results[i].ok()) << i;
    EXPECT_EQ(ToString(**results[i]), "v" + std::to_string(i));
  }
  EXPECT_TRUE(results[20].status().IsNotFound());
}

TEST_F(RemoteBatchTest, EmptyBatchesAreFine) {
  EXPECT_TRUE(store_->MultiPut({}).ok());
  EXPECT_TRUE(store_->MultiGet({}).empty());
}

TEST_F(RemoteBatchTest, MultiPutRejectsNullValue) {
  EXPECT_TRUE(store_->MultiPut({{"k", nullptr}}).IsInvalidArgument());
}

TEST_F(RemoteBatchTest, LargeValuesInBatch) {
  Bytes big(500000, 0x42);
  ASSERT_TRUE(store_
                  ->MultiPut({{"big1", MakeValue(Bytes(big))},
                              {"big2", MakeValue(Bytes(big))}})
                  .ok());
  auto results = store_->MultiGet({"big1", "big2"});
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(**results[0], big);
  EXPECT_EQ(**results[1], big);
}

// ------------------------------------------------- cloud /objects:batch

// Sum of dstore_cloud_requests_total over the methods the client uses.
uint64_t CloudRequests() {
  uint64_t total = 0;
  for (const char* method : {"GET", "POST", "PUT", "HEAD", "DELETE"}) {
    total += obs::MetricsRegistry::Default()
                 ->GetCounter("dstore_cloud_requests_total",
                              {{"method", method}})
                 ->Value();
  }
  return total;
}

class CloudBatchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto server = CloudStoreServer::Start(std::make_unique<NoLatency>());
    ASSERT_TRUE(server.ok());
    server_ = *std::move(server);
    auto client = CloudStoreClient::Connect("127.0.0.1", server_->port());
    ASSERT_TRUE(client.ok());
    client_ = *std::move(client);
  }
  void TearDown() override { server_->Stop(); }

  std::unique_ptr<CloudStoreServer> server_;
  std::unique_ptr<CloudStoreClient> client_;
};

TEST_F(CloudBatchTest, AnswersInRequestOrderWithMissingKeys) {
  ASSERT_TRUE(client_->PutString("a", "1").ok());
  ASSERT_TRUE(client_->PutString("c", "3").ok());
  ASSERT_TRUE(client_->Put("empty", MakeValue(Bytes{})).ok());
  const uint64_t before = CloudRequests();
  auto results = client_->MultiGet({"missing", "a", "b", "c", "empty"});
  EXPECT_EQ(CloudRequests() - before, 1u);  // one round trip
  ASSERT_EQ(results.size(), 5u);
  EXPECT_TRUE(results[0].status().IsNotFound());
  ASSERT_TRUE(results[1].ok());
  EXPECT_EQ(ToString(**results[1]), "1");
  EXPECT_TRUE(results[2].status().IsNotFound());
  ASSERT_TRUE(results[3].ok());
  EXPECT_EQ(ToString(**results[3]), "3");
  ASSERT_TRUE(results[4].ok());
  EXPECT_TRUE((*results[4])->empty());
}

TEST_F(CloudBatchTest, EmptyBatchSendsNothing) {
  const uint64_t before = CloudRequests();
  EXPECT_TRUE(client_->MultiGet({}).empty());
  EXPECT_EQ(CloudRequests(), before);
}

TEST_F(CloudBatchTest, DuplicateKeysAnswerEverySlot) {
  ASSERT_TRUE(client_->PutString("k", "v").ok());
  auto results = client_->MultiGet({"k", "x", "k", "k", "x"});
  ASSERT_EQ(results.size(), 5u);
  for (size_t i : {0u, 2u, 3u}) {
    ASSERT_TRUE(results[i].ok()) << i;
    EXPECT_EQ(ToString(**results[i]), "v");
  }
  EXPECT_TRUE(results[1].status().IsNotFound());
  EXPECT_TRUE(results[4].status().IsNotFound());
}

TEST_F(CloudBatchTest, MegabyteValuesAndAwkwardKeys) {
  const Bytes big(1u << 20, 0x5a);
  Bytes other(1u << 20);
  for (size_t i = 0; i < other.size(); ++i) {
    other[i] = static_cast<uint8_t>(i * 31);
  }
  const std::string odd_key = std::string("nul\0\nkey", 8);
  ASSERT_TRUE(client_->Put("big", MakeValue(Bytes(big))).ok());
  ASSERT_TRUE(client_->Put(odd_key, MakeValue(Bytes(other))).ok());
  auto results = client_->MultiGet({"big", "gap", odd_key});
  ASSERT_EQ(results.size(), 3u);
  ASSERT_TRUE(results[0].ok());
  EXPECT_EQ(**results[0], big);
  EXPECT_TRUE(results[1].status().IsNotFound());
  ASSERT_TRUE(results[2].ok());
  EXPECT_EQ(**results[2], other);
}

// An HTTP server that answers every request with a scripted response and
// remembers the last request — for overload answers and malformed bodies a
// real CloudStoreServer never produces.
class ScriptedServer {
 public:
  ScriptedServer() {
    server_ = MakeHttpServer([this](const HttpRequest& request) {
      MutexLock lock(mu_);
      last_request_ = request;
      return response_;
    });
    EXPECT_TRUE(server_->Start(0).ok());
  }
  ~ScriptedServer() { server_->Stop(); }

  void Answer(int code, Bytes body = {}) {
    MutexLock lock(mu_);
    response_ = HttpResponse();
    response_.status_code = code;
    response_.reason = "Scripted";
    response_.body = std::move(body);
  }
  HttpRequest last_request() const {
    MutexLock lock(mu_);
    return last_request_;
  }
  uint16_t port() const { return server_->port(); }

 private:
  std::unique_ptr<Server> server_;
  mutable Mutex mu_;
  HttpResponse response_ GUARDED_BY(mu_);
  HttpRequest last_request_ GUARDED_BY(mu_);
};

class ScriptedBatchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto client = CloudStoreClient::Connect("127.0.0.1", server_.port());
    ASSERT_TRUE(client.ok());
    client_ = *std::move(client);
  }

  ScriptedServer server_;
  std::unique_ptr<CloudStoreClient> client_;
};

TEST_F(ScriptedBatchTest, OverloadAnswersMapToEveryKey) {
  server_.Answer(503);
  for (const auto& result : client_->MultiGet({"a", "b", "c"})) {
    EXPECT_TRUE(result.status().IsOverloaded()) << result.status().ToString();
  }
  server_.Answer(504);
  for (const auto& result : client_->MultiGet({"a", "b"})) {
    EXPECT_TRUE(result.status().IsTimedOut()) << result.status().ToString();
  }
}

TEST_F(ScriptedBatchTest, SendsKeysAndDeadlineHeader) {
  server_.Answer(200, Bytes{0, 0});
  admit::ScopedDeadline scope(admit::Deadline::After(2'000'000'000));
  auto results = client_->MultiGet({"a", "b"});
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0].status().IsNotFound());
  const HttpRequest request = server_.last_request();
  EXPECT_EQ(request.method, "POST");
  EXPECT_EQ(request.path, "/objects:batch");
  EXPECT_EQ(ToString(request.body), "61\n62\n");  // hex keys, one per line
  auto it = request.headers.find("x-dstore-deadline-ms");
  ASSERT_NE(it, request.headers.end());
  const long long budget_ms = std::atoll(it->second.c_str());
  EXPECT_GT(budget_ms, 0);
  EXPECT_LE(budget_ms, 2000);
}

TEST_F(ScriptedBatchTest, MalformedBodiesAreCorruption) {
  const std::vector<Bytes> bodies = {
      Bytes{},                 // no answer for either key
      Bytes{1},                // flag without a length
      Bytes{1, 5, 'a', 'b'},   // value shorter than its length
      Bytes{1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
            0x01},             // length far beyond the body
      Bytes{7, 0},             // unknown flag
      Bytes{0, 0, 0},          // trailing bytes
      Bytes{0},                // one answer for two keys
  };
  for (const Bytes& body : bodies) {
    server_.Answer(200, body);
    auto results = client_->MultiGet({"a", "b"});
    ASSERT_EQ(results.size(), 2u);
    for (const auto& result : results) {
      EXPECT_TRUE(result.status().IsCorruption())
          << ToString(body) << ": " << result.status().ToString();
    }
  }
}

// ------------------------------------------ the client chain over the wire

// Records what GetIfChanged answered at the bottom of the chain.
class RecordingStore : public ForwardingStore {
 public:
  using ForwardingStore::ForwardingStore;

  StatusOr<ConditionalGetResult> GetIfChanged(
      const std::string& key, const std::string& etag) override {
    auto result = inner()->GetIfChanged(key, etag);
    MutexLock lock(mu_);
    answers_.push_back(result);
    return result;
  }

  std::vector<StatusOr<ConditionalGetResult>> answers() const {
    MutexLock lock(mu_);
    return answers_;
  }

 private:
  mutable Mutex mu_;
  std::vector<StatusOr<ConditionalGetResult>> answers_ GUARDED_BY(mu_);
};

// EnhancedStore -> admit -> breaker -> retry -> ShardedStore over one
// CloudStoreClient per server.
class CloudChainTest : public ::testing::Test {
 protected:
  void Build(int clients, int64_t ttl_nanos) {
    ShardedStore::ShardList shards;
    for (int i = 0; i < clients; ++i) {
      auto server = CloudStoreServer::Start(std::make_unique<NoLatency>());
      ASSERT_TRUE(server.ok());
      servers_.push_back(std::move(*server));
      auto client = CloudStoreClient::Connect(
          "127.0.0.1", servers_.back()->port(), "c" + std::to_string(i));
      ASSERT_TRUE(client.ok());
      recorders_.push_back(std::make_shared<RecordingStore>(
          std::shared_ptr<KeyValueStore>(std::move(*client))));
      shards.emplace_back("c" + std::to_string(i), recorders_.back());
    }
    sharded_ = std::make_shared<ShardedStore>(std::move(shards));
    auto chain = std::make_shared<admit::AdmittingStore>(
        std::make_shared<admit::CircuitBreakerStore>(
            std::make_shared<RetryingStore>(sharded_)));
    auto cache = std::make_shared<ExpiringCache>(
        std::make_unique<LruCache>(16u << 20), &clock_);
    EnhancedStore::Options options;
    options.cache_ttl_nanos = ttl_nanos;
    enhanced_ =
        std::make_shared<EnhancedStore>(chain, cache, nullptr, options);
  }
  void TearDown() override {
    enhanced_.reset();
    sharded_.reset();
    for (auto& server : servers_) server->Stop();
  }

  SimulatedClock clock_;
  std::vector<std::unique_ptr<CloudStoreServer>> servers_;
  std::vector<std::shared_ptr<RecordingStore>> recorders_;
  std::shared_ptr<ShardedStore> sharded_;
  std::shared_ptr<EnhancedStore> enhanced_;
};

TEST_F(CloudChainTest, ColdBatchCostsOneRoundTripPerShard) {
  Build(4, 0);
  std::vector<std::string> keys;
  for (int i = 0; i < 16; ++i) {
    keys.push_back("key" + std::to_string(i));
    ASSERT_TRUE(sharded_->PutString(keys.back(), "v" + std::to_string(i)).ok());
  }
  const uint64_t before = CloudRequests();
  auto results = enhanced_->MultiGet(keys);
  EXPECT_LE(CloudRequests() - before, 4u);
  ASSERT_EQ(results.size(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << results[i].status().ToString();
    EXPECT_EQ(ToString(**results[i]), "v" + std::to_string(i));
  }
  EXPECT_EQ(enhanced_->Stats().cache_misses, 16u);
  // Warm: every key is a cache hit and nothing crosses the wire.
  const uint64_t warm = CloudRequests();
  ASSERT_EQ(enhanced_->MultiGet(keys).size(), keys.size());
  EXPECT_EQ(CloudRequests(), warm);
  EXPECT_EQ(enhanced_->Stats().cache_hits, 16u);
}

TEST_F(CloudChainTest, ExpiredEntryRevalidatesWith304) {
  Build(3, 1'000'000'000);  // 1 s TTL
  ASSERT_TRUE(enhanced_->PutString("doc", "unchanged body").ok());
  clock_.Advance(2'000'000'000);  // the cached entry expires

  auto got = enhanced_->GetString("doc");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, "unchanged body");
  const EnhancedStoreStats stats = enhanced_->Stats();
  EXPECT_EQ(stats.revalidations, 1u);
  EXPECT_EQ(stats.revalidations_saved, 1u);
  EXPECT_EQ(stats.cache_misses, 0u);

  // The conditional read reached the owning client and came back 304
  // without a body.
  size_t answers = 0;
  for (const auto& recorder : recorders_) {
    for (const auto& answer : recorder->answers()) {
      ++answers;
      ASSERT_TRUE(answer.ok()) << answer.status().ToString();
      EXPECT_TRUE(answer->not_modified);
      EXPECT_EQ(answer->value, nullptr);
      EXPECT_FALSE(answer->etag.empty());
    }
  }
  EXPECT_EQ(answers, 1u);
}

}  // namespace
}  // namespace dstore
