#include "stack.h"

#include <utility>

#include "cache/expiring_cache.h"
#include "cache/lru_cache.h"
#include "common/clock.h"
#include "compress/codec.h"
#include "crypto/cipher.h"
#include "net/latency_model.h"
#include "replica/placement.h"
#include "replica/replicated_store.h"
#include "store/cloud_client.h"

namespace macrobench {

using dstore::KeyValueStore;

namespace {

constexpr size_t kVnodes = 64;
constexpr uint64_t kRingSeed = 1;
const char kGroupPrefix[] = "group";

std::vector<std::string> NodeNames() {
  std::vector<std::string> nodes;
  for (size_t i = 0; i < kNodes; ++i) {
    nodes.push_back("n" + std::to_string(i));
  }
  return nodes;
}

template <typename T>
std::shared_ptr<KeyValueStore> Wrap(std::shared_ptr<T> inner, Tracer* tracer,
                                    Layer layer) {
  if (tracer == nullptr) return inner;
  return std::make_shared<TimedStore>(std::move(inner), tracer, layer);
}

// BuildReplicatedRing's placement with a span between the ShardedStore and
// each ReplicatedStore (see stack.h).
dstore::StatusOr<std::shared_ptr<dstore::ShardedStore>> BuildTracedRing(
    const dstore::replica::ReplicatedRingOptions& options, Tracer* tracer,
    Stack* stack) {
  dstore::shard::HashRing ring(options.ring);
  for (const auto& node : options.nodes) ring.AddShard(node);
  dstore::ShardedStore::ShardList shards;
  for (size_t g = 0; g < options.groups; ++g) {
    const std::string group_name =
        options.group.name + "-g" + std::to_string(g);
    std::vector<dstore::replica::ReplicatedStore::Backend> backends;
    for (const auto& node :
         ring.OwnersFor(group_name, options.replication_factor)) {
      backends.push_back({node, options.backend_factory(node, group_name)});
    }
    dstore::replica::ReplicaGroup::Options group_options = options.group;
    group_options.name = group_name;
    DSTORE_ASSIGN_OR_RETURN(auto group_store,
                            dstore::replica::ReplicatedStore::Create(
                                std::move(backends), std::move(group_options)));
    auto timed =
        std::make_shared<TimedStore>(std::move(group_store), tracer, kReplica);
    stack->shard_children.push_back(timed);
    shards.emplace_back(group_name, std::move(timed));
  }
  return std::make_shared<dstore::ShardedStore>(std::move(shards),
                                                options.shard);
}

bool BuildReplicated(const StackConfig& config,
                     const std::filesystem::path& dir, Tracer* tracer,
                     Stack* stack, std::string* error) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    *error = "cannot create " + dir.string() + ": " + ec.message();
    return false;
  }
  dstore::replica::ReplicatedRingOptions options;
  options.nodes = NodeNames();
  options.groups = kGroups;
  options.replication_factor = kReplicationFactor;
  options.group.name = kGroupPrefix;  // W=2, R=2, read repair, log in memory
  options.shard.vnodes_per_shard = kVnodes;
  options.shard.seed = kRingSeed;
  std::string open_error;
  options.backend_factory =
      [&](const std::string& node,
          const std::string& group) -> std::shared_ptr<KeyValueStore> {
    const std::filesystem::path path = dir / (group + "-" + node);
    auto opened = dstore::lsm::LsmStore::Open(path, config.lsm);
    if (!opened.ok()) {
      open_error = path.string() + ": " + opened.status().ToString();
      return nullptr;
    }
    std::shared_ptr<dstore::lsm::LsmStore> store = std::move(*opened);
    stack->groups[group].push_back(store);
    stack->lsm_dirs[group + "/" + node] = path;
    if (tracer == nullptr) return store;
    return std::make_shared<TimedStore>(store, tracer, kLsm);
  };
  auto built = tracer == nullptr
                   ? dstore::replica::BuildReplicatedRing(options)
                   : BuildTracedRing(options, tracer, stack);
  if (!built.ok()) {
    *error = open_error.empty() ? built.status().ToString() : open_error;
    return false;
  }
  stack->sharded = std::move(*built);
  return true;
}

bool BuildRemote(Tracer* tracer, Stack* stack, std::string* error) {
  for (size_t i = 0; i < kServers; ++i) {
    auto server = dstore::CloudStoreServer::Start(
        std::make_unique<dstore::NoLatency>(), 0, {},
        dstore::ServerCore::kAsync);
    if (!server.ok()) {
      *error = "cloud server: " + server.status().ToString();
      return false;
    }
    stack->servers.push_back(std::move(*server));
  }
  dstore::ShardedStore::ShardList shards;
  for (size_t i = 0; i < kClients; ++i) {
    const std::string name = "c" + std::to_string(i);
    auto client = dstore::CloudStoreClient::Connect(
        "127.0.0.1", stack->servers[i % kServers]->port(), name);
    if (!client.ok()) {
      *error = "cloud client: " + client.status().ToString();
      return false;
    }
    std::shared_ptr<KeyValueStore> store = std::move(*client);
    if (tracer != nullptr) {
      auto timed = std::make_shared<TimedStore>(store, tracer, kCloud);
      stack->shard_children.push_back(timed);
      store = timed;
    }
    shards.emplace_back(name, std::move(store));
  }
  dstore::ShardedStore::Options options;
  options.vnodes_per_shard = kVnodes;
  options.seed = kRingSeed;
  stack->sharded =
      std::make_shared<dstore::ShardedStore>(std::move(shards), options);
  return true;
}

}  // namespace

Stack::~Stack() {
  top.reset();
  enhanced.reset();
  retry.reset();
  sharded.reset();
  shard_children.clear();
  groups.clear();
  for (auto& server : servers) server->Stop();
}

std::shared_ptr<dstore::TransformChain> MakeChain(
    const StackConfig& config, Tracer* tracer, TimedTransformer** compress,
    TimedTransformer** crypto, dstore::DeflateLevel level) {
  if (config.deployment != "replicated-lsm") return nullptr;
  std::unique_ptr<dstore::ValueTransformer> gzip =
      std::make_unique<dstore::CompressionTransformer>(
          std::make_unique<dstore::GzipCodec>(level));
  dstore::Bytes key(16);
  for (size_t i = 0; i < key.size(); ++i) key[i] = static_cast<uint8_t>(i * 7 + 1);
  auto cipher = dstore::AesCbcCipher::Make(key);
  if (!cipher.ok()) return nullptr;
  std::unique_ptr<dstore::ValueTransformer> aes =
      std::make_unique<dstore::EncryptionTransformer>(std::move(*cipher));
  if (tracer != nullptr) {
    auto timed_gzip =
        std::make_unique<TimedTransformer>(std::move(gzip), tracer, kCompress);
    auto timed_aes =
        std::make_unique<TimedTransformer>(std::move(aes), tracer, kCrypto);
    if (compress != nullptr) *compress = timed_gzip.get();
    if (crypto != nullptr) *crypto = timed_aes.get();
    gzip = std::move(timed_gzip);
    aes = std::move(timed_aes);
  }
  auto chain = std::make_shared<dstore::TransformChain>();
  chain->Add(std::move(gzip));  // compress, then encrypt
  chain->Add(std::move(aes));
  return chain;
}

dstore::shard::HashRing GroupRing() {
  dstore::shard::HashRing ring(
      dstore::shard::HashRing::Options{kVnodes, kRingSeed});
  for (size_t g = 0; g < kGroups; ++g) {
    ring.AddShard(std::string(kGroupPrefix) + "-g" + std::to_string(g));
  }
  return ring;
}

std::unique_ptr<Stack> BuildStack(const StackConfig& config,
                                  const std::filesystem::path& dir,
                                  Tracer* tracer, std::string* error) {
  auto stack = std::make_unique<Stack>();
  const bool built = config.deployment == "replicated-lsm"
                         ? BuildReplicated(config, dir, tracer, stack.get(),
                                           error)
                         : BuildRemote(tracer, stack.get(), error);
  if (!built) return nullptr;

  std::shared_ptr<KeyValueStore> below = Wrap(stack->sharded, tracer, kShard);
  stack->retry = std::make_shared<dstore::RetryingStore>(below);
  below = Wrap(stack->retry, tracer, kRetry);
  below = Wrap(std::make_shared<dstore::admit::CircuitBreakerStore>(below),
               tracer, kBreaker);
  dstore::admit::AdmittingStore::Options admit;
  admit.enforce_deadline = true;  // no rate or concurrency limiter
  below = Wrap(std::make_shared<dstore::admit::AdmittingStore>(below, admit),
               tracer, kAdmit);

  auto cache = std::make_shared<dstore::ExpiringCache>(
      std::make_unique<dstore::LruCache>(config.cache_bytes),
      dstore::RealClock::Default());
  auto chain = MakeChain(config, tracer, &stack->compress, &stack->crypto);
  if (config.deployment == "replicated-lsm" && chain == nullptr) {
    *error = "cannot build the gzip -> AES transform chain";
    return nullptr;
  }
  dstore::EnhancedStore::Options options;  // write-through, no TTL, plaintext
  stack->enhanced =
      std::make_shared<dstore::EnhancedStore>(below, cache, chain, options);
  stack->top = Wrap(stack->enhanced, tracer, kDscl);
  return stack;
}

}  // namespace macrobench
