#ifndef MACROBENCH_STACK_H_
#define MACROBENCH_STACK_H_

// The two deployments under test, built from the program's public
// constructors. Both put the same client chain on top:
//
//   EnhancedStore (dscl: 16 MiB plaintext LRU, write-through, no TTL)
//     -> AdmittingStore (deadline gate only)
//     -> CircuitBreakerStore (defaults) -> RetryingStore (defaults)
//     -> ShardedStore
//
// replicated-lsm: the ShardedStore is replica::BuildReplicatedRing over 4
// groups on 3 nodes, RF 3, every member a LocalReplica over its own LsmStore
// (sync_writes on), and the transform chain is gzip -> AES-CBC.
// remote: the ShardedStore spans 4 CloudStoreClients (one connection each)
// to 2 in-process CloudStoreServers on the async core with NoLatency, and
// there is no transform chain.
//
// With a Tracer, every layer boundary gets a TimedStore / TimedTransformer.
// BuildReplicatedRing offers no hook between the ShardedStore and its
// ReplicatedStores, so the traced build reproduces its placement here (same
// ring options, same group names, same OwnersFor successor lists); the
// per-layer call-count self-test checks the two builds agree.

#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "admit/admit_store.h"
#include "compress/deflate.h"
#include "dscl/enhanced_store.h"
#include "shard/ring.h"
#include "shard/sharded_store.h"
#include "store/cloud_server.h"
#include "store/lsm/lsm_store.h"
#include "store/resilient_store.h"
#include "trace.h"

namespace macrobench {

struct StackConfig {
  std::string deployment;  // "replicated-lsm" or "remote"
  uint64_t seed = 1;
  uint32_t keys = 0;
  size_t value_min = 1024, value_max = 1024;
  size_t cache_bytes = 16u << 20;
  dstore::lsm::LsmOptions lsm;
};

// Fixed topology of the two deployments.
constexpr size_t kGroups = 4;             // replicated-lsm replica groups
constexpr size_t kNodes = 3;              // ... placed over this many nodes
constexpr size_t kReplicationFactor = 3;
constexpr size_t kServers = 2;            // remote: CloudStoreServers
constexpr size_t kClients = 4;            // ... and one-connection clients

struct Stack {
  ~Stack();

  // Declaration order is teardown order reversed: the chain goes first,
  // then the shards (joining replicators and closing the LSMs they own),
  // then the servers the clients talked to.
  std::vector<std::unique_ptr<dstore::CloudStoreServer>> servers;
  // Member stores by group name, in placement order.
  std::map<std::string, std::vector<std::shared_ptr<dstore::lsm::LsmStore>>>
      groups;
  std::map<std::string, std::filesystem::path> lsm_dirs;  // "group/node"
  std::shared_ptr<dstore::ShardedStore> sharded;
  std::shared_ptr<dstore::RetryingStore> retry;
  std::shared_ptr<dstore::EnhancedStore> enhanced;
  std::shared_ptr<dstore::KeyValueStore> top;

  // Traced builds only.
  std::vector<std::shared_ptr<TimedStore>> shard_children;  // one per shard
  TimedTransformer* compress = nullptr;  // owned by the chain
  TimedTransformer* crypto = nullptr;
};

// Opens the stores, builds the chain. `dir` must not exist yet for
// replicated-lsm (each LSM gets a fresh directory under it).
std::unique_ptr<Stack> BuildStack(const StackConfig& config,
                                  const std::filesystem::path& dir,
                                  Tracer* tracer, std::string* error);

// The chain EnhancedStore uses on replicated-lsm (null on remote): gzip at
// `level`, then AES-CBC under a fixed key, with spans when `tracer` is set.
// `compress`/`crypto` receive the wrappers.
std::shared_ptr<dstore::TransformChain> MakeChain(
    const StackConfig& config, Tracer* tracer, TimedTransformer** compress,
    TimedTransformer** crypto,
    dstore::DeflateLevel level = dstore::DeflateLevel::kDefault);

// The ring ShardedStore routes keys over (replicated-lsm): OwnerOf(key) is
// the owning replica group's name.
dstore::shard::HashRing GroupRing();

}  // namespace macrobench

#endif  // MACROBENCH_STACK_H_
