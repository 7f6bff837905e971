#ifndef DSTORE_STORE_CLOUD_CLIENT_H_
#define DSTORE_STORE_CLOUD_CLIENT_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/sync.h"
#include "net/http.h"
#include "store/key_value.h"

namespace dstore {

// KeyValueStore client for a CloudStoreServer (or any store speaking the
// same REST surface). Maintains one keep-alive HTTP connection, used
// serially under a lock; reconnects once on failure. Overrides GetIfChanged
// with a true conditional GET (If-None-Match -> 304), so revalidating an
// unmodified object transfers no body — the bandwidth saving of the paper's
// Fig. 7 protocol.
//
// Deadline-aware (src/admit/): when an ambient admit::Deadline is active,
// an already-expired budget fails with TimedOut before any bytes are sent,
// and the remaining budget is forwarded as the x-dstore-deadline-ms header
// so the server can shed or abandon the request on its side. Overload
// answers map to distinct statuses: HTTP 503 -> Overloaded, 504 ->
// TimedOut — never anything resembling a data-plane result.
//
// MultiGet sends the whole batch as one POST /objects:batch round trip (wire
// format in cloud_server.h). A 503/504 answer, a lost connection or a
// malformed batch body fails every key of the batch alike.
class CloudStoreClient : public KeyValueStore {
 public:
  static StatusOr<std::unique_ptr<CloudStoreClient>> Connect(
      const std::string& host, uint16_t port, std::string name = "cloud");

  Status Put(const std::string& key, ValuePtr value) override;
  StatusOr<ValuePtr> Get(const std::string& key) override;
  Status Delete(const std::string& key) override;
  StatusOr<bool> Contains(const std::string& key) override;
  StatusOr<std::vector<std::string>> ListKeys() override;
  StatusOr<size_t> Count() override;
  Status Clear() override;
  StatusOr<ConditionalGetResult> GetIfChanged(const std::string& key,
                                              const std::string& etag) override;
  std::vector<StatusOr<ValuePtr>> MultiGet(
      const std::vector<std::string>& keys) override;
  std::string Name() const override { return name_; }

  // --- Replication verbs (the /replica/* routes of cloud_server.h) ---
  // These carry primitives rather than replica/ types so the store layer
  // stays below src/replica/ in the dependency graph.

  // Applies one replication log entry under `epoch`; `value` may be null
  // for delete/clear. A stale epoch (HTTP 412) surfaces as Unavailable
  // with a "fenced:" message prefix — the marker replica::IsFenced keys on.
  Status ReplicaApply(const std::string& op, const std::string& key,
                      const Bytes* value, uint64_t seq, uint64_t epoch);
  // Raises the replica's accepted epoch and caps its applied watermark.
  Status ReplicaFence(uint64_t epoch, uint64_t max_applied);
  // {accepted epoch, applied watermark}.
  StatusOr<std::pair<uint64_t, uint64_t>> ReplicaStatus();

  // Etag of the last Put, for callers that track versions.
  std::string last_put_etag() const;

 private:
  CloudStoreClient(std::string host, uint16_t port, std::string name)
      : host_(std::move(host)), port_(port), name_(std::move(name)) {}

  static std::string ObjectPath(const std::string& key);
  // Performs one request with reconnect-once semantics; checks the ambient
  // deadline first and attaches its remaining budget as a header. With
  // `streamed_body` set, reads only the response head and stores the body
  // length there; the caller then reads the body off conn_.
  StatusOr<HttpResponse> RoundTrip(HttpRequest& request,
                                   size_t* streamed_body = nullptr)
      REQUIRES(mu_);
  // Reads a /objects:batch body of `length` bytes answering `keys` keys
  // (format in cloud_server.h). Corruption, never a partial answer, when
  // the body does not parse; the connection is then closed.
  StatusOr<std::vector<StatusOr<ValuePtr>>> ReadBatchBody(size_t keys,
                                                          size_t length)
      REQUIRES(mu_);
  // Discards a streamed body of `length` bytes (an error answer's).
  Status SkipBody(size_t length) REQUIRES(mu_);
  Status EnsureConnected() REQUIRES(mu_);

  std::string host_;
  uint16_t port_;
  std::string name_;
  mutable Mutex mu_;
  std::optional<HttpConnection> conn_ GUARDED_BY(mu_);
  std::string last_put_etag_ GUARDED_BY(mu_);
};

}  // namespace dstore

#endif  // DSTORE_STORE_CLOUD_CLIENT_H_
