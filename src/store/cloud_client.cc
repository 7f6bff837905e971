#include "store/cloud_client.h"

#include <cstdlib>

#include "admit/deadline.h"
#include "obs/trace.h"

namespace dstore {

namespace {

// Maps a non-2xx data-plane answer to its status: the server's admission
// layer speaks 503 (shed -> Overloaded) and 504 (budget exhausted ->
// TimedOut); anything else unexpected stays IOError.
Status HttpError(const std::string& what, int code) {
  if (code == 503) {
    return Status::Overloaded(what + " shed by server: HTTP 503");
  }
  if (code == 504) {
    return Status::TimedOut(what + " exceeded deadline: HTTP 504");
  }
  return Status::IOError(what + " failed: HTTP " + std::to_string(code));
}

}  // namespace

StatusOr<std::unique_ptr<CloudStoreClient>> CloudStoreClient::Connect(
    const std::string& host, uint16_t port, std::string name) {
  auto client = std::unique_ptr<CloudStoreClient>(
      new CloudStoreClient(host, port, std::move(name)));
  MutexLock lock(client->mu_);
  DSTORE_RETURN_IF_ERROR(client->EnsureConnected());
  return client;
}

std::string CloudStoreClient::ObjectPath(const std::string& key) {
  return "/objects/" + HexEncode(ToBytes(key));
}

Status CloudStoreClient::EnsureConnected() {
  if (conn_.has_value() && conn_->valid()) return Status::OK();
  DSTORE_ASSIGN_OR_RETURN(Socket socket, Socket::ConnectTcp(host_, port_));
  conn_.emplace(std::move(socket));
  return Status::OK();
}

StatusOr<HttpResponse> CloudStoreClient::RoundTrip(HttpRequest& request,
                                                   size_t* streamed_body) {
  obs::Span span("http.roundtrip", obs::Stage::kNetwork);
  span.SetAttribute("method", request.method);
  span.SetAttribute("path", request.path);
  // Propagate the trace identity so the server's spans join this trace.
  const obs::TraceContext trace_ctx = obs::CurrentTraceContext();
  if (trace_ctx.valid() && trace_ctx.sampled) {
    request.headers[obs::kTraceHeaderName] = trace_ctx.ToHeader();
  }
  const admit::Deadline deadline = admit::CurrentDeadline();
  if (deadline.has_deadline()) {
    const int64_t remaining = deadline.remaining_nanos();
    if (remaining <= 0) {
      return Status::TimedOut("deadline expired before " + request.method +
                              " round trip to " + name_);
    }
    // Propagate the remaining budget (rounded up, so a live sub-ms budget
    // never reads as zero on the wire).
    request.headers["x-dstore-deadline-ms"] =
        std::to_string((remaining + 999'999) / 1'000'000);
  }
  for (int attempt = 0; attempt < 2; ++attempt) {
    DSTORE_RETURN_IF_ERROR(EnsureConnected());
    if (!conn_->WriteRequest(request).ok()) {
      conn_->Close();
      continue;
    }
    auto response = streamed_body == nullptr
                        ? conn_->ReadResponse()
                        : conn_->ReadResponseHead(streamed_body);
    if (!response.ok()) {
      conn_->Close();
      continue;
    }
    span.SetAttribute("http.status", std::to_string(response->status_code));
    span.SetAttribute("bytes", std::to_string(streamed_body == nullptr
                                                  ? response->body.size()
                                                  : *streamed_body));
    if (response->status_code >= 500) span.MarkError();
    return response;
  }
  span.MarkError();
  return Status::Unavailable("cloud store connection failed");
}

Status CloudStoreClient::Put(const std::string& key, ValuePtr value) {
  if (value == nullptr) return Status::InvalidArgument("null value");
  HttpRequest request;
  request.method = "PUT";
  request.path = ObjectPath(key);
  request.body = *value;
  MutexLock lock(mu_);
  DSTORE_ASSIGN_OR_RETURN(HttpResponse response, RoundTrip(request));
  if (response.status_code != 200) {
    return HttpError("cloud PUT", response.status_code);
  }
  auto it = response.headers.find("etag");
  if (it != response.headers.end()) last_put_etag_ = it->second;
  return Status::OK();
}

StatusOr<ValuePtr> CloudStoreClient::Get(const std::string& key) {
  HttpRequest request;
  request.method = "GET";
  request.path = ObjectPath(key);
  MutexLock lock(mu_);
  DSTORE_ASSIGN_OR_RETURN(HttpResponse response, RoundTrip(request));
  if (response.status_code == 404) return Status::NotFound("no such key");
  if (response.status_code != 200) {
    return HttpError("cloud GET", response.status_code);
  }
  return MakeValue(std::move(response.body));
}

StatusOr<ConditionalGetResult> CloudStoreClient::GetIfChanged(
    const std::string& key, const std::string& etag) {
  HttpRequest request;
  request.method = "GET";
  request.path = ObjectPath(key);
  if (!etag.empty()) request.headers["if-none-match"] = etag;
  MutexLock lock(mu_);
  DSTORE_ASSIGN_OR_RETURN(HttpResponse response, RoundTrip(request));
  if (response.status_code == 404) return Status::NotFound("no such key");
  ConditionalGetResult result;
  auto it = response.headers.find("etag");
  if (it != response.headers.end()) result.etag = it->second;
  if (response.status_code == 304) {
    result.not_modified = true;
    return result;
  }
  if (response.status_code != 200) {
    return HttpError("cloud conditional GET", response.status_code);
  }
  result.value = MakeValue(std::move(response.body));
  return result;
}

std::vector<StatusOr<ValuePtr>> CloudStoreClient::MultiGet(
    const std::vector<std::string>& keys) {
  if (keys.empty()) return {};
  HttpRequest request;
  request.method = "POST";
  request.path = "/objects:batch";
  for (const std::string& key : keys) {
    const std::string hexkey = HexEncode(ToBytes(key));
    request.body.insert(request.body.end(), hexkey.begin(), hexkey.end());
    request.body.push_back('\n');
  }
  MutexLock lock(mu_);
  size_t body_length = 0;
  auto response = RoundTrip(request, &body_length);
  if (!response.ok()) {
    return std::vector<StatusOr<ValuePtr>>(keys.size(), response.status());
  }
  if (response->status_code != 200) {
    const Status skipped = SkipBody(body_length);
    return std::vector<StatusOr<ValuePtr>>(
        keys.size(), skipped.ok() ? HttpError("cloud batch GET",
                                              response->status_code)
                                  : skipped);
  }
  auto results = ReadBatchBody(keys.size(), body_length);
  if (!results.ok()) {
    return std::vector<StatusOr<ValuePtr>>(keys.size(), results.status());
  }
  return *std::move(results);
}

Status CloudStoreClient::SkipBody(size_t length) {
  Bytes discard(length);
  const Status status = conn_->ReadExact(discard.data(), length);
  if (!status.ok()) conn_->Close();
  return status;
}

StatusOr<std::vector<StatusOr<ValuePtr>>> CloudStoreClient::ReadBatchBody(
    size_t keys, size_t length) {
  std::vector<StatusOr<ValuePtr>> results;
  results.reserve(keys);
  size_t remaining = length;
  auto read = [&](uint8_t* out, size_t n) -> Status {
    if (n > remaining) return Status::Corruption("cloud batch body truncated");
    remaining -= n;
    return conn_->ReadExact(out, n);
  };
  Status status;
  for (size_t i = 0; i < keys; ++i) {
    uint8_t flag = 0;
    status = read(&flag, 1);
    if (!status.ok()) break;
    if (flag == 0) {
      results.emplace_back(Status::NotFound("no such key"));
      continue;
    }
    if (flag != 1) {
      status = Status::Corruption("cloud batch body: bad flag");
      break;
    }
    uint64_t value_length = 0;
    uint8_t byte = 0x80;
    for (int shift = 0; status.ok() && (byte & 0x80) != 0; shift += 7) {
      status = shift > 63 ? Status::Corruption("cloud batch: bad varint")
                          : read(&byte, 1);
      value_length |= static_cast<uint64_t>(byte & 0x7f) << shift;
    }
    if (!status.ok()) break;
    if (value_length > remaining) {
      status = Status::Corruption("cloud batch value overruns the body");
      break;
    }
    // Each value is read straight into its own buffer: no batch-sized
    // body is ever held.
    Bytes value(value_length);
    status = read(value.data(), value.size());
    if (!status.ok()) break;
    results.emplace_back(MakeValue(std::move(value)));
  }
  if (status.ok() && remaining != 0) {
    status = Status::Corruption("cloud batch body has trailing bytes");
  }
  if (!status.ok()) {
    // The body is partly unread: the connection is out of step.
    conn_->Close();
    return status;
  }
  return results;
}

Status CloudStoreClient::Delete(const std::string& key) {
  HttpRequest request;
  request.method = "DELETE";
  request.path = ObjectPath(key);
  MutexLock lock(mu_);
  DSTORE_ASSIGN_OR_RETURN(HttpResponse response, RoundTrip(request));
  if (response.status_code != 200) {
    return HttpError("cloud DELETE", response.status_code);
  }
  return Status::OK();
}

StatusOr<bool> CloudStoreClient::Contains(const std::string& key) {
  HttpRequest request;
  request.method = "HEAD";
  request.path = ObjectPath(key);
  MutexLock lock(mu_);
  DSTORE_ASSIGN_OR_RETURN(HttpResponse response, RoundTrip(request));
  if (response.status_code == 200) return true;
  if (response.status_code == 404) return false;
  return HttpError("cloud HEAD", response.status_code);
}

StatusOr<std::vector<std::string>> CloudStoreClient::ListKeys() {
  HttpRequest request;
  request.method = "GET";
  request.path = "/keys";
  MutexLock lock(mu_);
  DSTORE_ASSIGN_OR_RETURN(HttpResponse response, RoundTrip(request));
  if (response.status_code != 200) {
    return HttpError("cloud /keys", response.status_code);
  }
  std::vector<std::string> keys;
  std::string line;
  for (uint8_t b : response.body) {
    if (b == '\n') {
      auto decoded = HexDecode(line);
      if (decoded.ok()) keys.push_back(ToString(*decoded));
      line.clear();
    } else {
      line.push_back(static_cast<char>(b));
    }
  }
  return keys;
}

StatusOr<size_t> CloudStoreClient::Count() {
  HttpRequest request;
  request.method = "GET";
  request.path = "/count";
  MutexLock lock(mu_);
  DSTORE_ASSIGN_OR_RETURN(HttpResponse response, RoundTrip(request));
  if (response.status_code != 200) {
    return HttpError("cloud /count", response.status_code);
  }
  return static_cast<size_t>(std::atoll(ToString(response.body).c_str()));
}

Status CloudStoreClient::Clear() {
  HttpRequest request;
  request.method = "POST";
  request.path = "/clear";
  MutexLock lock(mu_);
  DSTORE_ASSIGN_OR_RETURN(HttpResponse response, RoundTrip(request));
  if (response.status_code != 200) {
    return HttpError("cloud /clear", response.status_code);
  }
  return Status::OK();
}

Status CloudStoreClient::ReplicaApply(const std::string& op,
                                      const std::string& key,
                                      const Bytes* value, uint64_t seq,
                                      uint64_t epoch) {
  HttpRequest request;
  request.method = "POST";
  request.path = "/replica/apply";
  request.headers["x-dstore-replica-op"] = op;
  request.headers["x-dstore-replica-key"] = HexEncode(ToBytes(key));
  request.headers["x-dstore-replica-seq"] = std::to_string(seq);
  request.headers["x-dstore-replica-epoch"] = std::to_string(epoch);
  if (value != nullptr) request.body = *value;
  MutexLock lock(mu_);
  DSTORE_ASSIGN_OR_RETURN(HttpResponse response, RoundTrip(request));
  if (response.status_code == 412) {
    // The "fenced:" prefix is the contract replica::IsFenced matches; keep
    // them in sync.
    auto it = response.headers.find("x-dstore-replica-epoch");
    return Status::Unavailable(
        "fenced: write epoch " + std::to_string(epoch) +
        " superseded by epoch " +
        (it == response.headers.end() ? "?" : it->second));
  }
  if (response.status_code != 200) {
    return HttpError("replica apply", response.status_code);
  }
  return Status::OK();
}

Status CloudStoreClient::ReplicaFence(uint64_t epoch, uint64_t max_applied) {
  HttpRequest request;
  request.method = "POST";
  request.path = "/replica/fence";
  request.headers["x-dstore-replica-epoch"] = std::to_string(epoch);
  request.headers["x-dstore-replica-applied"] = std::to_string(max_applied);
  MutexLock lock(mu_);
  DSTORE_ASSIGN_OR_RETURN(HttpResponse response, RoundTrip(request));
  if (response.status_code == 412) {
    // Same "fenced:" contract as ReplicaApply: our fencing epoch is itself
    // superseded, so this handle's leadership is gone.
    auto it = response.headers.find("x-dstore-replica-epoch");
    return Status::Unavailable(
        "fenced: fence epoch " + std::to_string(epoch) +
        " superseded by epoch " +
        (it == response.headers.end() ? "?" : it->second));
  }
  if (response.status_code != 200) {
    return HttpError("replica fence", response.status_code);
  }
  return Status::OK();
}

StatusOr<std::pair<uint64_t, uint64_t>> CloudStoreClient::ReplicaStatus() {
  HttpRequest request;
  request.method = "GET";
  request.path = "/replica/status";
  MutexLock lock(mu_);
  DSTORE_ASSIGN_OR_RETURN(HttpResponse response, RoundTrip(request));
  if (response.status_code != 200) {
    return HttpError("replica status", response.status_code);
  }
  const std::string body = ToString(response.body);
  char* end = nullptr;
  const uint64_t epoch = std::strtoull(body.c_str(), &end, 10);
  const uint64_t applied =
      end == nullptr ? 0 : std::strtoull(end, nullptr, 10);
  return std::make_pair(epoch, applied);
}

std::string CloudStoreClient::last_put_etag() const {
  MutexLock lock(mu_);
  return last_put_etag_;
}

}  // namespace dstore
