#ifndef DSTORE_NET_HTTP_H_
#define DSTORE_NET_HTTP_H_

#include <map>
#include <string>

#include "common/bytes.h"
#include "common/status.h"
#include "net/socket.h"

namespace dstore {

// Minimal HTTP/1.1 with keep-alive and Content-Length framing — enough to
// implement a REST object store like the cloud services the paper measures.
// Header names are case-insensitive (stored lowercase).

struct HttpRequest {
  std::string method;  // GET, PUT, DELETE, HEAD, POST
  std::string path;
  std::map<std::string, std::string> headers;
  Bytes body;
};

struct HttpResponse {
  int status_code = 200;
  std::string reason = "OK";
  std::map<std::string, std::string> headers;
  Bytes body;
};

// --- Incremental (non-blocking) parsing -------------------------------------
//
// The async server core (net/async_server.h) receives bytes in arbitrary
// fragments and may hold several pipelined requests in one buffer, so it
// needs a parser that consumes exactly one request from the front of a
// buffer and reports "not enough bytes yet" without blocking.

enum class HttpParseOutcome {
  kNeedMore,  // the buffer holds only a prefix of a request
  kParsed,    // one full request was consumed (*consumed bytes)
  kError,     // the bytes cannot be the start of a valid request
};

// Attempts to parse one complete HTTP/1.1 request from data[0..size). On
// kParsed fills `*out` and sets `*consumed` to the bytes eaten (the caller
// drops them and may immediately re-parse the remainder — pipelining). On
// kError `*error` (when non-null) describes the problem. Header block is
// capped at 64 KiB and bodies at kMaxFrameBytes, mirroring the blocking
// reader's limits.
HttpParseOutcome ParseHttpRequest(const uint8_t* data, size_t size,
                                  HttpRequest* out, size_t* consumed,
                                  std::string* error = nullptr);

// Serializes status line + headers (adding content-length when absent) +
// body. The inverse of HttpConnection::ReadResponse. The result reuses the
// body's buffer, with the head inserted in front: a body built with spare
// capacity for the head is serialized without a second buffer.
Bytes SerializeHttpResponse(HttpResponse response);

// Serializes a request the same way (used by pipelining tests and clients
// that batch several requests into one write).
void SerializeHttpRequest(const HttpRequest& request, Bytes* out);

// Buffered reader/writer for one HTTP connection. Not thread-safe; callers
// serialize access (one in-flight request per connection, as HTTP/1.1
// without pipelining).
class HttpConnection {
 public:
  explicit HttpConnection(Socket socket) : socket_(std::move(socket)) {}

  bool valid() const { return socket_.valid(); }
  void Close() { socket_.Close(); }

  Status WriteRequest(const HttpRequest& request);
  StatusOr<HttpRequest> ReadRequest();

  Status WriteResponse(const HttpResponse& response);
  StatusOr<HttpResponse> ReadResponse();

  // Streaming alternative to ReadResponse: reads the status line and
  // headers only and sets `*body_length` from content-length (0 when
  // absent). The caller then consumes exactly that many bytes with
  // ReadExact — straight into the buffers it will keep — or closes the
  // connection.
  StatusOr<HttpResponse> ReadResponseHead(size_t* body_length);
  // Reads exactly n bytes using the buffer first. Small reads refill the
  // lookahead buffer rather than issue one recv each.
  Status ReadExact(uint8_t* out, size_t n);

 private:
  // Reads a CRLF-terminated line (without the CRLF).
  StatusOr<std::string> ReadLine();
  // Replaces the drained lookahead buffer with up to 4 KiB from the socket.
  Status FillBuffer(const char* what);
  // Parses "Name: value" headers until the blank line.
  Status ReadHeaders(std::map<std::string, std::string>* headers);

  Socket socket_;
  Bytes buffer_;
  size_t buffer_pos_ = 0;
};

}  // namespace dstore

#endif  // DSTORE_NET_HTTP_H_
