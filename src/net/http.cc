#include "net/http.h"

#include <sys/socket.h>

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <string_view>
#include <utility>

#include "net/framing.h"

namespace dstore {

namespace {

std::string ToLower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

std::string Trim(const std::string& s) {
  size_t begin = 0, end = s.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(s[begin]))) {
    ++begin;
  }
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1]))) {
    --end;
  }
  return s.substr(begin, end - begin);
}

void AppendHeaders(const std::map<std::string, std::string>& headers,
                   size_t body_size, std::string* out) {
  bool has_length = false;
  for (const auto& [name, value] : headers) {
    *out += name + ": " + value + "\r\n";
    if (ToLower(name) == "content-length") has_length = true;
  }
  if (!has_length) {
    *out += "content-length: " + std::to_string(body_size) + "\r\n";
  }
  *out += "\r\n";
}

}  // namespace

HttpParseOutcome ParseHttpRequest(const uint8_t* data, size_t size,
                                  HttpRequest* out, size_t* consumed,
                                  std::string* error) {
  constexpr size_t kMaxHeaderBytes = 64 * 1024;
  if (size == 0) return HttpParseOutcome::kNeedMore;
  const std::string_view view(reinterpret_cast<const char*>(data), size);
  const size_t head_end = view.find("\r\n\r\n");
  if (head_end == std::string_view::npos) {
    if (size > kMaxHeaderBytes) {
      if (error != nullptr) *error = "HTTP header block too long";
      return HttpParseOutcome::kError;
    }
    return HttpParseOutcome::kNeedMore;
  }
  if (head_end > kMaxHeaderBytes) {
    if (error != nullptr) *error = "HTTP header block too long";
    return HttpParseOutcome::kError;
  }

  HttpRequest request;
  const std::string_view head = view.substr(0, head_end);
  const size_t line_end = head.find("\r\n");
  const std::string_view start_line =
      head.substr(0, line_end == std::string_view::npos ? head.size()
                                                        : line_end);
  const size_t sp1 = start_line.find(' ');
  const size_t sp2 =
      sp1 == std::string_view::npos ? std::string_view::npos
                                    : start_line.find(' ', sp1 + 1);
  if (sp1 == std::string_view::npos || sp2 == std::string_view::npos) {
    if (error != nullptr) {
      *error = "malformed HTTP request line: " + std::string(start_line);
    }
    return HttpParseOutcome::kError;
  }
  request.method = std::string(start_line.substr(0, sp1));
  request.path = std::string(start_line.substr(sp1 + 1, sp2 - sp1 - 1));

  size_t pos = line_end == std::string_view::npos ? head.size() : line_end + 2;
  while (pos < head.size()) {
    size_t next = head.find("\r\n", pos);
    if (next == std::string_view::npos) next = head.size();
    const std::string_view line = head.substr(pos, next - pos);
    pos = next + 2;
    const size_t colon = line.find(':');
    if (colon == std::string_view::npos) {
      if (error != nullptr) {
        *error = "malformed HTTP header: " + std::string(line);
      }
      return HttpParseOutcome::kError;
    }
    request.headers[ToLower(Trim(std::string(line.substr(0, colon))))] =
        Trim(std::string(line.substr(colon + 1)));
  }

  size_t body_length = 0;
  auto it = request.headers.find("content-length");
  if (it != request.headers.end()) {
    char* end = nullptr;
    body_length = std::strtoull(it->second.c_str(), &end, 10);
    if (end == it->second.c_str() || body_length > kMaxFrameBytes) {
      if (error != nullptr) *error = "HTTP body too large";
      return HttpParseOutcome::kError;
    }
  }
  const size_t body_start = head_end + 4;
  if (size - body_start < body_length) return HttpParseOutcome::kNeedMore;
  request.body.assign(data + body_start, data + body_start + body_length);
  *consumed = body_start + body_length;
  *out = std::move(request);
  return HttpParseOutcome::kParsed;
}

Bytes SerializeHttpResponse(HttpResponse response) {
  std::string head = "HTTP/1.1 " + std::to_string(response.status_code) + " " +
                     response.reason + "\r\n";
  AppendHeaders(response.headers, response.body.size(), &head);
  Bytes out = std::move(response.body);
  out.insert(out.begin(), head.begin(), head.end());
  return out;
}

void SerializeHttpRequest(const HttpRequest& request, Bytes* out) {
  std::string head = request.method + " " + request.path + " HTTP/1.1\r\n";
  AppendHeaders(request.headers, request.body.size(), &head);
  out->insert(out->end(), head.begin(), head.end());
  out->insert(out->end(), request.body.begin(), request.body.end());
}

Status HttpConnection::WriteRequest(const HttpRequest& request) {
  std::string head = request.method + " " + request.path + " HTTP/1.1\r\n";
  AppendHeaders(request.headers, request.body.size(), &head);
  DSTORE_RETURN_IF_ERROR(socket_.WriteFull(head.data(), head.size()));
  return socket_.WriteFull(request.body);
}

Status HttpConnection::WriteResponse(const HttpResponse& response) {
  std::string head = "HTTP/1.1 " + std::to_string(response.status_code) + " " +
                     response.reason + "\r\n";
  AppendHeaders(response.headers, response.body.size(), &head);
  DSTORE_RETURN_IF_ERROR(socket_.WriteFull(head.data(), head.size()));
  return socket_.WriteFull(response.body);
}

Status HttpConnection::FillBuffer(const char* what) {
  uint8_t chunk[4096];
  // Read whatever is available (at least 1 byte); anything past this
  // message stays buffered for the next read on the connection.
  const ssize_t n = ::recv(socket_.fd(), chunk, sizeof(chunk), 0);
  if (n < 0) return Status::IOError(std::string("recv failed while ") + what);
  if (n == 0) {
    return Status::IOError(std::string("connection closed while ") + what);
  }
  buffer_.assign(chunk, chunk + n);
  buffer_pos_ = 0;
  return Status::OK();
}

StatusOr<std::string> HttpConnection::ReadLine() {
  std::string line;
  for (;;) {
    if (buffer_pos_ >= buffer_.size()) {
      DSTORE_RETURN_IF_ERROR(FillBuffer("reading HTTP header"));
    }
    const char c = static_cast<char>(buffer_[buffer_pos_++]);
    if (c == '\n') {
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return line;
    }
    line.push_back(c);
    if (line.size() > 64 * 1024) {
      return Status::Corruption("HTTP header line too long");
    }
  }
}

Status HttpConnection::ReadExact(uint8_t* out, size_t n) {
  for (;;) {
    // Drain the lookahead buffer first.
    const size_t buffered = buffer_.size() - buffer_pos_;
    const size_t take = std::min(buffered, n);
    if (take > 0) {
      std::copy(buffer_.begin() + static_cast<ptrdiff_t>(buffer_pos_),
                buffer_.begin() + static_cast<ptrdiff_t>(buffer_pos_ + take),
                out);
      buffer_pos_ += take;
      out += take;
      n -= take;
    }
    if (n == 0) return Status::OK();
    if (n >= 4096) return socket_.ReadFull(out, n);
    DSTORE_RETURN_IF_ERROR(FillBuffer("reading HTTP body"));
  }
}

Status HttpConnection::ReadHeaders(
    std::map<std::string, std::string>* headers) {
  for (;;) {
    DSTORE_ASSIGN_OR_RETURN(std::string line, ReadLine());
    if (line.empty()) return Status::OK();
    const size_t colon = line.find(':');
    if (colon == std::string::npos) {
      return Status::Corruption("malformed HTTP header: " + line);
    }
    (*headers)[ToLower(Trim(line.substr(0, colon)))] =
        Trim(line.substr(colon + 1));
  }
}

StatusOr<HttpRequest> HttpConnection::ReadRequest() {
  DSTORE_ASSIGN_OR_RETURN(std::string start, ReadLine());
  HttpRequest request;
  const size_t sp1 = start.find(' ');
  const size_t sp2 = start.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos) {
    return Status::Corruption("malformed HTTP request line: " + start);
  }
  request.method = start.substr(0, sp1);
  request.path = start.substr(sp1 + 1, sp2 - sp1 - 1);
  DSTORE_RETURN_IF_ERROR(ReadHeaders(&request.headers));

  auto it = request.headers.find("content-length");
  if (it != request.headers.end()) {
    char* end = nullptr;
    const size_t length = std::strtoull(it->second.c_str(), &end, 10);
    if (end == it->second.c_str() || length > kMaxFrameBytes) {
      return Status::Corruption("HTTP body too large");
    }
    request.body.resize(length);
    DSTORE_RETURN_IF_ERROR(ReadExact(request.body.data(), length));
  }
  return request;
}

StatusOr<HttpResponse> HttpConnection::ReadResponseHead(size_t* body_length) {
  DSTORE_ASSIGN_OR_RETURN(std::string start, ReadLine());
  HttpResponse response;
  // "HTTP/1.1 200 OK"
  const size_t sp1 = start.find(' ');
  if (sp1 == std::string::npos) {
    return Status::Corruption("malformed HTTP status line: " + start);
  }
  const size_t sp2 = start.find(' ', sp1 + 1);
  const std::string code_str =
      start.substr(sp1 + 1, sp2 == std::string::npos ? std::string::npos
                                                     : sp2 - sp1 - 1);
  response.status_code = std::atoi(code_str.c_str());
  if (response.status_code == 0) {
    return Status::Corruption("malformed HTTP status code: " + start);
  }
  if (sp2 != std::string::npos) response.reason = start.substr(sp2 + 1);
  DSTORE_RETURN_IF_ERROR(ReadHeaders(&response.headers));

  *body_length = 0;
  auto it = response.headers.find("content-length");
  if (it != response.headers.end()) {
    char* end = nullptr;
    const size_t length = std::strtoull(it->second.c_str(), &end, 10);
    if (end == it->second.c_str() || length > kMaxFrameBytes) {
      return Status::Corruption("HTTP body too large");
    }
    *body_length = length;
  }
  return response;
}

StatusOr<HttpResponse> HttpConnection::ReadResponse() {
  size_t length = 0;
  DSTORE_ASSIGN_OR_RETURN(HttpResponse response, ReadResponseHead(&length));
  response.body.resize(length);
  DSTORE_RETURN_IF_ERROR(ReadExact(response.body.data(), length));
  return response;
}

}  // namespace dstore
