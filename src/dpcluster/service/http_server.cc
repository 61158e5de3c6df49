#include "dpcluster/service/http_server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>

#include "dpcluster/service/protocol.h"

namespace dpcluster {

namespace {

const char* HttpStatusText(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 413: return "Payload Too Large";
    case 422: return "Unprocessable Content";
    case 429: return "Too Many Requests";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    case 504: return "Gateway Timeout";
    default: return "Status";
  }
}

void SendAll(int fd, std::string_view bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return;  // Peer went away; nothing sensible to do.
    }
    sent += static_cast<std::size_t>(n);
  }
}

void SendReply(int fd, int status, std::string_view body, double queue_ms,
               bool keep_alive = false) {
  std::string head = "HTTP/1.1 " + std::to_string(status) + " " +
                     HttpStatusText(status) +
                     "\r\nContent-Type: application/json\r\n"
                     "Content-Length: " +
                     std::to_string(body.size()) +
                     "\r\nX-Queue-Millis: " + JsonNumberLexeme(queue_ms) +
                     "\r\nConnection: " +
                     (keep_alive ? "keep-alive" : "close") + "\r\n\r\n";
  head.append(body);
  SendAll(fd, head);
}

/// Closes `fd` without destroying an already-sent reply. Closing a socket
/// that still holds unread request bytes makes the kernel send RST, which
/// discards queued outbound data — the client would see a connection reset
/// instead of the 503/413 we just wrote. Half-close our side, then drain
/// the peer's remaining bytes (bounded by a receive timeout) until it sees
/// the reply and closes.
void DrainAndClose(int fd) {
  ::shutdown(fd, SHUT_WR);
  timeval timeout{/*tv_sec=*/2, /*tv_usec=*/0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  char sink[4096];
  while (::recv(fd, sink, sizeof sink, 0) > 0) {
  }
  ::close(fd);
}

/// Case-insensitive ASCII prefix match for header names.
bool HeaderIs(std::string_view line, std::string_view name) {
  if (line.size() < name.size() + 1) return false;
  for (std::size_t i = 0; i < name.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(line[i])) !=
        std::tolower(static_cast<unsigned char>(name[i]))) {
      return false;
    }
  }
  return line[name.size()] == ':';
}

/// Case-insensitive ASCII match of a header value token (trailing spaces
/// tolerated, as in "Connection: close ").
bool TokenEquals(std::string_view value, std::string_view token) {
  while (!value.empty() && (value.back() == ' ' || value.back() == '\t')) {
    value.remove_suffix(1);
  }
  if (value.size() != token.size()) return false;
  for (std::size_t i = 0; i < value.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(value[i])) !=
        std::tolower(static_cast<unsigned char>(token[i]))) {
      return false;
    }
  }
  return true;
}

/// Parses a Content-Length field value: one or more digits between optional
/// spaces or tabs, no larger than SIZE_MAX. False on anything else (empty,
/// signs, lists, trailing junk, overflow), which must not frame a body.
bool ParseContentLength(std::string_view value, std::size_t* out) {
  const auto is_ows = [](char c) { return c == ' ' || c == '\t'; };
  while (!value.empty() && is_ows(value.front())) value.remove_prefix(1);
  while (!value.empty() && is_ows(value.back())) value.remove_suffix(1);
  if (value.empty()) return false;
  std::size_t result = 0;
  for (const char c : value) {
    if (c < '0' || c > '9') return false;
    const auto digit = static_cast<std::size_t>(c - '0');
    if (result > (SIZE_MAX - digit) / 10) return false;
    result = result * 10 + digit;
  }
  *out = result;
  return true;
}

}  // namespace

HttpServer::HttpServer(ClusterService* service, HttpServerOptions options)
    : service_(service), options_(std::move(options)) {}

HttpServer::~HttpServer() { Stop(); }

HttpServer::Stats HttpServer::GetStats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

Status HttpServer::Start() {
  if (running_) return Status::InvalidArgument("HttpServer already started");
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Internal("socket(): " + std::string(std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) <
      0) {
    const std::string message = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Internal("bind(127.0.0.1:" +
                            std::to_string(options_.port) + "): " + message);
  }
  if (::listen(listen_fd_, 128) < 0) {
    const std::string message = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Internal("listen(): " + message);
  }
  socklen_t len = sizeof addr;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  if (::pipe(wake_fds_) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Internal("pipe(): " + std::string(std::strerror(errno)));
  }

  queue_ = std::make_unique<BoundedQueue<Connection>>(options_.queue_depth);
  pool_ = std::make_unique<ThreadPool>(options_.workers);
  running_ = true;
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  drain_thread_ = std::thread([this] {
    pool_->RunChunks(options_.workers, [this](std::size_t) {
      while (auto connection = queue_->Pop()) {
        ServeConnection(std::move(*connection));
      }
    });
  });
  return Status::OK();
}

void HttpServer::AcceptLoop() {
  pollfd fds[2];
  fds[0] = {listen_fd_, POLLIN, 0};
  fds[1] = {wake_fds_[0], POLLIN, 0};
  for (;;) {
    // Finite timeout so a drain requested through the service (a served
    // POST /v1/shutdown) is noticed without another connection arriving.
    const int ready = ::poll(fds, 2, /*timeout_ms=*/50);
    if (service_->shutdown_requested() || (fds[1].revents & POLLIN) != 0) {
      break;
    }
    if (ready <= 0 || (fds[0].revents & POLLIN) == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;  // Listen socket is gone; we are stopping.
    }
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.accepted;
    }
    Connection connection{fd, std::chrono::steady_clock::now()};
    if (!queue_->TryPush(std::move(connection))) {
      // Shed at the door: answer 503 from the accept thread. The body is
      // the same structured error a worker would send.
      const std::string body =
          ErrorToJson(ServiceErrorCode::kQueueFull,
                      "admission queue is full; retry later")
              .Encode();
      SendReply(fd, HttpStatusOf(ServiceErrorCode::kQueueFull), body,
                /*queue_ms=*/0.0);
      DrainAndClose(fd);
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.shed;
    }
  }
  queue_->Close();
}

void HttpServer::ServeConnection(Connection connection) {
  const int fd = connection.fd;
  // A kept-alive connection must not park a worker forever between
  // requests: reads time out after idle_timeout_ms, closing the connection.
  timeval timeout{};
  timeout.tv_sec = options_.idle_timeout_ms / 1000;
  timeout.tv_usec = (options_.idle_timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);

  std::string buffer;  // May hold pipelined bytes of the next request.
  char chunk[8192];
  for (std::size_t request_index = 0;
       request_index < options_.max_requests_per_connection;
       ++request_index) {
    // Read until the blank line, then until Content-Length bytes of body.
    std::size_t header_end = buffer.find("\r\n\r\n");
    bool overflow = buffer.size() > options_.max_request_bytes;
    while (header_end == std::string::npos && !overflow) {
      const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        // Peer closed between requests, idle timeout, or truncation:
        // nothing to reply to.
        ::close(fd);
        return;
      }
      buffer.append(chunk, static_cast<std::size_t>(n));
      header_end = buffer.find("\r\n\r\n");
      overflow = buffer.size() > options_.max_request_bytes;
    }

    const auto queue_ms =
        request_index > 0
            ? 0.0
            : std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - connection.accepted_at)
                  .count();

    if (overflow) {
      const std::string body =
          ErrorToJson(ServiceErrorCode::kPayloadTooLarge,
                      "request exceeds " +
                          std::to_string(options_.max_request_bytes) +
                          " bytes")
              .Encode();
      SendReply(fd, HttpStatusOf(ServiceErrorCode::kPayloadTooLarge), body,
                queue_ms);
      DrainAndClose(fd);
      return;
    }

    // Start line: METHOD SP PATH SP VERSION.
    const std::string_view head{buffer.data(), header_end};
    const std::size_t line_end = head.find("\r\n");
    const std::string_view start_line = head.substr(0, line_end);
    const std::size_t method_end = start_line.find(' ');
    const std::size_t path_end = method_end == std::string_view::npos
                                     ? std::string_view::npos
                                     : start_line.find(' ', method_end + 1);
    if (path_end == std::string_view::npos) {
      const std::string body =
          ErrorToJson(ServiceErrorCode::kParseError, "malformed request line")
              .Encode();
      SendReply(fd, 400, body, queue_ms);
      DrainAndClose(fd);
      return;
    }
    const std::string method{start_line.substr(0, method_end)};
    const std::string path{
        start_line.substr(method_end + 1, path_end - method_end - 1)};
    // HTTP/1.1 defaults to keep-alive; 1.0 (and anything else) to close.
    const std::string_view version = start_line.substr(path_end + 1);
    bool keep_alive = version == "HTTP/1.1";

    // Headers: Content-Length frames the body, Connection overrides the
    // version's persistence default. Framing this server cannot read
    // unambiguously (a malformed or overflowing Content-Length, two that
    // disagree, any Transfer-Encoding) would desynchronize the kept-alive
    // stream, so it gets a 400 and the connection closes.
    std::size_t content_length = 0;
    bool has_content_length = false;
    const char* framing_error = nullptr;
    std::size_t cursor = line_end + 2;
    while (cursor < header_end && framing_error == nullptr) {
      std::size_t eol = head.find("\r\n", cursor);
      if (eol == std::string_view::npos) eol = header_end;
      const std::string_view line = head.substr(cursor, eol - cursor);
      if (HeaderIs(line, "Content-Length")) {
        std::size_t parsed = 0;
        if (!ParseContentLength(line.substr(line.find(':') + 1), &parsed)) {
          framing_error = "malformed Content-Length";
        } else if (has_content_length && parsed != content_length) {
          framing_error = "conflicting Content-Length headers";
        }
        content_length = parsed;
        has_content_length = true;
      } else if (HeaderIs(line, "Transfer-Encoding")) {
        framing_error = "Transfer-Encoding is not supported";
      } else if (HeaderIs(line, "Connection")) {
        std::size_t value = line.find(':') + 1;
        while (value < line.size() && line[value] == ' ') ++value;
        const std::string_view token = line.substr(value);
        if (TokenEquals(token, "close")) keep_alive = false;
        if (TokenEquals(token, "keep-alive")) keep_alive = true;
      }
      cursor = eol + 2;
    }
    if (framing_error != nullptr) {
      const std::string body =
          ErrorToJson(ServiceErrorCode::kParseError, framing_error).Encode();
      SendReply(fd, 400, body, queue_ms);
      DrainAndClose(fd);
      return;
    }

    const std::size_t body_start = header_end + 4;
    if (content_length > options_.max_request_bytes) {
      const std::string body =
          ErrorToJson(ServiceErrorCode::kPayloadTooLarge,
                      "declared body exceeds " +
                          std::to_string(options_.max_request_bytes) +
                          " bytes")
              .Encode();
      SendReply(fd, HttpStatusOf(ServiceErrorCode::kPayloadTooLarge), body,
                queue_ms);
      DrainAndClose(fd);
      return;
    }
    while (buffer.size() < body_start + content_length) {
      const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        ::close(fd);
        return;
      }
      buffer.append(chunk, static_cast<std::size_t>(n));
    }
    const std::string_view body{buffer.data() + body_start, content_length};

    // The last request this connection gets: client asked to close, the
    // per-connection cap is reached, or the server is draining (announced
    // in the reply's Connection header so the client reconnects elsewhere).
    const bool last =
        !keep_alive ||
        request_index + 1 == options_.max_requests_per_connection ||
        service_->shutdown_requested();

    const ServiceReply reply = service_->Handle(method, path, body);
    {
      // Before SendReply: a client that has read reply #N must see stats
      // covering all N requests.
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.served;
      if (request_index > 0) ++stats_.reused;
    }
    SendReply(fd, reply.http_status, reply.body, queue_ms, !last);
    if (last) {
      ::shutdown(fd, SHUT_WR);
      ::close(fd);
      return;
    }
    buffer.erase(0, body_start + content_length);
  }
}

void HttpServer::Stop() {
  if (!running_) return;
  running_ = false;
  service_->RequestShutdown();
  // Wake the accept loop, then close the door.
  const char byte = 'x';
  [[maybe_unused]] const ssize_t w = ::write(wake_fds_[1], &byte, 1);
  if (accept_thread_.joinable()) accept_thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  queue_->Close();  // AcceptLoop already closed it; idempotent.
  if (drain_thread_.joinable()) drain_thread_.join();
  ::close(wake_fds_[0]);
  ::close(wake_fds_[1]);
  wake_fds_[0] = wake_fds_[1] = -1;
}

}  // namespace dpcluster
