#include "wire_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <strings.h>
#include <vector>

namespace daemon_bench {

namespace {

/// Value of header `name` (case-insensitive) in `head`, or "" when absent.
std::string_view HeaderValue(std::string_view head, std::string_view name) {
  std::size_t cursor = head.find("\r\n");
  while (cursor != std::string_view::npos && cursor + 2 < head.size()) {
    const std::size_t start = cursor + 2;
    std::size_t end = head.find("\r\n", start);
    if (end == std::string_view::npos) end = head.size();
    const std::string_view line = head.substr(start, end - start);
    if (line.size() > name.size() && line[name.size()] == ':' &&
        ::strncasecmp(line.data(), name.data(), name.size()) == 0) {
      std::string_view value = line.substr(name.size() + 1);
      while (!value.empty() && value.front() == ' ') value.remove_prefix(1);
      return value;
    }
    cursor = end;
  }
  return {};
}

}  // namespace

WireClient::~WireClient() { Close(); }

void WireClient::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buffer_.clear();
}

bool WireClient::Connect(std::string* error) {
  Close();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  timeval timeout{/*tv_sec=*/120, /*tv_usec=*/0};
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port_));
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    *error = std::string("connect: ") + std::strerror(errno);
    Close();
    return false;
  }
  ++connects_;
  return true;
}

WireReply WireClient::Call(std::string_view method, std::string_view path,
                           std::span<const std::string_view> body_parts) {
  std::size_t body_size = 0;
  for (const std::string_view part : body_parts) body_size += part.size();
  std::string head;
  head.reserve(128);
  head.append(method).append(" ").append(path).append(
      " HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\n"
      "Content-Length: ");
  head.append(std::to_string(body_size)).append("\r\n\r\n");

  const bool fresh = fd_ < 0;
  bool retryable = false;
  WireReply reply = Attempt(head, body_parts, &retryable);
  if (!reply.transport_ok && retryable && !fresh) {
    reply = Attempt(head, body_parts, &retryable);
  }
  return reply;
}

WireReply WireClient::Attempt(std::string_view head,
                              std::span<const std::string_view> body_parts,
                              bool* retryable) {
  WireReply reply;
  *retryable = false;
  if (fd_ < 0 && !Connect(&reply.error)) return reply;

  // Send head + parts with one gathered sendmsg, resuming after partial
  // writes; MSG_NOSIGNAL turns a peer that already closed into EPIPE.
  std::vector<iovec> iov;
  iov.reserve(body_parts.size() + 1);
  iov.push_back({const_cast<char*>(head.data()), head.size()});
  for (const std::string_view part : body_parts) {
    if (!part.empty()) {
      iov.push_back({const_cast<char*>(part.data()), part.size()});
    }
  }
  std::size_t first = 0;
  while (first < iov.size()) {
    msghdr message{};
    message.msg_iov = iov.data() + first;
    message.msg_iovlen = iov.size() - first;
    const ssize_t n = ::sendmsg(fd_, &message, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      reply.error = std::string("send: ") + std::strerror(errno);
      *retryable = true;
      Close();
      return reply;
    }
    reply.request_bytes += static_cast<std::size_t>(n);
    std::size_t left = static_cast<std::size_t>(n);
    while (first < iov.size() && left >= iov[first].iov_len) {
      left -= iov[first].iov_len;
      ++first;
    }
    if (first < iov.size()) {
      iov[first].iov_base = static_cast<char*>(iov[first].iov_base) + left;
      iov[first].iov_len -= left;
    }
  }

  // Receive: head up to the blank line, then Content-Length body bytes.
  char chunk[16384];
  std::size_t header_end = buffer_.find("\r\n\r\n");
  while (header_end == std::string::npos) {
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      reply.error = n == 0 ? "connection closed before the reply"
                           : std::string("recv: ") + std::strerror(errno);
      *retryable = buffer_.empty();
      Close();
      return reply;
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
    header_end = buffer_.find("\r\n\r\n");
  }
  const std::string_view head_view(buffer_.data(), header_end);
  if (head_view.size() < 12 || head_view.substr(0, 9) != "HTTP/1.1 ") {
    reply.error = "malformed status line";
    Close();
    return reply;
  }
  reply.status = std::atoi(std::string(head_view.substr(9, 3)).c_str());
  const std::string_view length = HeaderValue(head_view, "Content-Length");
  if (length.empty()) {
    reply.error = "reply without Content-Length";
    Close();
    return reply;
  }
  const std::size_t content_length =
      std::strtoull(std::string(length).c_str(), nullptr, 10);
  const std::string_view connection = HeaderValue(head_view, "Connection");
  const bool close_after =
      connection.size() >= 5 &&
      ::strncasecmp(connection.data(), "close", 5) == 0;

  const std::size_t body_start = header_end + 4;
  while (buffer_.size() < body_start + content_length) {
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      reply.error = "connection closed mid-reply";
      Close();
      return reply;
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
  reply.body.assign(buffer_, body_start, content_length);
  reply.reply_bytes = body_start + content_length;
  buffer_.erase(0, body_start + content_length);
  reply.transport_ok = true;
  if (close_after) Close();
  return reply;
}

}  // namespace daemon_bench
