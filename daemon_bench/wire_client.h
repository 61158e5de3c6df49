// WireClient: the benchmark's keep-alive HTTP/1.1 client for the daemon on
// 127.0.0.1. It differs from dpcluster's HttpConnection in two ways the
// benchmark needs: replies expose the bytes on the wire, and a request body is sent as pre-encoded parts (template prefix,
// per-request seed lexeme, suffix) with one sendmsg, so no body is assembled
// or encoded while the clock runs.

#ifndef DAEMON_BENCH_WIRE_CLIENT_H_
#define DAEMON_BENCH_WIRE_CLIENT_H_

#include <cstddef>
#include <span>
#include <string>
#include <string_view>

namespace daemon_bench {

struct WireReply {
  bool transport_ok = false;  ///< False: connect/send/recv/framing failed.
  std::string error;          ///< Transport failure description.
  int status = 0;
  std::string body;
  std::size_t request_bytes = 0;  ///< Head + body sent.
  std::size_t reply_bytes = 0;    ///< Head + body received.
};

class WireClient {
 public:
  explicit WireClient(int port) : port_(port) {}
  ~WireClient();

  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  /// One request on the persistent socket. The body is the concatenation of
  /// `body_parts`. Reconnects when the server closed the connection (request
  /// cap, idle timeout); a request whose socket was found closed before any
  /// reply byte arrived is resent once on a fresh socket.
  WireReply Call(std::string_view method, std::string_view path,
                 std::span<const std::string_view> body_parts);

  /// Sockets opened so far.
  std::size_t connects() const { return connects_; }

 private:
  bool Connect(std::string* error);
  void Close();
  /// One attempt; `*retryable` is set when no reply byte arrived.
  WireReply Attempt(std::string_view head,
                    std::span<const std::string_view> body_parts,
                    bool* retryable);

  int port_;
  int fd_ = -1;
  std::size_t connects_ = 0;
  std::string buffer_;
};

}  // namespace daemon_bench

#endif  // DAEMON_BENCH_WIRE_CLIENT_H_
