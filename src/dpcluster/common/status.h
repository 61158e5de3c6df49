// Status / Result error model for the dpcluster library.
//
// Following the RocksDB / Arrow idiom, no exceptions cross the public API.
// Expected failures (invalid arguments, NoisyAVG returning "bot", sparse-vector
// budget exhaustion, ...) are reported through Status; programming errors abort
// through the DPC_CHECK macros in check.h.

#ifndef DPCLUSTER_COMMON_STATUS_H_
#define DPCLUSTER_COMMON_STATUS_H_

#include <optional>
#include <string>
#include <utility>

namespace dpcluster {

/// Error categories used across the library.
enum class StatusCode {
  kOk = 0,
  /// Caller passed parameters outside the documented domain.
  kInvalidArgument,
  /// A private selection step ended with no admissible output (e.g. the
  /// stability-based histogram suppressed every cell, or NoisyAVG returned bot).
  kNoPrivateAnswer,
  /// A resource cap documented in the options was exceeded (e.g. GoodRadius
  /// profile size limit).
  kResourceExhausted,
  /// The algorithm ran out of its iteration budget (e.g. AboveThreshold loop in
  /// GoodCenter reached its round cap without a hit).
  kDeadlineExceeded,
  /// Internal invariant failed in a recoverable context.
  kInternal,
  /// A lookup by name/key found no entry (e.g. an unregistered algorithm).
  kNotFound,
};

/// Human-readable name of a StatusCode ("OK", "InvalidArgument", ...).
const char* StatusCodeName(StatusCode code);

/// A cheap value-type carrying success or an error code plus message.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NoPrivateAnswer(std::string msg) {
    return Status(StatusCode::kNoPrivateAnswer, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

 private:
  Status(StatusCode code, std::string msg) : code_(code), message_(std::move(msg)) {}

  StatusCode code_;
  std::string message_;
};

namespace internal {
/// Aborts naming `status`: the value of an error Result was read. Out of
/// line, so the accessors inline to one branch.
[[noreturn]] void ResultHasNoValue(const Status& status);
}  // namespace internal

/// Result<T> is a Status plus, on success, a value of type T.
template <typename T>
class Result {
 public:
  /// Implicit construction from a value (success).
  Result(T value) : status_(Status::OK()), value_(std::move(value)) {}  // NOLINT
  /// Implicit construction from an error status. Must not be OK.
  Result(Status status) : status_(std::move(status)) {}  // NOLINT

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  /// Value accessors; abort naming the error unless ok().
  const T& value() const& {
    CheckOk();
    return *value_;
  }
  T& value() & {
    CheckOk();
    return *value_;
  }
  T&& value() && {
    CheckOk();
    return *std::move(value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  void CheckOk() const {
    if (!ok()) [[unlikely]] internal::ResultHasNoValue(status_);
  }

  Status status_;
  std::optional<T> value_;
};

}  // namespace dpcluster

/// Propagates a non-OK Status from an expression to the caller.
#define DPC_RETURN_IF_ERROR(expr)                   \
  do {                                              \
    ::dpcluster::Status _dpc_status = (expr);       \
    if (!_dpc_status.ok()) return _dpc_status;      \
  } while (0)

/// Evaluates a Result expression; assigns the value to lhs or propagates the error.
#define DPC_ASSIGN_OR_RETURN(lhs, expr)             \
  DPC_ASSIGN_OR_RETURN_IMPL_(                       \
      DPC_STATUS_CONCAT_(_dpc_result, __LINE__), lhs, expr)

#define DPC_ASSIGN_OR_RETURN_IMPL_(tmp, lhs, expr)  \
  auto tmp = (expr);                                \
  if (!tmp.ok()) return tmp.status();               \
  lhs = std::move(tmp).value()

#define DPC_STATUS_CONCAT_(a, b) DPC_STATUS_CONCAT_IMPL_(a, b)
#define DPC_STATUS_CONCAT_IMPL_(a, b) a##b

#endif  // DPCLUSTER_COMMON_STATUS_H_
