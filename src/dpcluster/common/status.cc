#include "dpcluster/common/status.h"

#include "dpcluster/common/check.h"

namespace dpcluster {

const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kNoPrivateAnswer:
      return "NoPrivateAnswer";
    case StatusCode::kResourceExhausted:
      return "ResourceExhausted";
    case StatusCode::kDeadlineExceeded:
      return "DeadlineExceeded";
    case StatusCode::kInternal:
      return "Internal";
    case StatusCode::kNotFound:
      return "NotFound";
  }
  return "Unknown";
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = StatusCodeName(code_);
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

namespace internal {

void ResultHasNoValue(const Status& status) {
  CheckFailed(__FILE__, __LINE__, "ok()", status.ToString().c_str());
}

}  // namespace internal

}  // namespace dpcluster
