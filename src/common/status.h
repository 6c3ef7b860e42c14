#ifndef IOLAP_COMMON_STATUS_H_
#define IOLAP_COMMON_STATUS_H_

#include <ostream>
#include <string>
#include <utility>

namespace iolap {

// Error taxonomy for the library. Kept deliberately small: database-style
// code mostly needs to distinguish caller bugs (kInvalidArgument), missing
// data (kNotFound), environmental failures (kIoError), and capacity limits
// (kResourceExhausted).
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kOutOfRange,
  kResourceExhausted,
  kFailedPrecondition,
  kIoError,
  kInternal,
  kUnimplemented,
  // The answer is not available now but may be later: an unbuilt or stale
  // partial store refuses with this, and the serve layer falls through to
  // the next tier.
  kUnavailable,
};

/// Returns a stable human-readable name for `code` (e.g. "IO_ERROR").
const char* StatusCodeToString(StatusCode code);

/// Exception-free error value used throughout the library. Functions that
/// can fail return `Status` (or `Result<T>`); success is `Status::Ok()`.
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) = default;
  Status& operator=(Status&&) = default;

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CODE>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

inline std::ostream& operator<<(std::ostream& os, const Status& s) {
  return os << s.ToString();
}

}  // namespace iolap

#endif  // IOLAP_COMMON_STATUS_H_
