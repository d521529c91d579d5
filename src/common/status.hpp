// Typed error reporting: dsm::Status, dsm::Error and dsm::Result<T>.
//
// A Status is a (code, message, retryable) triple, so a caller branches
// on *why* something failed — the sort service tells a transient injected
// fault (worth retrying) from an invalid request (never worth retrying)
// without string matching. Result<T> is the value-or-Status return of
// every fallible library call (sort::try_run_sort, svc::Planner::try_plan,
// every decoder). dsm::Error is the library's one exception type and it
// carries a Status. It is thrown for precondition violations
// (DSM_REQUIRE / DSM_CHECK, code kInternal), to unwind an SPMD team from
// a hook (cancellation, an injected fault, a deadline), by constructors
// that cannot return a status, and by Result::value() on the error arm —
// so `try_run_sort(spec).value()` is "sort or throw".
//
// Retryability is a property of the *failure*, not of the caller's policy:
// a status is retryable when the same call could plausibly succeed if
// simply repeated (injected fault, transient I/O, momentary overload), and
// non-retryable when repeating it must fail the same way (invalid
// argument, infeasible combination, exceeded deadline, cancellation).
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

namespace dsm {

enum class StatusCode {
  kOk,
  kInvalidArgument,    // request can never be served as posed
  kInfeasible,         // no (algo, model, radix) candidate fits
  kDeadlineExceeded,   // predicted or measured past the job deadline
  kCancelled,          // cooperative cancellation token fired
  kResourceExhausted,  // admission backpressure (queue full)
  kUnavailable,        // service draining / shut down
  kFaultInjected,      // a seeded fault site fired (always transient)
  kIoError,            // host-side I/O (trace sink, result file)
  kCorruptJournal,     // durability record failed its CRC / framing check
  kQuarantined,        // job repeatedly crashed the process; not re-run
  kCorruptFrame,       // cluster wire frame failed its CRC / length check
  kPeerDead,           // cluster peer closed or died mid-frame
  kIntegrityViolation, // worker result failed the end-to-end fingerprint
  kInternal,           // invariant violation or unclassified failure
};

const char* status_code_name(StatusCode c);

class Status {
 public:
  /// Default-constructed Status is OK.
  Status() = default;
  Status(StatusCode code, std::string message, bool retryable)
      : code_(code), message_(std::move(message)), retryable_(retryable) {}

  static Status invalid_argument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg), false);
  }
  static Status infeasible(std::string msg) {
    return Status(StatusCode::kInfeasible, std::move(msg), false);
  }
  static Status deadline_exceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg), false);
  }
  static Status cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg), false);
  }
  static Status resource_exhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg), true);
  }
  static Status unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg), false);
  }
  static Status fault_injected(std::string msg) {
    return Status(StatusCode::kFaultInjected, std::move(msg), true);
  }
  static Status io_error(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg), true);
  }
  static Status corrupt_journal(std::string msg) {
    // Re-reading the same bytes yields the same damage: not retryable.
    return Status(StatusCode::kCorruptJournal, std::move(msg), false);
  }
  static Status quarantined(std::string msg) {
    // Re-running a poison job is exactly what quarantine forbids.
    return Status(StatusCode::kQuarantined, std::move(msg), false);
  }
  static Status corrupt_frame(std::string msg) {
    // Like a corrupt journal record: the same bytes stay damaged.
    return Status(StatusCode::kCorruptFrame, std::move(msg), false);
  }
  static Status peer_dead(std::string msg) {
    // The work the peer was doing can be re-driven elsewhere: retryable.
    return Status(StatusCode::kPeerDead, std::move(msg), true);
  }
  static Status integrity_violation(std::string msg) {
    // The *result* is poisoned, not the job: re-running it on another
    // (honest) worker can succeed, so the attempt is retryable.
    return Status(StatusCode::kIntegrityViolation, std::move(msg), true);
  }
  static Status internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg), false);
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }
  bool retryable() const { return retryable_; }

  /// "DEADLINE_EXCEEDED: predicted 840us > deadline 500us" (or "OK").
  std::string to_string() const {
    if (ok()) return status_code_name(code_);
    std::string s = status_code_name(code_);
    s += ": ";
    s += message_;
    return s;
  }

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_ &&
           a.retryable_ == b.retryable_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
  bool retryable_ = false;
};

/// The library's one exception type. It carries a typed Status; what()
/// is the status message. A bare message means kInternal.
class Error : public std::runtime_error {
 public:
  explicit Error(Status status)
      : std::runtime_error(status.message()), status_(std::move(status)) {}
  explicit Error(std::string message)
      : Error(Status::internal(std::move(message))) {}
  const Status& status() const { return status_; }

 private:
  Status status_;
};

/// Value-or-Status. Holds either a T (ok) or a non-OK Status. value() on
/// the error arm throws Error(status()), never UB.
template <typename T>
class Result {
 public:
  Result(T value) : ok_(true), value_(std::move(value)) {}  // NOLINT
  Result(Status status) : status_(std::move(status)) {      // NOLINT
    if (status_.ok()) {
      throw Error("Result error arm needs a non-OK status");
    }
  }

  bool ok() const { return ok_; }
  explicit operator bool() const { return ok_; }

  /// OK when holding a value.
  const Status& status() const { return status_; }

  T& value() & {
    if (!ok_) throw Error(status_);
    return value_;
  }
  const T& value() const& {
    if (!ok_) throw Error(status_);
    return value_;
  }
  /// By value, so `const auto& r = f().value();` cannot dangle.
  T value() && {
    if (!ok_) throw Error(status_);
    return std::move(value_);
  }

  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }
  T operator*() && { return std::move(*this).value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

 private:
  bool ok_ = false;
  Status status_;
  T value_{};  // default-constructed in the error arm
};

inline const char* status_code_name(StatusCode c) {
  switch (c) {
    case StatusCode::kOk: return "OK";
    case StatusCode::kInvalidArgument: return "INVALID_ARGUMENT";
    case StatusCode::kInfeasible: return "INFEASIBLE";
    case StatusCode::kDeadlineExceeded: return "DEADLINE_EXCEEDED";
    case StatusCode::kCancelled: return "CANCELLED";
    case StatusCode::kResourceExhausted: return "RESOURCE_EXHAUSTED";
    case StatusCode::kUnavailable: return "UNAVAILABLE";
    case StatusCode::kFaultInjected: return "FAULT_INJECTED";
    case StatusCode::kIoError: return "IO_ERROR";
    case StatusCode::kCorruptJournal: return "CORRUPT_JOURNAL";
    case StatusCode::kQuarantined: return "QUARANTINED";
    case StatusCode::kCorruptFrame: return "CORRUPT_FRAME";
    case StatusCode::kPeerDead: return "PEER_DEAD";
    case StatusCode::kIntegrityViolation: return "INTEGRITY_VIOLATION";
    case StatusCode::kInternal: return "INTERNAL";
  }
  return "?";
}

/// Inverse of status_code_name; kInvalidArgument on an unknown name (each
/// decoder re-codes that as its own corruption status).
inline Result<StatusCode> status_code_from_name(std::string_view name) {
  for (int i = 0; i <= static_cast<int>(StatusCode::kInternal); ++i) {
    const auto c = static_cast<StatusCode>(i);
    if (name == status_code_name(c)) return c;
  }
  return Status::invalid_argument("unknown status code: " + std::string(name));
}

}  // namespace dsm
