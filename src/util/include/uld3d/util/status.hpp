// Structured error handling for fault-tolerant evaluation.
//
// The exception types in check.hpp express *programming* errors (violated
// preconditions and invariants).  Large design-space studies additionally
// need *data* errors — an infeasible design point, a thermal-limit
// violation, a NaN escaping a model — that must be recorded and skipped
// rather than abort a whole sweep.  This header provides the taxonomy:
//
//   ErrorCode    what went wrong, machine-readable
//   Failure      code + message + key/value context
//   StatusError  an exception that carries a Failure across layers that
//                still unwind (model boundaries throw it; sweeps catch it)
//   Diagnostics  a collector that accumulates many Failures (e.g. every
//                range violation in a config) instead of stopping at one
#pragma once

#include <cmath>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "uld3d/util/check.hpp"

namespace uld3d {

/// Machine-readable failure categories, ordered roughly by layer.
enum class ErrorCode {
  kOk = 0,
  kInvalidArgument,   ///< bad value passed to an API (caller bug)
  kInvalidConfig,     ///< config file range violation / unparsable value
  kUnknownKey,        ///< config key or section not in the schema
  kInfeasiblePoint,   ///< design point violates a geometric/capacity bound
  kThermalLimit,      ///< Eq. (17) temperature rise exceeds the budget
  kNumericalError,    ///< non-finite value escaped a model
  kNotFound,          ///< named entity (metric, layer, file) absent
  kInternal,          ///< invariant failure / unclassified exception
};

/// Stable identifier, e.g. "kThermalLimit".
[[nodiscard]] const char* error_code_name(ErrorCode code);

/// Severity of a recorded failure: warnings (e.g. unknown-key typos) do not
/// make a Diagnostics fail unless the caller opts into strict mode.
enum class Severity { kWarning, kError };

/// One structured failure: code + message + ordered key/value context.
struct Failure {
  ErrorCode code = ErrorCode::kInternal;
  std::string message;
  Severity severity = Severity::kError;
  std::vector<std::pair<std::string, std::string>> context;

  Failure() = default;
  Failure(ErrorCode c, std::string msg, Severity sev = Severity::kError)
      : code(c), message(std::move(msg)), severity(sev) {}

  /// Attach context; returns *this for chaining.
  Failure& with(std::string key, std::string value) {
    context.emplace_back(std::move(key), std::move(value));
    return *this;
  }
  Failure& with(std::string key, double value);
  Failure& with(std::string key, std::int64_t value);

  /// "kNumericalError: EDP benefit is not finite (n_cs=8, capacity_mb=64)"
  [[nodiscard]] std::string to_string() const;
};

/// Exception carrying a structured Failure across layers that unwind.
/// Model boundaries throw this; sweep engines catch it and record the
/// Failure on the offending design point.
class StatusError : public Error {
 public:
  explicit StatusError(Failure failure)
      : Error(failure.to_string()), failure_(std::move(failure)) {}

  [[nodiscard]] const Failure& failure() const { return failure_; }
  [[nodiscard]] ErrorCode code() const { return failure_.code; }

 private:
  Failure failure_;
};

/// Accumulates failures instead of throwing on the first one; used by
/// config validation (report every range violation in one pass) and by
/// sweep engines (collect per-point failures).
class Diagnostics {
 public:
  /// Record a failure; returns a reference for `.with(...)` chaining.
  Failure& add(Failure failure);
  Failure& error(ErrorCode code, std::string message);
  Failure& warn(ErrorCode code, std::string message);

  [[nodiscard]] const std::vector<Failure>& entries() const { return entries_; }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] bool empty() const { return entries_.empty(); }
  [[nodiscard]] std::size_t error_count() const;
  [[nodiscard]] std::size_t warning_count() const;

  /// No errors recorded (warnings alone keep a Diagnostics ok).
  [[nodiscard]] bool ok() const { return error_count() == 0; }
  [[nodiscard]] bool has(ErrorCode code) const;

  void merge(const Diagnostics& other);
  void clear() { entries_.clear(); }

  /// One line per entry, "error: ..." / "warning: ..." prefixed.
  [[nodiscard]] std::string to_string() const;

  /// Throw StatusError with the first error if any was recorded; with
  /// `strict`, warnings count as errors too.
  void throw_if_errors(bool strict = false) const;

 private:
  std::vector<Failure> entries_;
};

/// Guard at a model boundary: returns `value` if finite, otherwise throws
/// StatusError(kNumericalError) naming `what`.
inline double require_finite(double value, const std::string& what) {
  if (!std::isfinite(value)) {
    throw StatusError(Failure(ErrorCode::kNumericalError,
                              what + " is not finite")
                          .with("value", std::isnan(value)
                                             ? std::string("nan")
                                             : (value > 0 ? "+inf" : "-inf")));
  }
  return value;
}

/// Levenshtein edit distance (used for unknown-key suggestions).
[[nodiscard]] std::size_t edit_distance(const std::string& a,
                                        const std::string& b);

/// The candidate closest to `word` within `max_distance` edits, or "" when
/// nothing is close enough.  Ties break toward the earliest candidate.
[[nodiscard]] std::string nearest_match(
    const std::string& word, const std::vector<std::string>& candidates,
    std::size_t max_distance = 3);

}  // namespace uld3d
