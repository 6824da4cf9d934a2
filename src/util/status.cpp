#include "uld3d/util/status.hpp"

#include <algorithm>
#include <sstream>

namespace uld3d {

const char* error_code_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::kOk: return "kOk";
    case ErrorCode::kInvalidArgument: return "kInvalidArgument";
    case ErrorCode::kInvalidConfig: return "kInvalidConfig";
    case ErrorCode::kUnknownKey: return "kUnknownKey";
    case ErrorCode::kInfeasiblePoint: return "kInfeasiblePoint";
    case ErrorCode::kThermalLimit: return "kThermalLimit";
    case ErrorCode::kNumericalError: return "kNumericalError";
    case ErrorCode::kNotFound: return "kNotFound";
    case ErrorCode::kInternal: return "kInternal";
  }
  return "kInternal";
}

namespace {

std::string format_number(double value) {
  std::ostringstream os;
  os << value;
  return os.str();
}

}  // namespace

Failure& Failure::with(std::string key, double value) {
  context.emplace_back(std::move(key), format_number(value));
  return *this;
}

Failure& Failure::with(std::string key, std::int64_t value) {
  context.emplace_back(std::move(key), std::to_string(value));
  return *this;
}

std::string Failure::to_string() const {
  std::ostringstream os;
  os << error_code_name(code) << ": " << message;
  if (!context.empty()) {
    os << " (";
    for (std::size_t i = 0; i < context.size(); ++i) {
      if (i > 0) os << ", ";
      os << context[i].first << "=" << context[i].second;
    }
    os << ")";
  }
  return os.str();
}

Failure& Diagnostics::add(Failure failure) {
  entries_.push_back(std::move(failure));
  return entries_.back();
}

Failure& Diagnostics::error(ErrorCode code, std::string message) {
  return add(Failure(code, std::move(message), Severity::kError));
}

Failure& Diagnostics::warn(ErrorCode code, std::string message) {
  return add(Failure(code, std::move(message), Severity::kWarning));
}

std::size_t Diagnostics::error_count() const {
  return static_cast<std::size_t>(
      std::count_if(entries_.begin(), entries_.end(), [](const Failure& f) {
        return f.severity == Severity::kError;
      }));
}

std::size_t Diagnostics::warning_count() const {
  return entries_.size() - error_count();
}

bool Diagnostics::has(ErrorCode code) const {
  return std::any_of(entries_.begin(), entries_.end(),
                     [code](const Failure& f) { return f.code == code; });
}

void Diagnostics::merge(const Diagnostics& other) {
  entries_.insert(entries_.end(), other.entries_.begin(),
                  other.entries_.end());
}

std::string Diagnostics::to_string() const {
  std::ostringstream os;
  for (const auto& f : entries_) {
    os << (f.severity == Severity::kError ? "error: " : "warning: ")
       << f.to_string() << "\n";
  }
  return os.str();
}

void Diagnostics::throw_if_errors(bool strict) const {
  for (const auto& f : entries_) {
    if (f.severity == Severity::kError || strict) {
      Failure first = f;
      if (size() > 1) {
        first.with("total_diagnostics", static_cast<std::int64_t>(size()));
      }
      throw StatusError(std::move(first));
    }
  }
}

std::size_t edit_distance(const std::string& a, const std::string& b) {
  // Single-row dynamic programming; strings here are short config keys.
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diagonal = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t substitution =
          diagonal + (a[i - 1] == b[j - 1] ? 0 : 1);
      diagonal = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1, substitution});
    }
  }
  return row[b.size()];
}

std::string nearest_match(const std::string& word,
                          const std::vector<std::string>& candidates,
                          std::size_t max_distance) {
  std::string best;
  std::size_t best_distance = max_distance + 1;
  for (const auto& candidate : candidates) {
    const std::size_t d = edit_distance(word, candidate);
    if (d < best_distance) {
      best_distance = d;
      best = candidate;
    }
  }
  return best;
}

}  // namespace uld3d
