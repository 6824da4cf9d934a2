#include "uld3d/dse/checkpoint.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <optional>
#include <sstream>

#include "uld3d/util/checkpoint.hpp"
#include "uld3d/util/export.hpp"
#include "uld3d/util/jsonv.hpp"
#include "uld3d/util/provenance.hpp"

namespace uld3d::dse {

namespace {

constexpr const char* kCheckpointKind = "uld3d-sweep-checkpoint";

/// Exact, round-trippable rendering of a double as a JSON value: 17
/// significant digits reparse to the identical bit pattern (glibc strtod is
/// correctly rounded), so resumed rows equal recomputed ones byte-for-byte.
/// Non-finite values are not JSON numbers and become the strings
/// "nan"/"inf"/"-inf".
std::string json_number_exact(double value) {
  if (std::isnan(value)) return "\"nan\"";
  if (std::isinf(value)) return value > 0 ? "\"inf\"" : "\"-inf\"";
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

[[noreturn]] void refuse(std::string what, const std::string& path) {
  throw StatusError(Failure(ErrorCode::kInvalidConfig, std::move(what))
                        .with("checkpoint", path));
}

double number_exact_from_json(const JsonValue& value,
                              const std::string& path) {
  if (value.is_number()) return value.as_number();
  if (value.is_string()) {
    if (value.as_string() == "nan") {
      return std::numeric_limits<double>::quiet_NaN();
    }
    if (value.as_string() == "inf") {
      return std::numeric_limits<double>::infinity();
    }
    if (value.as_string() == "-inf") {
      return -std::numeric_limits<double>::infinity();
    }
  }
  refuse("checkpoint number is neither a JSON number nor nan/inf", path);
}

/// Integral member (the schema version, sizes, indices): refuses anything
/// `json_integer` refuses — a fraction, inf, or a value outside Int's
/// range, such as an index of 1e300.
template <typename Int>
Int integer_from_json(const JsonValue& value, const char* member,
                      const std::string& path) {
  if (const std::optional<Int> integer = json_integer<Int>(value)) {
    return *integer;
  }
  refuse(std::string("checkpoint member '") + member +
             "' is not an integer in range",
         path);
}

std::vector<std::string> string_list_from_json(const JsonValue& value,
                                               const char* member,
                                               const std::string& path) {
  if (!value.is_array()) {
    refuse(std::string("checkpoint member '") + member + "' is not an array",
           path);
  }
  std::vector<std::string> out;
  out.reserve(value.as_array().size());
  for (const JsonValue& entry : value.as_array()) {
    if (!entry.is_string()) {
      refuse(std::string("checkpoint member '") + member +
                 "' contains a non-string",
             path);
    }
    out.push_back(entry.as_string());
  }
  return out;
}

ErrorCode error_code_from_name(const std::string& name,
                               const std::string& path) {
  static constexpr ErrorCode kAllCodes[] = {
      ErrorCode::kOk,              ErrorCode::kInvalidArgument,
      ErrorCode::kInvalidConfig,   ErrorCode::kUnknownKey,
      ErrorCode::kInfeasiblePoint, ErrorCode::kThermalLimit,
      ErrorCode::kNumericalError,  ErrorCode::kNotFound,
      ErrorCode::kInternal};
  for (const ErrorCode code : kAllCodes) {
    if (name == error_code_name(code)) return code;
  }
  refuse("checkpoint failure has unknown error code '" + name + "'", path);
}

std::string bitmap_to_hex(const std::vector<bool>& bits) {
  // Nibble j encodes bits 4j..4j+3, bit b of the digit = bit 4j+b.
  std::string out((bits.size() + 3) / 4, '0');
  for (std::size_t j = 0; j < out.size(); ++j) {
    unsigned nibble = 0;
    for (unsigned b = 0; b < 4; ++b) {
      const std::size_t g = 4 * j + b;
      if (g < bits.size() && bits[g]) nibble |= 1u << b;
    }
    out[j] = "0123456789abcdef"[nibble];
  }
  return out;
}

std::vector<bool> bitmap_from_hex(const std::string& hex,
                                  std::size_t grid_size,
                                  const std::string& path) {
  if (hex.size() != (grid_size + 3) / 4) {
    refuse("completed bitmap length does not match the grid size "
           "(truncated checkpoint?)",
           path);
  }
  std::vector<bool> bits(grid_size, false);
  for (std::size_t j = 0; j < hex.size(); ++j) {
    const char c = hex[j];
    unsigned nibble = 0;
    if (c >= '0' && c <= '9') {
      nibble = static_cast<unsigned>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      nibble = static_cast<unsigned>(c - 'a' + 10);
    } else {
      refuse("completed bitmap contains a non-hex character", path);
    }
    for (unsigned b = 0; b < 4; ++b) {
      const std::size_t g = 4 * j + b;
      if ((nibble & (1u << b)) == 0) continue;
      if (g >= grid_size) {
        refuse("completed bitmap has bits set beyond the grid size", path);
      }
      bits[g] = true;
    }
  }
  return bits;
}

/// Canonical one-line row rendering.
std::string row_to_json(const SweepRow& row) {
  std::ostringstream os;
  os << "{\"index\": " << row.grid_index << ", \"params\": [";
  for (std::size_t p = 0; p < row.params.size(); ++p) {
    if (p > 0) os << ", ";
    os << json_number_exact(row.params[p]);
  }
  os << "]";
  if (row.ok()) {
    os << ", \"metrics\": [";
    for (std::size_t m = 0; m < row.metrics.size(); ++m) {
      if (m > 0) os << ", ";
      os << json_number_exact(row.metrics[m]);
    }
    os << "], \"failure\": null";
  } else {
    // Failed rows carry all-NaN metrics by the sweep contract; the loader
    // regenerates them, so only the structured Failure is stored.
    os << ", \"failure\": {\"code\": \"" << error_code_name(row.failure->code)
       << "\", \"severity\": \""
       << (row.failure->severity == Severity::kError ? "error" : "warning")
       << "\", \"message\": \"" << json_escape(row.failure->message)
       << "\", \"context\": [";
    for (std::size_t c = 0; c < row.failure->context.size(); ++c) {
      if (c > 0) os << ", ";
      os << "[\"" << json_escape(row.failure->context[c].first) << "\", \""
         << json_escape(row.failure->context[c].second) << "\"]";
    }
    os << "]}";
  }
  os << "}";
  return os.str();
}

SweepRow row_from_json(const JsonValue& doc, std::size_t metric_count,
                       const std::string& path) {
  if (!doc.is_object()) refuse("checkpoint row is not an object", path);
  SweepRow row;
  row.grid_index =
      integer_from_json<std::size_t>(doc.at("index"), "index", path);
  const JsonValue& params = doc.at("params");
  if (!params.is_array()) refuse("checkpoint row params is not an array", path);
  row.params.reserve(params.as_array().size());
  for (const JsonValue& v : params.as_array()) {
    row.params.push_back(number_exact_from_json(v, path));
  }
  const JsonValue& failure = doc.at("failure");
  if (failure.is_null()) {
    const JsonValue& metrics = doc.at("metrics");
    if (!metrics.is_array()) {
      refuse("checkpoint row metrics is not an array", path);
    }
    row.metrics.reserve(metrics.as_array().size());
    for (const JsonValue& v : metrics.as_array()) {
      row.metrics.push_back(number_exact_from_json(v, path));
    }
  } else {
    if (!failure.is_object()) {
      refuse("checkpoint row failure is neither null nor an object", path);
    }
    Failure f(error_code_from_name(failure.at("code").as_string(), path),
              failure.at("message").as_string(),
              failure.at("severity").as_string() == "warning"
                  ? Severity::kWarning
                  : Severity::kError);
    const JsonValue& context = failure.at("context");
    if (!context.is_array()) {
      refuse("checkpoint failure context is not an array", path);
    }
    for (const JsonValue& pair : context.as_array()) {
      if (!pair.is_array() || pair.as_array().size() != 2 ||
          !pair.as_array()[0].is_string() || !pair.as_array()[1].is_string()) {
        refuse("checkpoint failure context entry is not a [key, value] pair",
               path);
      }
      f.with(pair.as_array()[0].as_string(), pair.as_array()[1].as_string());
    }
    row.failure = std::move(f);
    row.metrics.assign(metric_count,
                       std::numeric_limits<double>::quiet_NaN());
  }
  return row;
}

}  // namespace

std::string sweep_fingerprint(const Grid& grid,
                              const std::vector<std::string>& metric_names,
                              const std::string& config_hash) {
  std::ostringstream os;
  os << "uld3d-sweep-fingerprint-v1\n";
  for (const Axis& axis : grid.axes()) {
    os << "axis " << axis.name << ":";
    for (const double v : axis.values) os << " " << json_number_exact(v);
    os << "\n";
  }
  for (const std::string& name : metric_names) os << "metric " << name << "\n";
  os << "config " << config_hash << "\n";
  return fnv1a_hex(os.str());
}

std::size_t SweepCheckpoint::completed_count() const {
  return static_cast<std::size_t>(
      std::count(completed.begin(), completed.end(), true));
}

std::string SweepCheckpoint::to_json() const {
  std::ostringstream os;
  os << "{\n"
     << "  \"kind\": \"" << kCheckpointKind << "\",\n"
     << "  \"schema_version\": " << schema_version << ",\n"
     << "  \"fingerprint\": \"" << json_escape(fingerprint) << "\",\n"
     << "  \"run_id\": \"" << json_escape(run_id) << "\",\n"
     << "  \"grid_size\": " << grid_size << ",\n"
     << "  \"param_names\": [";
  for (std::size_t p = 0; p < param_names.size(); ++p) {
    if (p > 0) os << ", ";
    os << "\"" << json_escape(param_names[p]) << "\"";
  }
  os << "],\n  \"metric_names\": [";
  for (std::size_t m = 0; m < metric_names.size(); ++m) {
    if (m > 0) os << ", ";
    os << "\"" << json_escape(metric_names[m]) << "\"";
  }
  os << "],\n  \"completed_bitmap\": \"" << bitmap_to_hex(completed)
     << "\",\n  \"rows\": [";
  for (std::size_t r = 0; r < rows.size(); ++r) {
    os << (r > 0 ? ",\n    " : "\n    ") << row_to_json(rows[r]);
  }
  os << (rows.empty() ? "]" : "\n  ]") << "\n}\n";
  return os.str();
}

void save_checkpoint(const SweepCheckpoint& checkpoint,
                     const std::string& path) {
  if (!write_file_atomic(path, checkpoint.to_json())) {
    throw StatusError(Failure(ErrorCode::kInternal,
                              "could not write sweep checkpoint")
                          .with("checkpoint", path));
  }
}

SweepCheckpoint load_checkpoint(const std::string& path) {
  const JsonValue root = json_parse_file(path);
  if (!root.is_object()) refuse("checkpoint is not a JSON object", path);
  if (root.string_or("kind", "") != kCheckpointKind) {
    refuse("file is not a uld3d sweep checkpoint (wrong or missing kind)",
           path);
  }
  SweepCheckpoint ckpt;
  ckpt.schema_version =
      integer_from_json<int>(root.at("schema_version"), "schema_version", path);
  if (ckpt.schema_version != kCheckpointSchemaVersion) {
    refuse("unsupported checkpoint schema_version " +
               std::to_string(ckpt.schema_version) + " (this build reads " +
               std::to_string(kCheckpointSchemaVersion) + ")",
           path);
  }
  ckpt.fingerprint = root.at("fingerprint").as_string();
  // Absent in pre-telemetry checkpoints; informational either way.
  ckpt.run_id = root.string_or("run_id", "");
  ckpt.grid_size =
      integer_from_json<std::size_t>(root.at("grid_size"), "grid_size", path);
  ckpt.param_names =
      string_list_from_json(root.at("param_names"), "param_names", path);
  ckpt.metric_names =
      string_list_from_json(root.at("metric_names"), "metric_names", path);
  if (ckpt.metric_names.empty()) {
    refuse("checkpoint has no metric names", path);
  }
  ckpt.completed = bitmap_from_hex(root.at("completed_bitmap").as_string(),
                                   ckpt.grid_size, path);

  const JsonValue& rows = root.at("rows");
  if (!rows.is_array()) refuse("checkpoint rows is not an array", path);
  // Crash-consistency check: the bitmap and the row list must agree
  // exactly — same count, same indices, ascending.  A file torn by a
  // mid-write kill (impossible with the atomic writer, but checkpoints can
  // come from other machines) or a hand-edited one is refused here.
  if (rows.as_array().size() != ckpt.completed_count()) {
    refuse("completed bitmap count (" +
               std::to_string(ckpt.completed_count()) +
               ") does not match the row count (" +
               std::to_string(rows.as_array().size()) + ")",
           path);
  }
  ckpt.rows.reserve(rows.as_array().size());
  std::size_t last_index = 0;
  for (const JsonValue& row_doc : rows.as_array()) {
    SweepRow row = row_from_json(row_doc, ckpt.metric_names.size(), path);
    if (row.grid_index >= ckpt.grid_size) {
      refuse("checkpoint row index is outside the grid", path);
    }
    if (!ckpt.rows.empty() && row.grid_index <= last_index) {
      refuse("checkpoint rows are not in ascending grid-index order", path);
    }
    if (!ckpt.completed[row.grid_index]) {
      refuse("checkpoint row " + std::to_string(row.grid_index) +
                 " has no completed bit set",
             path);
    }
    if (row.params.size() != ckpt.param_names.size() ||
        row.metrics.size() != ckpt.metric_names.size()) {
      refuse("checkpoint row " + std::to_string(row.grid_index) +
                 " has the wrong parameter/metric width",
             path);
    }
    last_index = row.grid_index;
    ckpt.rows.push_back(std::move(row));
  }
  return ckpt;
}

void validate_checkpoint(const SweepCheckpoint& checkpoint,
                         std::size_t grid_size,
                         const std::string& fingerprint) {
  if (checkpoint.fingerprint != fingerprint) {
    throw StatusError(
        Failure(ErrorCode::kInvalidConfig,
                "checkpoint was produced by a different sweep (grid spec, "
                "metrics, or config changed); refusing to resume")
            .with("checkpoint_fingerprint", checkpoint.fingerprint)
            .with("expected_fingerprint", fingerprint));
  }
  if (checkpoint.grid_size != grid_size) {
    throw StatusError(Failure(ErrorCode::kInvalidConfig,
                              "checkpoint grid size does not match")
                          .with("checkpoint_grid_size",
                                static_cast<std::int64_t>(checkpoint.grid_size))
                          .with("expected_grid_size",
                                static_cast<std::int64_t>(grid_size)));
  }
}

}  // namespace uld3d::dse
