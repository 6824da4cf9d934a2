#include "uld3d/util/provenance.hpp"

#include <chrono>
#include <cstdio>
#include <ctime>
#include <sstream>

#include "uld3d/util/export.hpp"
#include "uld3d/util/parallel.hpp"
#include "uld3d/util/provenance_config.hpp"

#if defined(_WIN32)
// No gethostname without winsock; fall back to the environment.
#else
#include <sys/resource.h>
#include <unistd.h>
#endif

namespace uld3d {

namespace {

std::string capture_hostname() {
#if defined(_WIN32)
  const char* name = std::getenv("COMPUTERNAME");
  return name == nullptr ? std::string("unknown") : std::string(name);
#else
  char buffer[256] = {0};
  if (gethostname(buffer, sizeof(buffer) - 1) != 0) return "unknown";
  return buffer[0] == '\0' ? std::string("unknown") : std::string(buffer);
#endif
}

}  // namespace

std::int64_t peak_rss_kb() {
#if defined(_WIN32)
  return 0;
#else
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  // ru_maxrss is KiB on Linux, bytes on macOS.
#if defined(__APPLE__)
  return static_cast<std::int64_t>(usage.ru_maxrss) / 1024;
#else
  return static_cast<std::int64_t>(usage.ru_maxrss);
#endif
#endif
}

Provenance capture_provenance() {
  Provenance p;
  p.git_sha = ULD3D_PROV_GIT_SHA;
  p.git_dirty = ULD3D_PROV_GIT_DIRTY != 0;
  p.compiler =
      std::string(ULD3D_PROV_COMPILER_ID) + " " + ULD3D_PROV_COMPILER_VERSION;
  p.compiler_flags = ULD3D_PROV_CXX_FLAGS;
  p.build_type = ULD3D_PROV_BUILD_TYPE;
  p.system = ULD3D_PROV_SYSTEM;
  p.project_version = ULD3D_PROV_PROJECT_VERSION;
  p.hostname = capture_hostname();
  p.jobs = parallel::jobs();
  p.hardware_concurrency = parallel::hardware_concurrency();
  p.peak_rss_kb = peak_rss_kb();

  const auto now = std::chrono::system_clock::now();
  const std::time_t now_t = std::chrono::system_clock::to_time_t(now);
  p.unix_time_s = static_cast<std::int64_t>(now_t);
  std::tm utc{};
#if defined(_WIN32)
  gmtime_s(&utc, &now_t);
#else
  gmtime_r(&now_t, &utc);
#endif
  char stamp[80] = {0};
  std::snprintf(stamp, sizeof(stamp), "%04d-%02d-%02dT%02d:%02d:%02dZ",
                utc.tm_year + 1900, utc.tm_mon + 1, utc.tm_mday, utc.tm_hour,
                utc.tm_min, utc.tm_sec);
  p.timestamp_utc = stamp;
  return p;
}

std::uint64_t fnv1a_hash(std::string_view content) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (const char c : content) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

std::string fnv1a_hex(std::string_view content) {
  char buffer[17] = {0};
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(fnv1a_hash(content)));
  return buffer;
}

std::string provenance_json(const Provenance& p, int indent) {
  const std::string pad(static_cast<std::size_t>(indent < 0 ? 0 : indent),
                        ' ');
  std::ostringstream os;
  os << "{\n";
  const auto field = [&](const char* name, const std::string& value,
                         bool comma = true) {
    os << pad << "  \"" << name << "\": \"" << json_escape(value) << "\""
       << (comma ? ",\n" : "\n");
  };
  field("git_sha", p.git_sha);
  os << pad << "  \"git_dirty\": " << (p.git_dirty ? "true" : "false")
     << ",\n";
  field("compiler", p.compiler);
  field("compiler_flags", p.compiler_flags);
  field("build_type", p.build_type);
  field("system", p.system);
  field("project_version", p.project_version);
  field("hostname", p.hostname);
  field("timestamp_utc", p.timestamp_utc);
  os << pad << "  \"unix_time_s\": " << p.unix_time_s << ",\n";
  os << pad << "  \"jobs\": " << p.jobs << ",\n";
  os << pad << "  \"hardware_concurrency\": " << p.hardware_concurrency
     << ",\n";
  os << pad << "  \"peak_rss_kb\": " << p.peak_rss_kb << ",\n";
  os << pad << "  \"config_hashes\": {";
  for (std::size_t i = 0; i < p.config_hashes.size(); ++i) {
    if (i > 0) os << ",";
    os << "\n" << pad << "    \"" << json_escape(p.config_hashes[i].first)
       << "\": \"" << json_escape(p.config_hashes[i].second) << "\"";
  }
  if (!p.config_hashes.empty()) os << "\n" << pad << "  ";
  os << "}\n" << pad << "}";
  return os.str();
}

}  // namespace uld3d
