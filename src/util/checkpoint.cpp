#include "uld3d/util/checkpoint.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <fstream>

#include "uld3d/util/check.hpp"
#include "uld3d/util/log.hpp"

namespace uld3d {

namespace {

// Only async-signal-safe operations are allowed in a handler; a volatile
// sig_atomic_t store is the canonical one.
volatile std::sig_atomic_t g_interrupt_requested = 0;
volatile std::sig_atomic_t g_interrupt_signal = 0;

extern "C" void interrupt_handler(int signal_number) {
  g_interrupt_requested = 1;
  g_interrupt_signal = signal_number;
}

/// Flush OS buffers to stable storage so the subsequent rename publishes a
/// fully-persisted file (rename alone is enough for kill-safety; fsync adds
/// power-loss safety).  Best-effort: a filesystem without fsync support
/// must not fail the write.
void best_effort_fsync(const std::string& path) {
  const int fd = ::open(path.c_str(), O_WRONLY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

}  // namespace

bool write_file_atomic(const std::string& path, const std::string& content) {
  expects(!path.empty(), "atomic write needs a destination path");
  const std::string temp_path =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  {
    std::ofstream file(temp_path, std::ios::binary | std::ios::trunc);
    if (!file) {
      log_warning("could not open temp file for atomic write: " + temp_path);
      return false;
    }
    file << content;
    file.flush();
    if (!file.good()) {
      file.close();
      std::remove(temp_path.c_str());
      log_warning("short write to temp file (disk full?): " + temp_path);
      return false;
    }
  }
  best_effort_fsync(temp_path);
  if (std::rename(temp_path.c_str(), path.c_str()) != 0) {
    std::remove(temp_path.c_str());
    log_warning("could not rename temp file into place: " + temp_path +
                " -> " + path);
    return false;
  }
  return true;
}

void install_interrupt_handlers() {
  std::signal(SIGINT, interrupt_handler);
  std::signal(SIGTERM, interrupt_handler);
}

bool interrupt_requested() { return g_interrupt_requested != 0; }

int interrupt_signal() { return static_cast<int>(g_interrupt_signal); }

void set_interrupt_requested(bool requested) {
  g_interrupt_requested = requested ? 1 : 0;
  if (!requested) g_interrupt_signal = 0;
}

}  // namespace uld3d
