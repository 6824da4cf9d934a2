// Crashes a sweep on purpose, for the fatal-path tests (DESIGN.md §15):
// arms the postmortem dumper, opens an events stream, and raises SIGSEGV
// inside the third evaluation of a run_sweep at jobs 2.  The process dies
// by the signal; tests/cli_postmortem.sh and the CI ASan job check the dump
// it leaves and join it to the event stream with uld3d-report.
//
// Usage: crash_sweep_driver EVENTS.ndjson DUMP.json
#include <atomic>
#include <csignal>
#include <iostream>
#include <vector>

#include "uld3d/dse/sweep.hpp"
#include "uld3d/util/flightrec.hpp"
#include "uld3d/util/provenance.hpp"
#include "uld3d/util/telemetry.hpp"

int main(int argc, char** argv) {
  using namespace uld3d;
  if (argc != 3) {
    std::cerr << "usage: crash_sweep_driver EVENTS.ndjson DUMP.json\n";
    return 2;
  }
  set_current_run_context(make_run_context());
  EventSink& sink = EventSink::instance();
  if (!sink.open(argv[1])) return 1;
  sink.emit_run_start(capture_provenance(), "crash_sweep_driver");
  if (!flightrec::install_postmortem(argv[2])) return 1;

  dse::Grid grid;
  grid.axis("x", {0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0});
  std::atomic<int> evaluations{0};
  dse::SweepOptions options;
  options.jobs = 2;
  static_cast<void>(dse::run_sweep(
      grid, {"y"},
      [&evaluations](const std::vector<double>& p) {
        if (evaluations.fetch_add(1) + 1 == 3) std::raise(SIGSEGV);
        return std::vector<double>{p[0]};
      },
      options));
  std::cerr << "crash_sweep_driver: the sweep finished without crashing\n";
  return 1;
}
