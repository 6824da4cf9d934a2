// One in-process pass over every row of EXPERIMENTS.md: the paper's tables
// and figures plus the extension experiments.  Each row calls the same
// public functions as its per-figure bench binary, prints nothing, and
// returns the values that binary records, so they can be checked against
// its committed baseline.  Every library call is wrapped in a TraceSpan of
// category "e2e" named after the called layer (span_tree.hpp).
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "checks.hpp"
#include "uld3d/accel/case_study.hpp"
#include "uld3d/phys/m3d_flow.hpp"
#include "uld3d/util/trace.hpp"

namespace uld3d::e2e {

/// Run `f` inside a span named after the layer it calls into.
template <typename F>
auto call(std::string_view name, const F& f) {
  TraceSpan span(name, "e2e");
  return f();
}

struct PaperRow {
  /// The bench suite whose BENCH_<suite>.json holds the expected values
  /// (golden/<suite>.json for rows without a bench binary).
  std::string suite;
  std::vector<NamedValue> (*compute)();
};

/// The rows in EXPERIMENTS.md order.
[[nodiscard]] const std::vector<PaperRow>& paper_rows();

/// The phys flow input of the case study, as bench_fig2_physical_design
/// builds it.
[[nodiscard]] phys::FlowInput case_study_flow_input(
    const accel::CaseStudy& study);

}  // namespace uld3d::e2e
