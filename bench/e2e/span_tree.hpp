// Stage trees built from TraceRecorder spans: one tree per thread, spans
// nested by time, repeated calls of one name under one parent merged into a
// single node.  A node's `unattributed` remainder is its time not covered
// by a child, so the children plus `unattributed` add up to the node.
//
// A node's layer is its span category, except for the benchmark's own
// spans (category "e2e"), whose layer is the name's first dotted part
// ("core.evaluate_edp" -> core).  Layers "e2e" and "fig" are the
// benchmark's structure; their self time is attributed to no module.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "uld3d/util/trace.hpp"

namespace uld3d::e2e {

struct SpanNode {
  std::string name;
  std::string layer;
  double total_us = 0.0;
  std::uint64_t calls = 0;
  std::vector<SpanNode> children;

  [[nodiscard]] double children_us() const;
  [[nodiscard]] double unattributed_us() const {
    return total_us - children_us();
  }
};

/// `v` printed with 17 significant digits, so that it reads back
/// bit-identical.
[[nodiscard]] std::string exact_number(double v);

class SpanForest {
 public:
  /// Fold in one batch of completed spans (e.g. one traced sample's).
  void add(const std::vector<TraceEvent>& events);

  /// Summed over every thread and tree position.
  [[nodiscard]] double total_us(std::string_view name) const;
  [[nodiscard]] std::uint64_t calls(std::string_view name) const;
  /// Self time (`unattributed_us`) of every node in `layer`.
  [[nodiscard]] double layer_self_us(std::string_view layer) const;
  /// Self time of the benchmark's own structure ("e2e" and "fig" layers).
  [[nodiscard]] double unattributed_us() const;

  /// The per-thread trees as JSON, every time divided by `samples`.
  [[nodiscard]] std::string to_json(double samples) const;

 private:
  /// Thread roots, keyed by flight-recorder thread id.  A root stands for
  /// no span; its total is the sum of its children.
  std::map<std::uint32_t, SpanNode> threads_;
};

}  // namespace uld3d::e2e
