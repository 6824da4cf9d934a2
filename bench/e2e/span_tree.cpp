#include "span_tree.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "uld3d/util/export.hpp"
#include "uld3d/util/flightrec.hpp"

namespace uld3d::e2e {

namespace {

std::string layer_of(const TraceEvent& e) {
  if (e.category != "e2e") return e.category;
  return e.name.substr(0, e.name.find('.'));
}

SpanNode& child_named(SpanNode& parent, const TraceEvent& e) {
  for (SpanNode& child : parent.children) {
    if (child.name == e.name) return child;
  }
  SpanNode& child = parent.children.emplace_back();
  child.name = e.name;
  child.layer = layer_of(e);
  return child;
}

template <typename F>
void visit(const SpanNode& node, const F& f) {
  f(node);
  for (const SpanNode& child : node.children) visit(child, f);
}

void write_node(std::ostringstream& os, const SpanNode& node, double samples) {
  os << "{\"name\": \"" << json_escape(node.name) << "\", \"layer\": \""
     << json_escape(node.layer)
     << "\", \"ms\": " << exact_number(node.total_us / 1000.0 / samples)
     << ", \"calls\": " << exact_number(static_cast<double>(node.calls) / samples);
  if (!node.children.empty()) {
    os << ", \"unattributed_ms\": "
       << exact_number(node.unattributed_us() / 1000.0 / samples)
       << ", \"children\": [";
    for (std::size_t i = 0; i < node.children.size(); ++i) {
      if (i > 0) os << ", ";
      write_node(os, node.children[i], samples);
    }
    os << "]";
  }
  os << "}";
}

}  // namespace

std::string exact_number(double v) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", v);
  return buffer;
}

double SpanNode::children_us() const {
  double sum = 0.0;
  for (const SpanNode& child : children) sum += child.total_us;
  return sum;
}

void SpanForest::add(const std::vector<TraceEvent>& events) {
  std::map<std::uint32_t, std::vector<const TraceEvent*>> by_thread;
  for (const TraceEvent& e : events) by_thread[e.tid].push_back(&e);
  for (auto& [tid, spans] : by_thread) {
    // Outer spans first: earlier start, or the longer of two equal starts.
    std::sort(spans.begin(), spans.end(),
              [](const TraceEvent* a, const TraceEvent* b) {
                return a->ts_us != b->ts_us ? a->ts_us < b->ts_us
                                            : a->dur_us > b->dur_us;
              });
    SpanNode& root = threads_[tid];
    if (root.name.empty()) {
      root.name = std::string("thread ") + std::to_string(tid) + " " +
                  flightrec::thread_name(tid);
      root.layer = "thread";
    }
    // Open spans, innermost last, with their end times.  Only the innermost
    // gains children and every other entry is its ancestor, so growing a
    // child list never moves a node the stack points to.
    std::vector<std::pair<SpanNode*, double>> open;
    for (const TraceEvent* e : spans) {
      while (!open.empty() && e->ts_us >= open.back().second) open.pop_back();
      SpanNode& node = child_named(open.empty() ? root : *open.back().first, *e);
      node.total_us += e->dur_us;
      node.calls += 1;
      open.emplace_back(&node, e->ts_us + e->dur_us);
    }
    root.total_us = root.children_us();
  }
}

double SpanForest::total_us(std::string_view name) const {
  double sum = 0.0;
  for (const auto& [tid, root] : threads_) {
    visit(root, [&](const SpanNode& n) {
      if (n.name == name) sum += n.total_us;
    });
  }
  return sum;
}

std::uint64_t SpanForest::calls(std::string_view name) const {
  std::uint64_t sum = 0;
  for (const auto& [tid, root] : threads_) {
    visit(root, [&](const SpanNode& n) {
      if (n.name == name) sum += n.calls;
    });
  }
  return sum;
}

double SpanForest::layer_self_us(std::string_view layer) const {
  double sum = 0.0;
  for (const auto& [tid, root] : threads_) {
    visit(root, [&](const SpanNode& n) {
      if (n.layer == layer) sum += n.unattributed_us();
    });
  }
  return sum;
}

double SpanForest::unattributed_us() const {
  return layer_self_us("e2e") + layer_self_us("fig");
}

std::string SpanForest::to_json(double samples) const {
  std::ostringstream os;
  os << "[";
  bool first = true;
  for (const auto& [tid, root] : threads_) {
    if (!first) os << ", ";
    first = false;
    write_node(os, root, samples);
  }
  os << "]";
  return os.str();
}

}  // namespace uld3d::e2e
