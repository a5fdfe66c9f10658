#pragma once

// In-memory span recorder for the traced run. Spans are taken only around
// the benchmark's own calls into the stack's public API (nothing inside
// src/ is instrumented) and are written out once, when the run ends.

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "util/types.hpp"

namespace perfbench {

class Tracer {
 public:
  using SpanId = std::uint32_t;
  static constexpr SpanId kNone = 0;

  Tracer();

  /// Opens a span; `name` must be a string literal (stored by pointer).
  SpanId begin(const char* name, SpanId parent, ssr::SimTime sim_now);
  void end(SpanId id, ssr::SimTime sim_now);

  /// One timed scheduler step.
  void record_step(std::uint64_t ns) { step_ns_.push_back(ns); }
  const std::vector<std::uint64_t>& step_ns() const { return step_ns_; }

  std::size_t spans() const { return spans_.size(); }
  /// Writes every span as one JSON object per line; false on I/O error.
  bool write_jsonl(const std::string& path) const;

 private:
  struct Span {
    const char* name = "";
    SpanId parent = kNone;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    ssr::SimTime sim_start = 0;
    ssr::SimTime sim_end = 0;
  };

  std::uint64_t origin_ns_;
  std::vector<Span> spans_;
  std::vector<std::uint64_t> step_ns_;
};

/// Wraps one call into the stack in a span when tracing; a plain call
/// otherwise.
template <class Fn>
auto traced(Tracer* tr, const char* name, Tracer::SpanId parent,
            ssr::SimTime sim_now, Fn&& fn) {
  if (tr == nullptr) return fn();
  const Tracer::SpanId id = tr->begin(name, parent, sim_now);
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    tr->end(id, sim_now);
  } else {
    auto result = fn();
    tr->end(id, sim_now);
    return result;
  }
}

}  // namespace perfbench
