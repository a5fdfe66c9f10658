#include "tracer.hpp"

#include <cstdio>

#include "stats.hpp"

namespace perfbench {

Tracer::Tracer() : origin_ns_(wall_ns()) {
  spans_.reserve(1 << 16);
  spans_.emplace_back();  // slot 0 is kNone
}

Tracer::SpanId Tracer::begin(const char* name, SpanId parent,
                             ssr::SimTime sim_now) {
  Span s;
  s.name = name;
  s.parent = parent;
  s.start_ns = wall_ns() - origin_ns_;
  s.sim_start = sim_now;
  spans_.push_back(s);
  return static_cast<SpanId>(spans_.size() - 1);
}

void Tracer::end(SpanId id, ssr::SimTime sim_now) {
  if (id == kNone || id >= spans_.size()) return;
  spans_[id].end_ns = wall_ns() - origin_ns_;
  spans_[id].sim_end = sim_now;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (std::size_t i = 1; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"parent\":%u,\"start_ns\":%llu,"
                 "\"end_ns\":%llu,\"sim_start_us\":%llu,\"sim_end_us\":%llu}\n",
                 i, s.name, s.parent,
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns),
                 static_cast<unsigned long long>(s.sim_start),
                 static_cast<unsigned long long>(s.sim_end));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
