// The host-speed reference: a fixed CPU workload that no change to the
// repository can speed up or slow down. It is shaped like the simulator's
// hot path — a binary heap of timed events where each event hashes a small
// pooled payload and schedules a successor — so a busy or throttled host
// slows it about as much as it slows the stack.

#include <cstdint>
#include <queue>
#include <vector>

#include "bench.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

constexpr int kEvents = 200'000;
constexpr std::size_t kLive = 2048;
constexpr std::size_t kPayload = 128;
/// CPU seconds one reference pass takes on a nominal host; normalized
/// timings are expressed against it.
constexpr double kNominalCpuS = 0.05;

volatile std::uint64_t g_sink = 0;

double one_pass() {
  struct Ev {
    std::uint64_t when;
    std::uint32_t slot;
    bool operator>(const Ev& o) const { return when > o.when; }
  };
  std::vector<std::vector<std::uint8_t>> payload(kLive,
                                                 std::vector<std::uint8_t>(kPayload));
  std::priority_queue<Ev, std::vector<Ev>, std::greater<>> heap;
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (std::uint32_t i = 0; i < kLive; ++i) heap.push(Ev{i, i});
  const double t0 = process_cpu_s();
  std::uint64_t acc = 0;
  for (int n = 0; n < kEvents; ++n) {
    const Ev e = heap.top();
    heap.pop();
    auto& p = payload[e.slot];
    std::uint32_t h = 2166136261u;
    for (std::uint8_t b : p) h = (h ^ b) * 16777619u;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    p[x % kPayload] = static_cast<std::uint8_t>(h);
    acc += h;
    heap.push(Ev{e.when + 1 + (x >> 54), static_cast<std::uint32_t>(x % kLive)});
  }
  const double took = process_cpu_s() - t0;
  g_sink = g_sink + acc;
  return took;
}

}  // namespace

double host_slowdown() {
  std::vector<double> passes;
  for (int i = 0; i < 3; ++i) passes.push_back(one_pass());
  return median(passes) / kNominalCpuS;
}

}  // namespace perfbench
