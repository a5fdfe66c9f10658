#pragma once

// Shared types of the ssr_perfbench program: run options, the per-repetition
// result a workload returns, and the metric report printed at the end.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "tracer.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory for spans and the process fleet's working files.
  std::string out_dir = ".";
  /// ssr_node binary (udp-fleet only).
  std::string node_bin;
};

/// Outcome of one repetition of a workload. Sim repetitions of one
/// (workload, seed) are identical executions, so everything except the
/// CPU and wall timings must repeat exactly; `signature` folds those
/// deterministic values together for the repeat check.
struct RepResult {
  double setup_wall_s = 0;
  /// CPU seconds of the whole repetition (set-up included).
  double total_cpu_s = 0;
  /// Seconds of system time (simulated, or wall for the process fleet)
  /// advanced per CPU second the system consumed (the benchmark's own CPU
  /// for the simulator, the node processes' CPU for the fleet).
  double sys_s_per_cpu_s = 0;
  /// Packets sent per node per system second of the measured phase.
  double pkts_per_node_s = 0;
  /// Completed attempts per system second of the measured phase.
  double completed_per_s = 0;
  /// Primary user-visible latency of each completed attempt, ms.
  std::vector<double> latency_ms;
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  double peak_rss_mb = 0;
  /// Per-layer values (deterministic counts and sim-time latencies).
  std::map<std::string, double> layer;
  /// Per-layer sample vectors, reduced to percentiles by the reporter.
  std::map<std::string, std::vector<double>> layer_samples;
  std::vector<std::string> errors;
  std::uint64_t signature = 0;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  /// Human-readable context (sample counts), printed beside the value.
  std::string note;
};

class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "");
  void error(const std::string& msg) { errors_.push_back(msg); }
  bool correct() const { return errors_.empty(); }
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Prints the readable table, the errors, and the final JSON line.
  void print(const std::string& fingerprint_json) const;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> errors_;
};

// -- Workloads ---------------------------------------------------------------

bool is_sim_workload(const std::string& name);
/// One repetition of a simulator workload; `tracer` null = untraced.
RepResult run_sim_rep(const std::string& workload, std::uint64_t seed,
                      Tracer* tracer);
/// Wall seconds to build the workload's world from `seed` and boot it to
/// its first convergence (the set-up of one repetition, alone).
double run_sim_setup(const std::string& workload, std::uint64_t seed,
                     std::vector<std::string>& errors);
/// One repetition of the process-fleet workload.
RepResult run_udp_rep(const RunOptions& opt, int rep, Tracer* tracer);

/// How much slower than nominal this host runs a fixed reference workload
/// right now (1.0 = nominal); see reference.cpp.
double host_slowdown();

/// Isolated per-layer kernels (traced run only).
void run_kernels(Report& r);

}  // namespace perfbench
