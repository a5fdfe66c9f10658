#pragma once

// Sample statistics and the process clocks the benchmark measures with.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// Exact nearest-rank percentile of raw samples (p in (0, 100]), or nullopt
/// when fewer than 10 samples lie beyond the requested rank: a percentile
/// is only reported when the tail it claims to describe was observed.
std::optional<double> percentile(std::vector<double> samples, double p);

/// Smallest sample count for which percentile(p) is reported.
std::size_t samples_needed(double p);

/// Median (mean of the middle pair for even sizes); 0 when empty.
double median(std::vector<double> v);

/// CPU seconds consumed by this process (all threads).
double process_cpu_s();
/// Monotonic wall seconds.
double wall_s();
/// Monotonic nanoseconds, for step and span timing.
std::uint64_t wall_ns();
/// Peak resident set (VmHWM) of process `pid` (0 = this process), MiB.
double peak_rss_mb(int pid = 0);
/// Live child processes of this process.
std::vector<int> child_pids();
/// CPU seconds of waited-for child processes.
double children_cpu_s();

}  // namespace perfbench
