#include "stats.hpp"

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace perfbench {

std::size_t samples_needed(double p) {
  // n * (1 - p/100) >= 10, with the tail share in whole permille so that
  // p = 90 or 99 does not round the answer off by one.
  const auto tail_permille = static_cast<std::size_t>(
      std::llround((100.0 - p) * 10.0));
  if (tail_permille == 0) return SIZE_MAX;
  return (10 * 1000 + tail_permille - 1) / tail_permille;
}

std::optional<double> percentile(std::vector<double> samples, double p) {
  if (samples.empty() || samples.size() < samples_needed(p)) {
    return std::nullopt;
  }
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(samples.size()));
  std::size_t idx = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  if (idx >= samples.size()) idx = samples.size() - 1;
  return samples[idx];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double wall_s() { return 1e-9 * static_cast<double>(wall_ns()); }

std::uint64_t wall_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace {
double tv_s(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
}
}  // namespace

double peak_rss_mb(int pid) {
  // VmHWM, not getrusage's ru_maxrss: the latter keeps the peak of the
  // pre-exec image, i.e. of whichever process launched the benchmark.
  const std::string path = pid == 0 ? std::string("/proc/self/status")
                                    : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0;
}

std::vector<int> child_pids() {
  std::vector<int> out;
  const std::string self = std::to_string(getpid());
  std::error_code ec;
  for (const auto& e : std::filesystem::directory_iterator("/proc", ec)) {
    const std::string name = e.path().filename().string();
    if (name.empty() || name.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    std::ifstream in(e.path() / "stat");
    std::string stat;
    std::getline(in, stat);
    // pid (comm) state ppid ...; comm may contain spaces, so parse after ')'.
    const auto close = stat.rfind(')');
    if (close == std::string::npos) continue;
    std::istringstream rest(stat.substr(close + 1));
    std::string state, ppid;
    rest >> state >> ppid;
    if (ppid == self) out.push_back(std::stoi(name));
  }
  return out;
}

double children_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_CHILDREN, &ru);
  return tv_s(ru.ru_utime) + tv_s(ru.ru_stime);
}


}  // namespace perfbench
