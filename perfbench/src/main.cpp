// ssr_perfbench — the repository benchmark program.
//
//   ssr_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--out-dir <dir>] [--node-bin <ssr_node>] [--source-id <id>]
//
// Untraced (--trace 0): repeats the workload for about --seconds and prints
// the end-to-end metrics. Traced (--trace 1): one untraced and one traced
// repetition of the same seed, then the isolated kernels; prints the
// per-layer metrics and writes the spans under --out-dir. The last stdout
// line is one JSON object {correct, attempted, failed, metrics}. Exit code
// 0 only when every correctness check passed.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "bench.hpp"
#include "stats.hpp"

#ifndef SSR_PERFBENCH_COMPILER
#define SSR_PERFBENCH_COMPILER "unknown"
#endif
#ifndef SSR_PERFBENCH_BUILD_TYPE
#define SSR_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

constexpr std::size_t kMinReps = 3;
/// Extra simulator set-ups after every repetition (the same seed, so the
/// same execution): setup_s is a median over many boots, not over the few
/// repetitions that fit in a run.
constexpr int kSetupsPerRep = 4;

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_ext = __get_cpuid_max(0x80000000u, nullptr);
  if (max_ext >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto b = s.find_first_not_of(' ');
    const auto e = s.find_last_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b, e - b + 1);
  }
#endif
  return "unknown";
}

std::string fingerprint_json(const std::string& source_id) {
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  return "{\"nproc\": " + std::to_string(nproc) + ", \"cpu\": \"" +
         json_escape(cpu_model()) + "\", \"compiler\": \"" +
         json_escape(SSR_PERFBENCH_COMPILER) + "\", \"build_type\": \"" +
         json_escape(SSR_PERFBENCH_BUILD_TYPE) + "\", \"source\": \"" +
         json_escape(source_id) + "\"}";
}

int usage() {
  std::fprintf(stderr,
               "usage: ssr_perfbench --workload <idle-closure|transient-storm|"
               "client-churn|udp-fleet> --seed N --seconds S --trace 0|1 "
               "[--out-dir DIR] [--node-bin PATH] [--source-id ID]\n");
  return 2;
}

RepResult run_rep(const RunOptions& opt, int rep, Tracer* tr) {
  return is_sim_workload(opt.workload)
             ? run_sim_rep(opt.workload, opt.seed, tr)
             : run_udp_rep(opt, rep, tr);
}

std::string n_note(std::size_t n) { return "n=" + std::to_string(n); }

// -- End-to-end (untraced) ---------------------------------------------------

void end_to_end(const RunOptions& opt, Report& report) {
  const bool sim = is_sim_workload(opt.workload);
  std::vector<RepResult> reps;
  // CPU-bound timings are divided by the host slowdown measured around each
  // repetition (the mean of the reference runs just before and just after
  // it), so swings in the speed of a shared host cancel out; the raw
  // medians are printed beside them.
  std::vector<double> setup, setup_raw, eff, eff_raw;
  double slow_before = host_slowdown();
  const double t0 = wall_s();
  for (;;) {
    reps.push_back(run_rep(opt, static_cast<int>(reps.size()), nullptr));
    const RepResult& r = reps.back();
    for (const auto& e : r.errors) report.error(e);
    if (!r.errors.empty()) break;
    if (sim && r.signature != reps.front().signature) {
      report.error("repetition " + std::to_string(reps.size() - 1) +
                   " diverged from repetition 0 (nondeterministic run)");
      break;
    }
    std::vector<double> rep_setups{r.setup_wall_s};
    if (sim) {
      std::vector<std::string> errors;
      for (int k = 0; k < kSetupsPerRep; ++k) {
        rep_setups.push_back(run_sim_setup(opt.workload, opt.seed, errors));
      }
      for (const auto& e : errors) report.error(e);
      if (!errors.empty()) break;
    }
    const double slow_after = host_slowdown();
    const double slow = 0.5 * (slow_before + slow_after);
    slow_before = slow_after;
    std::fprintf(stderr,
                 "rep %zu: setup %.4f s, %.4f system s per CPU s, host "
                 "slowdown %.3f\n",
                 reps.size() - 1, r.setup_wall_s, r.sys_s_per_cpu_s, slow);
    for (double s : rep_setups) {
      setup_raw.push_back(s);
      // The fleet's set-up waits on real timers, not on the CPU.
      setup.push_back(sim ? s / slow : s);
    }
    eff_raw.push_back(r.sys_s_per_cpu_s);
    eff.push_back(r.sys_s_per_cpu_s * slow);
    const double elapsed = wall_s() - t0;
    const double per_rep = elapsed / static_cast<double>(reps.size());
    if (reps.size() >= kMinReps && elapsed + per_rep > opt.seconds) break;
  }

  const RepResult& r0 = reps.front();
  std::vector<double> pkts, p50, p90, rate, rss;
  for (const RepResult& r : reps) {
    pkts.push_back(r.pkts_per_node_s);
    rate.push_back(r.completed_per_s);
    rss.push_back(r.peak_rss_mb);
    // Percentiles are exact per repetition; sim repetitions are identical,
    // process repetitions are summarized by their median.
    if (auto v = percentile(r.latency_ms, 50)) p50.push_back(*v);
    if (auto v = percentile(r.latency_ms, 90)) p90.push_back(*v);
  }
  const std::string reps_note = "median of " + std::to_string(reps.size()) +
                                " repetitions";
  report.add("setup_s", median(setup), "s",
             "median of " + std::to_string(setup.size()) + " set-ups" +
                 (sim ? ", host-normalized; raw " + fmt(median(setup_raw))
                      : std::string()));
  report.add("system_s_per_cpu_s", median(eff), "s/s",
             reps_note + ", host-normalized; raw " + fmt(median(eff_raw)));
  report.add("pkts_per_node_s", median(pkts), "1/s",
             sim ? "deterministic" : reps_note);
  const std::string lat_note =
      n_note(r0.latency_ms.size()) + " per repetition" +
      (sim ? "" : ", " + reps_note);
  if (p50.empty() || p90.empty()) {
    report.error("too few latency samples (" +
                 std::to_string(r0.latency_ms.size()) + ") for p90");
  } else {
    report.add("latency_ms_p50", median(p50), "ms", lat_note);
    report.add("latency_ms_p90", median(p90), "ms", lat_note);
  }
  report.add("completed_per_s", median(rate), "1/s",
             sim ? "deterministic" : reps_note);
  double peak = 0;
  for (double v : rss) peak = std::max(peak, v);
  report.add("peak_rss_mb", peak, "MB", "max over repetitions");
  // Simulator repetitions repeat one execution; fleet repetitions are
  // independent, so every one of them counts.
  for (std::size_t i = 0; i < (sim ? 1 : reps.size()); ++i) {
    report.attempted += reps[i].attempted;
    report.failed += reps[i].failed;
  }
}

/// Adds one percentile metric from raw samples with the sample count in its
/// note; 0 with an "unsupported" note when the sample is too small.
void add_percentile(Report& r, const std::string& name,
                    const std::vector<double>& samples, double p,
                    const std::string& unit) {
  const auto v = percentile(samples, p);
  const std::string note =
      n_note(samples.size()) +
      (v ? "" : ", below the " + std::to_string(samples_needed(p)) +
                    " samples this percentile needs: reported as 0");
  r.add(name, v.value_or(0.0), unit, note);
}

// -- Per-layer (traced) ------------------------------------------------------

struct LayerValue {
  const char* name;
  const char* unit;
};

/// Layer values read directly from the traced repetition.
constexpr LayerValue kLayerValues[] = {
    {"sim.events_per_sim_s", "1/s"},
    {"sim.slots_total", "count"},
    {"net.pkts_sent", "count"},
    {"net.delivered_share", "share"},
    {"net.lost_share", "share"},
    {"net.overflow_share", "share"},
    {"wire.pool_reuse_share", "share"},
    {"dlink.pkts_per_link_s", "1/s"},
    {"dlink.rounds_per_link_s", "1/s"},
    {"dlink.fresh_share", "share"},
    {"dlink.stale_discarded", "count"},
    {"dlink.cleans", "count"},
    {"reconf.boot_converge_ms", "ms"},
    {"reconf.config_changes", "count"},
    {"reconf.resets", "count"},
    {"reconf.brute_installs", "count"},
    {"reconf.delicate_installs", "count"},
    {"reconf.stale_detected", "count"},
    {"reconf.recma_triggers", "count"},
    {"reconf.joins", "count"},
    {"label.created", "count"},
    {"label.cancellations", "count"},
    {"counter.exhaust_cancels", "count"},
    {"shmem.server_aborts", "count"},
    {"vs.views_installed", "count"},
    {"vs.rounds_per_sim_s", "1/s"},
    {"vs.suspensions", "count"},
    {"udp.datagrams_per_syscall", "count"},
    {"udp.batched_share", "share"},
    {"udp.pkts_per_node_s", "1/s"},
    {"udp.dropped_malformed", "count"},
};

struct LayerPercentile {
  const char* name;
  const char* samples;
  double p;
};

constexpr LayerPercentile kLayerPercentiles[] = {
    {"fd.detect_ms_p50", "fd.detect_ms", 50},
    {"label.legit_ms_p50", "label.legit_ms", 50},
    {"counter.inc_ms_p50", "counter.inc_ms", 50},
    {"counter.inc_ms_p99", "counter.inc_ms", 99},
    {"shmem.read_ms_p50", "shmem.read_ms", 50},
    {"shmem.read_ms_p99", "shmem.read_ms", 99},
    {"shmem.write_ms_p50", "shmem.write_ms", 50},
    {"shmem.write_ms_p99", "shmem.write_ms", 99},
    {"vs.stable_ms_p50", "vs.stable_ms", 50},
    {"client.unavailable_ms_p50", "client.unavailable_ms", 50},
};

double value_or_zero(const std::map<std::string, double>& m,
                     const std::string& k) {
  auto it = m.find(k);
  return it == m.end() ? 0.0 : it->second;
}

/// Failed attempts (⊥ or refused) over all attempts of one client layer.
double abort_share(const RepResult& r, const std::string& layer) {
  const double aborts = value_or_zero(r.layer, layer + ".aborts");
  const double refused = value_or_zero(r.layer, layer + ".refused");
  const double attempts = value_or_zero(r.layer, layer + ".attempts");
  return attempts + refused > 0 ? (aborts + refused) / (attempts + refused)
                                : 0.0;
}

void per_layer(const RunOptions& opt, Report& report) {
  // The overhead compares CPU at nominal host speed, like the end-to-end
  // timings (each repetition bracketed by reference runs).
  const double slow0 = host_slowdown();
  const RepResult u = run_rep(opt, 0, nullptr);
  const double slow1 = host_slowdown();
  Tracer tracer;
  const RepResult t = run_rep(opt, 1, &tracer);
  const double slow2 = host_slowdown();
  for (const auto& e : u.errors) report.error(e);
  for (const auto& e : t.errors) report.error(e);
  if (is_sim_workload(opt.workload) && u.signature != t.signature) {
    report.error("traced and untraced repetitions of one seed differ in "
                 "their deterministic counts");
  }
  report.attempted = t.attempted;
  report.failed = t.failed;

  for (const LayerValue& lv : kLayerValues) {
    report.add(lv.name, value_or_zero(t.layer, lv.name), lv.unit);
  }
  // A rate per CPU second is a timing: take it from the untraced twin.
  report.add("sim.events_per_cpu_s",
             value_or_zero(u.layer, "sim.events_per_cpu_s"), "1/s");
  std::vector<double> steps(tracer.step_ns().begin(), tracer.step_ns().end());
  add_percentile(report, "sim.step_ns_p50", steps, 50, "ns");
  add_percentile(report, "sim.step_ns_p99", steps, 99, "ns");
  for (const LayerPercentile& lp : kLayerPercentiles) {
    auto it = t.layer_samples.find(lp.samples);
    add_percentile(report, lp.name,
                   it == t.layer_samples.end() ? std::vector<double>{}
                                               : it->second,
                   lp.p, "ms");
  }
  report.add("counter.abort_share", abort_share(t, "counter"), "share");
  report.add("shmem.abort_share", abort_share(t, "shmem"), "share");
  run_kernels(report);
  report.add("trace.overhead_share",
             (t.total_cpu_s / (slow1 + slow2)) / (u.total_cpu_s / (slow0 + slow1)) -
                 1.0,
             "share",
             "traced " + fmt(t.total_cpu_s) + " s vs untraced " +
                 fmt(u.total_cpu_s) + " s CPU, " +
                 std::to_string(tracer.spans()) + " spans");

  const std::string path = opt.out_dir + "/spans-" + opt.workload + "-seed" +
                           std::to_string(opt.seed) + ".jsonl";
  if (!tracer.write_jsonl(path)) report.error("cannot write " + path);
}

}  // namespace

void Report::add(const std::string& name, double value,
                 const std::string& unit, const std::string& note) {
  if (!std::isfinite(value)) {
    error("metric " + name + " is not a finite number");
    value = 0;
  }
  metrics_.push_back(Metric{name, value, unit, note});
}

void Report::print(const std::string& fingerprint) const {
  for (const Metric& m : metrics_) {
    std::printf("  %-34s %18.6f %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  for (const std::string& e : errors_) {
    std::printf("  CORRECTNESS: %s\n", e.c_str());
  }
  std::printf("fingerprint %s\n", fingerprint.c_str());
  std::string json = "{\"correct\": ";
  json += correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    if (i != 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + fmt(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::RunOptions opt;
  std::string source_id = "unknown";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return perfbench::usage();
    const std::string v = argv[++i];
    if (a == "--workload") {
      opt.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v.c_str(), nullptr);
    } else if (a == "--trace") {
      opt.trace = v == "1";
    } else if (a == "--out-dir") {
      opt.out_dir = v;
    } else if (a == "--node-bin") {
      opt.node_bin = v;
    } else if (a == "--source-id") {
      source_id = v;
    } else {
      return perfbench::usage();
    }
  }
  if (!have_workload || opt.seconds <= 0) return perfbench::usage();
  if (!perfbench::is_sim_workload(opt.workload) &&
      opt.workload != "udp-fleet") {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  if (opt.workload == "udp-fleet" && opt.node_bin.empty()) {
    std::fprintf(stderr, "udp-fleet needs --node-bin\n");
    return 2;
  }

  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds,
              opt.trace ? 1 : 0);
  perfbench::Report report;
  if (opt.trace) {
    perfbench::per_layer(opt, report);
  } else {
    perfbench::end_to_end(opt, report);
  }
  report.print(perfbench::fingerprint_json(source_id));
  return report.correct() ? 0 : 1;
}
