// udp-fleet: 3 ssr_node processes over localhost UDP, driven by
// scenario::ProcessRunner from a generated ScenarioSpec. After the fleet
// converges, every node runs a closed loop of sequential counter increments
// queued through its control socket. Latencies are exact, from the
// start/finish stamps each daemon reports per completed increment (OPS);
// packet and syscall counts come from STATUS before and after the loop.

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "scenario/control.hpp"
#include "scenario/process_runner.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

using ssr::kSec;
using ssr::NodeId;
namespace ctl = ssr::scenario::ctl;

constexpr std::size_t kFleetNodes = 3;
constexpr std::uint64_t kIncrementsPerNode = 200;
constexpr double kConvergeBudgetS = 60;

struct NodeCounters {
  double sent = 0, recv = 0, syscalls = 0, batched = 0, malformed = 0;
};

std::optional<std::uint16_t> control_port(const std::string& dir, NodeId id) {
  std::ifstream in(dir + "/port." + std::to_string(id));
  unsigned data = 0, port = 0;
  if (!(in >> data >> port) || port == 0) return std::nullopt;
  return static_cast<std::uint16_t>(port);
}

std::optional<NodeCounters> status(ctl::ControlClient& client,
                                   std::uint16_t port, Tracer* tr) {
  auto reply = traced(tr, "ControlClient::request(STATUS)", Tracer::kNone, 0,
                      [&] { return client.request(port, "STATUS"); });
  if (!reply || reply->rfind("OK", 0) != 0) return std::nullopt;
  const auto kv = ctl::parse_kv(reply->substr(2));
  auto num = [&](const char* k) {
    auto it = kv.find(k);
    return it == kv.end() ? 0.0 : std::strtod(it->second.c_str(), nullptr);
  };
  return NodeCounters{num("sent"), num("recv"), num("syscalls"),
                      num("batched"), num("malformed")};
}

/// Every completed increment of one daemon as (start, finish) µs stamps.
bool completed_ops(ctl::ControlClient& client, std::uint16_t port, Tracer* tr,
                   std::vector<std::pair<double, double>>& out) {
  std::size_t from = 0;
  for (;;) {
    auto reply =
        traced(tr, "ControlClient::request(OPS)", Tracer::kNone, 0, [&] {
          return client.request(port, "OPS " + std::to_string(from));
        });
    if (!reply || reply->rfind("OK", 0) != 0) return false;
    std::istringstream is(reply->substr(2));
    std::string tok;
    std::size_t total = 0;
    std::size_t got = 0;
    while (is >> tok) {
      if (tok.rfind("total=", 0) == 0) {
        total = std::strtoull(tok.c_str() + 6, nullptr, 10);
      } else if (tok.rfind("op=", 0) == 0) {
        const auto c1 = tok.find(':', 3);
        const auto c2 = tok.find(':', c1 + 1);
        if (c1 == std::string::npos || c2 == std::string::npos) return false;
        out.emplace_back(std::strtod(tok.substr(3, c1 - 3).c_str(), nullptr),
                         std::strtod(tok.substr(c1 + 1, c2 - c1 - 1).c_str(),
                                     nullptr));
        ++got;
      }
    }
    from += got;
    if (from >= total) return true;
    if (got == 0) return false;
  }
}

}  // namespace

RepResult run_udp_rep(const RunOptions& opt, int rep, Tracer* tr) {
  RepResult r;
  namespace sc = ssr::scenario;
  sc::ScenarioSpec spec;
  spec.name = "udp-fleet";
  spec.initial_nodes = kFleetNodes;
  sc::ProcessBackendOptions po;
  po.node_binary = opt.node_bin;
  po.work_dir = opt.out_dir + "/fleet-seed" + std::to_string(opt.seed) +
                "-rep" + std::to_string(rep);
  po.seed = opt.seed;
  po.node_seconds = 170;  // daemons exit on their own even if we die

  const double cpu0 = process_cpu_s();
  const double child_cpu0 = children_cpu_s();
  const double w0 = wall_s();
  {
    sc::ProcessRunner runner(spec, po);
    if (!traced(tr, "ProcessRunner::bootstrap", Tracer::kNone, 0,
                [&] { return runner.bootstrap(); })) {
      r.errors.push_back("udp-fleet: " + runner.failure());
      return r;
    }
    for (;;) {
      traced(tr, "ProcessRunner::sample", Tracer::kNone, 0,
             [&] { return runner.sample(); });
      if (runner.converged_sampled()) break;
      if (runner.failed() || wall_s() - w0 > kConvergeBudgetS) {
        r.errors.push_back("udp-fleet: no convergence within 60 s " +
                           runner.failure());
        return r;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    r.setup_wall_s = wall_s() - w0;

    ctl::ControlClient client;
    std::vector<std::uint16_t> ports;
    for (NodeId id : runner.alive_ids()) {
      auto p = control_port(po.work_dir, id);
      if (!p) {
        r.errors.push_back("udp-fleet: no control port for node " +
                           std::to_string(id));
        return r;
      }
      ports.push_back(*p);
    }
    auto sum_status = [&](NodeCounters& total) {
      for (std::uint16_t port : ports) {
        auto s = status(client, port, tr);
        if (!s) return false;
        total.sent += s->sent;
        total.recv += s->recv;
        total.syscalls += s->syscalls;
        total.batched += s->batched;
        total.malformed += s->malformed;
      }
      return true;
    };
    NodeCounters before, after;
    const double m0 = wall_s();
    if (!sum_status(before)) r.errors.push_back("udp-fleet: STATUS failed");
    traced(tr, "ProcessRunner::step(increment_burst)", Tracer::kNone, 0, [&] {
      runner.step(sc::Action::increment_burst(kIncrementsPerNode));
    });
    if (!sum_status(after)) r.errors.push_back("udp-fleet: STATUS failed");
    const double m1 = wall_s();

    std::vector<std::pair<double, double>> ops;
    for (std::uint16_t port : ports) {
      if (!completed_ops(client, port, tr, ops)) {
        r.errors.push_back("udp-fleet: OPS failed");
      }
    }
    traced(tr, "ProcessRunner::step(await_converged)", Tracer::kNone, 0, [&] {
      runner.step(sc::Action::await_converged(60 * kSec));
    });
    const sc::ScenarioResult res = runner.finish();
    if (!res.failure.empty()) r.errors.push_back("udp-fleet: " + res.failure);
    for (const auto& v : res.violations) {
      r.errors.push_back(v.invariant + ": " + v.message);
    }

    r.attempted = kIncrementsPerNode * ports.size();
    r.completed = ops.size();
    r.failed = r.attempted > r.completed ? r.attempted - r.completed : 0;
    double first = 0, last = 0;
    for (const auto& [start, finish] : ops) {
      r.latency_ms.push_back((finish - start) / 1000.0);
      if (first == 0 || start < first) first = start;
      last = std::max(last, finish);
    }
    r.layer_samples["counter.inc_ms"] = r.latency_ms;
    const double span_s = (last - first) / 1e6;
    r.completed_per_s = span_s > 0 ? static_cast<double>(ops.size()) / span_s : 0;
    const double nodes = static_cast<double>(ports.size());
    const double sent = after.sent - before.sent;
    r.pkts_per_node_s = sent / nodes / (m1 - m0);
    auto& L = r.layer;
    L["udp.pkts_per_node_s"] = r.pkts_per_node_s;
    const double syscalls = after.syscalls - before.syscalls;
    L["udp.datagrams_per_syscall"] =
        syscalls > 0 ? (sent + after.recv - before.recv) / syscalls : 0;
    L["udp.batched_share"] =
        sent > 0 ? (after.batched - before.batched) / sent : 0;
    L["udp.dropped_malformed"] = after.malformed;
    r.peak_rss_mb = peak_rss_mb();
    for (int pid : child_pids()) {
      r.peak_rss_mb = std::max(r.peak_rss_mb, peak_rss_mb(pid));
    }
  }  // ~ProcessRunner kills and reaps the daemons
  const double fleet_wall = wall_s() - w0;
  const double fleet_cpu = children_cpu_s() - child_cpu0;
  r.sys_s_per_cpu_s = fleet_cpu > 0 ? fleet_wall / fleet_cpu : 0;
  r.total_cpu_s = process_cpu_s() - cpu0;
  std::error_code ec;
  std::filesystem::remove_all(po.work_dir, ec);
  return r;
}

}  // namespace perfbench
