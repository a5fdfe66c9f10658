// The three simulator workloads: idle-closure, transient-storm and
// client-churn. Each repetition builds a fresh harness::World from the
// seed and drives it only through public entry points: World,
// FaultInjector, InvariantRegistry, IncrementClient::begin and
// RegisterService::read/write. Under a Tracer the world advances one
// Scheduler::step() at a time (each step timed) and every call into the
// stack is wrapped in a span; the event order is the same either way, so
// traced and untraced repetitions must produce identical counts.

#include <cstring>
#include <memory>
#include <optional>
#include <set>

#include "bench.hpp"
#include "harness/fault_injector.hpp"
#include "harness/world.hpp"
#include "scenario/invariants.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

using ssr::IdSet;
using ssr::kMsec;
using ssr::kSec;
using ssr::NodeId;
using ssr::SimTime;
using SpanId = Tracer::SpanId;

/// Polling period of every await: recovery, detection and stabilization
/// times are resolved to this granularity. Client-op latencies are exact
/// (taken inside the completion callback).
constexpr SimTime kPoll = 1 * kMsec;
/// Back-off before retrying an attempt that was refused or aborted (⊥).
constexpr SimTime kRetry = 1 * kMsec;
/// A user-level operation (all its retries) fails after this long.
constexpr SimTime kOpBudget = 60 * kSec;

constexpr std::uint64_t kExhaustBound = 1ULL << 20;

double ms(SimTime t) { return static_cast<double>(t) / kMsec; }

struct Fnv {
  std::uint64_t h = 1469598103934665603ULL;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ULL;
    }
  }
};

/// One simulated world plus the benchmark's instruments around it.
class SimBench {
 public:
  SimBench(std::uint64_t seed, bool enable_vs, Tracer* tracer,
           bool adopt_joiners)
      : tracer_(tracer), adopt_joiners_(adopt_joiners) {
    ssr::harness::WorldConfig cfg;
    cfg.seed = seed;
    cfg.node.enable_vs = enable_vs;
    cfg.node.counter.exhaust_bound = kExhaustBound;
    world_ = std::make_unique<ssr::harness::World>(cfg);
    injector_ = std::make_unique<ssr::harness::FaultInjector>(
        *world_, seed ^ 0xFA417ULL);
    registry_ = std::make_unique<ssr::scenario::InvariantRegistry>(*world_);
  }

  ssr::harness::World& world() { return *world_; }
  ssr::harness::FaultInjector& injector() { return *injector_; }
  ssr::scenario::InvariantRegistry& registry() { return *registry_; }
  Tracer* tracer() { return tracer_; }
  SimTime now() const { return world_->scheduler().now(); }

  /// Advances virtual time by `d`; stepwise and timed under a tracer.
  void advance(SimTime d) {
    auto& s = world_->scheduler();
    const SimTime deadline = s.now() + d;
    if (tracer_ != nullptr) {
      for (;;) {
        const std::uint64_t t0 = wall_ns();
        const bool ran = s.step(deadline);
        const std::uint64_t t1 = wall_ns();
        if (!ran) break;
        tracer_->record_step(t1 - t0);
      }
    }
    s.run_until(deadline);  // (untraced: all of it; traced: just the clock)
  }

  /// Polls `pred` every kPoll until it holds; the time it took, or nullopt
  /// after `timeout`.
  template <class Pred>
  std::optional<SimTime> await(Pred pred, SimTime timeout) {
    const SimTime start = now();
    for (;;) {
      if (pred()) return now() - start;
      if (now() - start >= timeout) return std::nullopt;
      advance(kPoll);
    }
  }

  bool converged() {
    return traced(tracer_, "World::converged", Tracer::kNone, now(),
                  [&] { return world_->converged(); });
  }
  bool vs_stable() {
    return traced(tracer_, "World::vs_stable", Tracer::kNone, now(),
                  [&] { return world_->vs_stable(); });
  }
  bool config_is_alive() {
    const auto c = world_->common_config();
    return c && *c == world_->alive();
  }

  NodeId add_node() {
    const NodeId id = next_id_++;
    traced(tracer_, "World::add_node", Tracer::kNone, now(), [&] {
      ssr::node::Node& n = world_->add_stopped_node(id);
      if (adopt_joiners_) n.set_eval_conf(adoption_policy(n));
      world_->boot(id);
    });
    registry_->attach_node(id);
    return id;
  }

  void crash(NodeId id) {
    retire_links(id);
    traced(tracer_, "World::crash", Tracer::kNone, now(),
           [&] { world_->crash(id); });
  }

  /// Every layer counter the per-layer metrics are built from, summed over
  /// nodes, links and channels; measured-phase values are differences of
  /// two snapshots.
  std::map<std::string, double> totals() {
    std::map<std::string, double> t;
    t["sched.events"] =
        static_cast<double>(world_->scheduler().events_executed());
    world_->network().for_each_channel(
        [&](NodeId, NodeId, ssr::net::Channel& ch) {
          t["net.sent"] += static_cast<double>(ch.stats().sent);
          t["net.delivered"] += static_cast<double>(ch.stats().delivered);
          t["net.lost"] += static_cast<double>(ch.stats().lost);
          t["net.overflowed"] += static_cast<double>(ch.stats().overflowed);
        });
    const auto& pool = ssr::wire::BufferPool::local().stats();
    t["pool.acquired"] = static_cast<double>(pool.acquired);
    t["pool.reused"] = static_cast<double>(pool.reused);
    for (const auto& [k, v] : retired_links_) t[k] += v;
    for (NodeId id : world_->all_ids()) {
      ssr::node::Node& n = world_->node(id);
      if (!n.crashed()) add_links(n, t);
      const auto& rs = n.recsa().stats();
      t["reconf.resets"] += static_cast<double>(rs.resets_started);
      t["reconf.brute_installs"] += static_cast<double>(rs.brute_installs);
      t["reconf.delicate_installs"] +=
          static_cast<double>(rs.delicate_installs);
      for (int i = 1; i <= 4; ++i) {
        t["reconf.stale_detected"] +=
            static_cast<double>(rs.stale_detected[i]);
      }
      const auto& ma = n.recma().stats();
      t["reconf.recma_triggers"] += static_cast<double>(
          ma.majority_loss_triggers + ma.eval_conf_triggers);
      t["reconf.joins"] += static_cast<double>(n.joiner().stats().joined);
      const auto& ls = n.labeling().store().stats();
      t["label.created"] += static_cast<double>(ls.created);
      t["label.cancellations"] += static_cast<double>(ls.cancellations);
      t["counter.exhaust_cancels"] +=
          static_cast<double>(n.counters().stats().exhaust_cancels);
      t["shmem.server_aborts"] +=
          static_cast<double>(n.registers().stats().server_aborts);
      if (auto* v = n.vs()) {
        t["vs.views_installed"] += static_cast<double>(v->stats().views_installed);
        t["vs.suspensions"] += static_cast<double>(v->stats().suspensions);
      }
    }
    t["vs.rounds"] = static_cast<double>(registry_->vsync().rounds_observed());
    t["reconf.config_changes"] =
        static_cast<double>(registry_->config_history().events().size());
    return t;
  }

  /// True when every configuration member holds the same legit max label.
  bool labels_legit() {
    const auto cfg = world_->common_config();
    if (!cfg) return false;
    const ssr::label::LabelPair* first = nullptr;
    for (NodeId id : *cfg) {
      if (!world_->has_node(id) || world_->node(id).crashed()) return false;
      const auto* m =
          world_->node(id).labeling().store().max_entry(id);
      if (m == nullptr || !m->legit()) return false;
      if (first == nullptr) {
        first = m;
      } else if (!(*first == *m)) {
        return false;
      }
    }
    return first != nullptr;
  }

 private:
  // Quarter-failed prediction plus adoption of trusted participants that
  // are outside the configuration, so every churn cycle ends with the
  // replacement inside the configuration (the library's adopt_joiners).
  static ssr::reconf::RecMA::EvalConf adoption_policy(ssr::node::Node& n) {
    auto base = ssr::node::quarter_failed_policy(n.failure_detector());
    return [&n, base](const IdSet& cfg) {
      if (base(cfg)) return true;
      const IdSet admitted =
          n.recsa().participants().intersect(n.failure_detector().trusted());
      return !admitted.subset_of(cfg);
    };
  }

  static void add_links(ssr::node::Node& n, std::map<std::string, double>& t) {
    n.mux().for_each_peer([&](NodeId peer) {
      const ssr::dlink::TokenLink* l = n.mux().link(peer);
      if (l == nullptr) return;
      t["dlink.rounds"] += static_cast<double>(l->stats().rounds_completed);
      t["dlink.fresh"] += static_cast<double>(l->stats().frames_delivered);
      t["dlink.cleans"] += static_cast<double>(l->stats().cleans_completed);
      t["dlink.stale_discarded"] +=
          static_cast<double>(l->stats().stale_discarded);
    });
  }

  // A crash tears the node's links down; keep their counts so totals stay
  // monotone.
  void retire_links(NodeId id) { add_links(world_->node(id), retired_links_); }

  Tracer* tracer_;
  bool adopt_joiners_;
  std::unique_ptr<ssr::harness::World> world_;
  std::unique_ptr<ssr::harness::FaultInjector> injector_;
  std::unique_ptr<ssr::scenario::InvariantRegistry> registry_;
  std::map<std::string, double> retired_links_;
  NodeId next_id_ = 1;
};

/// Per-repetition bookkeeping shared by the three workloads.
struct Measure {
  double cpu0 = 0;
  double wall0 = 0;
  double measure_cpu0 = 0;
  SimTime measure_sim0 = 0;
  std::map<std::string, double> t0;

  void begin_setup() {
    cpu0 = process_cpu_s();
    wall0 = wall_s();
  }
  void begin_measure(SimBench& b, RepResult& r) {
    r.setup_wall_s = wall_s() - wall0;
    measure_cpu0 = process_cpu_s();
    measure_sim0 = b.now();
    t0 = b.totals();
  }
  /// Closes the measured phase and turns the snapshots into metrics.
  void end_measure(SimBench& b, RepResult& r) {
    const double cpu = process_cpu_s() - measure_cpu0;
    const double sim_s = static_cast<double>(b.now() - measure_sim0) / kSec;
    const auto t1 = b.totals();
    auto d = [&](const char* k) {
      auto a = t1.find(k);
      auto z = t0.find(k);
      return (a == t1.end() ? 0.0 : a->second) -
             (z == t0.end() ? 0.0 : z->second);
    };
    const double nodes = static_cast<double>(b.world().alive().size());
    const double sent = d("net.sent");
    const double delivered = d("net.delivered");
    const double links = nodes * (nodes - 1);
    r.sys_s_per_cpu_s = sim_s / cpu;
    r.pkts_per_node_s = sent / nodes / sim_s;
    r.completed_per_s = static_cast<double>(r.completed) / sim_s;
    auto& L = r.layer;
    L["sim.events_per_sim_s"] = d("sched.events") / sim_s;
    L["sim.events_per_cpu_s"] = d("sched.events") / cpu;
    L["sim.slots_total"] =
        static_cast<double>(b.world().scheduler().slots_total());
    L["net.pkts_sent"] = sent;
    L["net.delivered_share"] = sent > 0 ? delivered / sent : 0;
    L["net.lost_share"] = sent > 0 ? d("net.lost") / sent : 0;
    L["net.overflow_share"] = sent > 0 ? d("net.overflowed") / sent : 0;
    L["wire.pool_reuse_share"] =
        d("pool.acquired") > 0 ? d("pool.reused") / d("pool.acquired") : 0;
    L["dlink.pkts_per_link_s"] = links > 0 ? sent / links / sim_s : 0;
    L["dlink.rounds_per_link_s"] =
        links > 0 ? d("dlink.rounds") / links / sim_s : 0;
    L["dlink.fresh_share"] = delivered > 0 ? d("dlink.fresh") / delivered : 0;
    L["dlink.stale_discarded"] = d("dlink.stale_discarded");
    L["dlink.cleans"] = d("dlink.cleans");
    for (const char* k :
         {"reconf.config_changes", "reconf.resets", "reconf.brute_installs",
          "reconf.delicate_installs", "reconf.stale_detected",
          "reconf.recma_triggers", "reconf.joins", "label.created",
          "label.cancellations", "counter.exhaust_cancels",
          "shmem.server_aborts", "vs.views_installed", "vs.suspensions"}) {
      L[k] = d(k);
    }
    L["vs.rounds_per_sim_s"] = d("vs.rounds") / sim_s;
  }

  void finish(SimBench& b, RepResult& r, std::uint64_t attempts_begun) {
    r.total_cpu_s = process_cpu_s() - cpu0;
    for (const auto& v : b.registry().check_all()) {
      r.errors.push_back(v.invariant + ": " + v.message);
    }
    r.peak_rss_mb = peak_rss_mb();
    Fnv f;
    f.mix(b.now());
    f.mix(b.world().scheduler().events_executed());
    f.mix(static_cast<std::uint64_t>(r.pkts_per_node_s * 1e6));
    f.mix(r.attempted);
    f.mix(r.completed);
    f.mix(r.failed);
    f.mix(attempts_begun);
    for (double x : r.latency_ms) f.mix(static_cast<std::uint64_t>(x * 1000));
    for (const auto& [k, v] : r.layer) {
      // A timing, and a ratio that depends on the thread's buffer pool as
      // earlier work in the process left it.
      if (k == "sim.events_per_cpu_s" || k == "wire.pool_reuse_share") continue;
      f.mix(static_cast<std::uint64_t>(v * 1e6));
    }
    for (const auto& [k, vs] : r.layer_samples) {
      for (double x : vs) f.mix(static_cast<std::uint64_t>(x * 1000));
    }
    r.signature = f.h;
  }
};

/// Completion record of one attempt; heap-held because the stack keeps the
/// callback and may finish the attempt after the caller moved on.
struct Pending {
  SimTime started = 0;
  SimTime finished = 0;
  bool done = false;
  bool ok = false;
  std::optional<ssr::counter::Counter> counter;
};

/// Boots `n` nodes from the all-joiner state and awaits the first
/// convergence (and VS stability when enabled).
bool boot(SimBench& b, std::size_t n, bool vs, RepResult& r) {
  for (std::size_t i = 0; i < n; ++i) b.add_node();
  const auto t = b.await(
      [&] { return b.converged() && (!vs || b.vs_stable()); }, 300 * kSec);
  if (!t) {
    r.errors.push_back("boot: no convergence within 300 s simulated");
    return false;
  }
  r.layer["reconf.boot_converge_ms"] = ms(*t);
  return true;
}

// -- idle-closure ------------------------------------------------------------
// 5 nodes, VS off. After boot, 120 closure windows of 200 ms with no faults
// and no clients; each window ends with one probe increment (closed loop,
// one at a time), whose latency is the cost a user pays for the first
// operation on a quiescent system. A window fails if any configuration
// changes inside it or its probe does not complete.

constexpr std::size_t kIdleNodes = 5;
constexpr int kIdleWindows = 120;
constexpr SimTime kIdleWindow = 200 * kMsec;

/// One user-level increment at `id`, retried through ⊥ and refusals.
/// Returns the latency from issue to completion, or nullopt on failure.
std::optional<SimTime> probe_increment(SimBench& b, NodeId id, RepResult& r,
                                       std::uint64_t& begun) {
  Tracer* tr = b.tracer();
  const SimTime start = b.now();
  const SpanId op =
      tr != nullptr ? tr->begin("op.increment", Tracer::kNone, start) : 0;
  auto& client = b.world().node(id).increment();
  std::optional<SimTime> result;
  while (b.now() - start < kOpBudget) {
    auto st = std::make_shared<Pending>();
    st->started = b.now();
    ssr::harness::World* w = &b.world();
    const bool ok = traced(tr, "IncrementClient::begin", op, b.now(), [&] {
      return client.begin([st, w](std::optional<ssr::counter::Counter> c) {
        st->done = true;
        st->ok = c.has_value();
        st->counter = std::move(c);
        st->finished = w->scheduler().now();
      });
    });
    ++begun;
    if (!ok && !st->done) {
      r.layer["counter.refused"] += 1;
      b.advance(kRetry);
      continue;
    }
    b.await([&] { return st->done; }, kOpBudget);
    if (!st->done) break;
    r.layer["counter.attempts"] += 1;
    if (st->ok) {
      b.registry().counter_order().record(st->started, st->finished,
                                          *st->counter);
      r.layer_samples["counter.inc_ms"].push_back(ms(st->finished - st->started));
      result = st->finished - start;
      break;
    }
    r.layer["counter.aborts"] += 1;
    b.advance(kRetry);
  }
  if (tr != nullptr) tr->end(op, b.now());
  return result;
}

RepResult idle_closure(std::uint64_t seed, Tracer* tr) {
  RepResult r;
  Measure m;
  m.begin_setup();
  SimBench b(seed, /*enable_vs=*/false, tr, /*adopt_joiners=*/false);
  if (!boot(b, kIdleNodes, false, r)) return r;
  ssr::Rng inputs(seed ^ 0x1D1EULL);
  std::uint64_t begun = 0;
  m.begin_measure(b, r);
  b.registry().mark_stable();
  for (int k = 0; k < kIdleWindows; ++k) {
    const SimTime window_start = b.now();
    b.advance(kIdleWindow);
    const IdSet alive = b.world().alive();
    const NodeId probe =
        alive.values()[inputs.next_below(alive.size())];
    ++r.attempted;
    const auto lat = probe_increment(b, probe, r, begun);
    const bool stable =
        b.registry().config_history().events_since(window_start) == 0;
    if (lat && stable) {
      ++r.completed;
      r.latency_ms.push_back(ms(*lat));
    } else {
      ++r.failed;
    }
  }
  m.end_measure(b, r);
  m.finish(b, r, begun);
  return r;
}

// -- transient-storm ---------------------------------------------------------
// 5 nodes, VS off. 480 cycles of: corrupt every node's recSA and FD state,
// garbage every channel, plant an exhausted counter at a member and stale
// recMA flags at a node; run until World::converged(); hold a 100 ms quiet
// window marked stable (closure). A cycle fails if it misses its 60 s budget.

constexpr std::size_t kStormNodes = 5;
constexpr int kStormCycles = 480;
constexpr SimTime kStormQuiet = 100 * kMsec;
constexpr SimTime kRecoveryBudget = 60 * kSec;
/// How long after convergence the label agreement is still awaited.
constexpr SimTime kLabelGrace = 5 * kSec;

RepResult transient_storm(std::uint64_t seed, Tracer* tr) {
  RepResult r;
  Measure m;
  m.begin_setup();
  SimBench b(seed, /*enable_vs=*/false, tr, /*adopt_joiners=*/false);
  if (!boot(b, kStormNodes, false, r)) return r;
  ssr::Rng inputs(seed ^ 0x570AULL);
  m.begin_measure(b, r);
  auto& inj = b.injector();
  for (int c = 0; c < kStormCycles; ++c) {
    b.registry().unmark_stable();
    const IdSet alive = b.world().alive();
    const auto ids = alive.values();
    const NodeId exhausted = ids[inputs.next_below(ids.size())];
    const NodeId flagged = ids[inputs.next_below(ids.size())];
    const std::uint64_t bits = 1 + inputs.next_below(3);
    const SimTime fault_t = b.now();
    const SpanId fault =
        tr != nullptr ? tr->begin("fault", Tracer::kNone, fault_t) : 0;
    traced(tr, "FaultInjector::corrupt_all_recsa", fault, b.now(),
           [&] { inj.corrupt_all_recsa(); });
    traced(tr, "FaultInjector::corrupt_all_fd", fault, b.now(),
           [&] { inj.corrupt_all_fd(); });
    traced(tr, "FaultInjector::fill_channels_with_garbage", fault, b.now(),
           [&] { inj.fill_channels_with_garbage(2); });
    traced(tr, "FaultInjector::plant_exhausted_counter", fault, b.now(),
           [&] { inj.plant_exhausted_counter(exhausted, kExhaustBound + 5); });
    traced(tr, "FaultInjector::plant_recma_flags", fault, b.now(), [&] {
      inj.plant_recma_flags(flagged, (bits & 1) != 0, (bits & 2) != 0);
    });
    if (tr != nullptr) tr->end(fault, b.now());
    const SpanId rec =
        tr != nullptr ? tr->begin("recovery", fault, b.now()) : 0;
    ++r.attempted;
    std::optional<SimTime> conv;
    std::optional<SimTime> legit;
    b.await(
        [&] {
          if (!conv && b.converged()) conv = b.now() - fault_t;
          if (!legit && conv && b.labels_legit()) legit = b.now() - fault_t;
          return conv && (legit || b.now() - fault_t >= *conv + kLabelGrace);
        },
        kRecoveryBudget);
    if (tr != nullptr) tr->end(rec, b.now());
    if (conv) {
      ++r.completed;
      r.latency_ms.push_back(ms(*conv));
    } else {
      ++r.failed;
    }
    if (legit) r.layer_samples["label.legit_ms"].push_back(ms(*legit));
    b.registry().mark_stable();
    b.advance(kStormQuiet);
  }
  m.end_measure(b, r);
  m.finish(b, r, 0);
  return r;
}

// -- client-churn ------------------------------------------------------------
// 4 nodes, VS on. Every alive participant runs one closed-loop client whose
// seeded mix is 40% counter increments, 30% register writes and 30%
// register reads over 4 registers; an aborted (⊥) or refused attempt is
// retried, and the operation's latency runs from issue to its completing
// attempt. 20 churn cycles: drain a seeded configuration member's client,
// crash-stop it, add a fresh replacement (a delicate reconfiguration), wait
// until the configuration equals the alive set and VS is stable, then hold
// 2 s marked stable.

constexpr std::size_t kChurnNodes = 4;
constexpr int kChurnCycles = 20;
constexpr SimTime kChurnLead = 300 * kMsec;
constexpr SimTime kChurnHold = 2 * kSec;
constexpr SimTime kSettleBudget = 120 * kSec;
constexpr int kRegisters = 4;

enum class OpKind : std::uint8_t { kInc, kWrite, kRead };

struct Client {
  NodeId node = 0;
  ssr::Rng rng{0};
  bool running = false;
  bool in_op = false;
  OpKind kind = OpKind::kInc;
  std::string reg;
  std::uint64_t value = 0;
  SimTime op_start = 0;
  SpanId span = 0;
  std::uint64_t seq = 0;
};

class ChurnClients {
 public:
  ChurnClients(SimBench& b, RepResult& r, std::uint64_t seed)
      : b_(b), r_(r), seed_(seed) {}

  void add_client(NodeId id) {
    auto c = std::make_unique<Client>();
    c->node = id;
    c->rng = ssr::Rng(seed_ * 1000003ULL + id);
    clients_[id] = std::move(c);
  }
  Client* client(NodeId id) {
    auto it = clients_.find(id);
    return it == clients_.end() ? nullptr : it->second.get();
  }
  void start(Client& c) {
    if (c.running) return;
    c.running = true;
    if (!c.in_op) start_op(c);
  }
  bool any_in_op() const {
    for (const auto& [id, c] : clients_) {
      if (c->in_op) return true;
    }
    return false;
  }
  void stop_all() {
    for (auto& [id, c] : clients_) c->running = false;
  }

  SpanId disruption = 0;
  SimTime crash_t = 0;
  std::optional<SimTime> first_after_crash;
  std::uint64_t begun = 0;

 private:
  void start_op(Client& c) {
    const std::uint64_t pick = c.rng.next_below(10);
    c.kind = pick < 4 ? OpKind::kInc : (pick < 7 ? OpKind::kWrite : OpKind::kRead);
    c.reg = "r";
    c.reg += std::to_string(c.rng.next_below(kRegisters));
    c.value = (static_cast<std::uint64_t>(c.node) << 32) | ++c.seq;
    if (c.kind == OpKind::kWrite) written_[c.reg].insert(c.value);
    c.in_op = true;
    c.op_start = b_.now();
    ++r_.attempted;
    if (Tracer* tr = b_.tracer()) {
      static constexpr const char* kNames[] = {"op.increment", "op.write",
                                               "op.read"};
      c.span = tr->begin(kNames[static_cast<int>(c.kind)], disruption,
                         c.op_start);
    }
    attempt(c);
  }

  void end_op(Client& c, bool ok) {
    const SimTime now = b_.now();
    if (ok) {
      ++r_.completed;
      r_.latency_ms.push_back(ms(now - c.op_start));
      if (!first_after_crash && crash_t != 0 && c.op_start >= crash_t) {
        first_after_crash = now - crash_t;
      }
    } else {
      ++r_.failed;
    }
    if (Tracer* tr = b_.tracer()) tr->end(c.span, now);
    c.in_op = false;
    if (c.running) {
      Client* cp = &c;
      b_.world().scheduler().schedule_after(0, [this, cp] {
        if (cp->running && !cp->in_op) start_op(*cp);
      });
    }
  }

  void retry(Client& c) {
    Client* cp = &c;
    b_.world().scheduler().schedule_after(kRetry, [this, cp] { attempt(*cp); });
  }

  static const char* layer_of(OpKind k) {
    return k == OpKind::kInc ? "counter" : "shmem";
  }

  void attempt(Client& c) {
    if (b_.now() - c.op_start > kOpBudget) {
      end_op(c, false);
      return;
    }
    ssr::node::Node& n = b_.world().node(c.node);
    auto st = std::make_shared<Pending>();
    st->started = b_.now();
    Client* cp = &c;
    auto done = [this, cp, st] {
      st->finished = b_.now();
      st->done = true;
      // Continue outside the stack's callback frame.
      b_.world().scheduler().schedule_after(
          0, [this, cp, st] { on_attempt(*cp, *st); });
    };
    Tracer* tr = b_.tracer();
    bool ok = false;
    ++begun;
    switch (c.kind) {
      case OpKind::kInc:
        ok = traced(tr, "IncrementClient::begin", c.span, b_.now(), [&] {
          return n.increment().begin(
              [st, done](std::optional<ssr::counter::Counter> v) {
                st->ok = v.has_value();
                st->counter = std::move(v);
                done();
              });
        });
        break;
      case OpKind::kWrite: {
        ssr::wire::Bytes payload(8);
        std::memcpy(payload.data(), &c.value, 8);
        ok = traced(tr, "RegisterService::write", c.span, b_.now(), [&] {
          return n.registers().write(
              c.reg, std::move(payload), [st, done](bool w_ok, ssr::counter::Counter) {
                st->ok = w_ok;
                done();
              });
        });
        break;
      }
      case OpKind::kRead: {
        const std::string reg = c.reg;
        ok = traced(tr, "RegisterService::read", c.span, b_.now(), [&] {
          return n.registers().read(
              c.reg, [this, st, done, reg](bool r_ok,
                                           const ssr::wire::Bytes& value,
                                           ssr::counter::Counter) {
                st->ok = r_ok;
                if (r_ok) check_read(reg, value);
                done();
              });
        });
        break;
      }
    }
    if (!ok && !st->done) {
      r_.layer[std::string(layer_of(c.kind)) + ".refused"] += 1;
      retry(c);
    }
  }

  void on_attempt(Client& c, const Pending& st) {
    const std::string layer = layer_of(c.kind);
    r_.layer[layer + ".attempts"] += 1;
    if (!st.ok) {
      r_.layer[layer + ".aborts"] += 1;
      retry(c);
      return;
    }
    const double lat = ms(st.finished - st.started);
    switch (c.kind) {
      case OpKind::kInc:
        b_.registry().counter_order().record(st.started, st.finished,
                                             *st.counter);
        r_.layer_samples["counter.inc_ms"].push_back(lat);
        break;
      case OpKind::kWrite:
        r_.layer_samples["shmem.write_ms"].push_back(lat);
        break;
      case OpKind::kRead:
        r_.layer_samples["shmem.read_ms"].push_back(lat);
        break;
    }
    end_op(c, true);
  }

  /// A read must return a value some write of that register wrote (or the
  /// initial empty value).
  void check_read(const std::string& reg, const ssr::wire::Bytes& value) {
    if (value.empty()) return;
    std::uint64_t v = 0;
    if (value.size() == 8) std::memcpy(&v, value.data(), 8);
    const auto it = written_.find(reg);
    if (value.size() != 8 || it == written_.end() || it->second.count(v) == 0) {
      if (bad_reads_++ == 0) {
        r_.errors.push_back("shmem: read of " + reg +
                            " returned a value no write wrote");
      }
    }
  }

  SimBench& b_;
  RepResult& r_;
  std::uint64_t seed_;
  std::map<NodeId, std::unique_ptr<Client>> clients_;
  std::map<std::string, std::set<std::uint64_t>> written_;
  std::uint64_t bad_reads_ = 0;
};

RepResult client_churn(std::uint64_t seed, Tracer* tr) {
  RepResult r;
  Measure m;
  m.begin_setup();
  // The clients hold callbacks the world's nodes keep, so they are declared
  // before (and destroyed after) the world.
  std::unique_ptr<ChurnClients> load;
  SimBench b(seed, /*enable_vs=*/true, tr, /*adopt_joiners=*/true);
  load = std::make_unique<ChurnClients>(b, r, seed);
  if (!boot(b, kChurnNodes, true, r)) return r;
  ssr::Rng inputs(seed ^ 0xC4124ULL);
  m.begin_measure(b, r);
  for (NodeId id : b.world().alive()) {
    load->add_client(id);
    load->start(*load->client(id));
  }
  b.registry().mark_stable();
  b.advance(kChurnLead);
  for (int k = 0; k < kChurnCycles; ++k) {
    const auto cfg = b.world().common_config();
    const auto members = (cfg ? *cfg : b.world().alive()).values();
    const NodeId victim = members[inputs.next_below(members.size())];
    Client* vc = load->client(victim);
    if (vc != nullptr) {
      vc->running = false;
      b.await([&] { return !vc->in_op; }, kOpBudget);
    }
    b.registry().unmark_stable();
    load->crash_t = b.now();
    load->first_after_crash.reset();
    load->disruption =
        tr != nullptr ? tr->begin("crash", Tracer::kNone, b.now()) : 0;
    b.crash(victim);
    const NodeId fresh = b.add_node();
    load->add_client(fresh);
    std::optional<SimTime> detect, stable;
    const auto settled = b.await(
        [&] {
          const SimTime since = b.now() - load->crash_t;
          if (!detect) {
            bool all = true;
            for (NodeId id : b.world().alive()) {
              if (b.world().node(id).failure_detector().trusted().contains(
                      victim)) {
                all = false;
                break;
              }
            }
            if (all) detect = since;
          }
          Client* fc = load->client(fresh);
          if (!fc->running &&
              b.world().node(fresh).recsa().is_participant()) {
            load->start(*fc);
          }
          const bool vs_ok = b.converged() && b.config_is_alive() &&
                             b.vs_stable();
          if (vs_ok && !stable) stable = since;
          return vs_ok && detect && fc->running &&
                 load->first_after_crash.has_value();
        },
        kSettleBudget);
    if (tr != nullptr) tr->end(load->disruption, b.now());
    load->disruption = 0;
    if (!settled) {
      r.errors.push_back("client-churn: cycle " + std::to_string(k) +
                         " did not settle within 120 s simulated");
      break;
    }
    r.layer_samples["fd.detect_ms"].push_back(ms(*detect));
    r.layer_samples["vs.stable_ms"].push_back(ms(*stable));
    r.layer_samples["client.unavailable_ms"].push_back(
        ms(*load->first_after_crash));
    b.registry().mark_stable();
    b.advance(kChurnHold);
  }
  load->stop_all();
  if (!b.await([&] { return !load->any_in_op(); }, 2 * kOpBudget)) {
    r.errors.push_back("client-churn: operations still in flight at the end");
  }
  m.end_measure(b, r);
  m.finish(b, r, load->begun);
  return r;
}

}  // namespace

bool is_sim_workload(const std::string& name) {
  return name == "idle-closure" || name == "transient-storm" ||
         name == "client-churn";
}

double run_sim_setup(const std::string& workload, std::uint64_t seed,
                     std::vector<std::string>& errors) {
  const bool churn = workload == "client-churn";
  const std::size_t nodes = churn ? kChurnNodes
                            : workload == "idle-closure" ? kIdleNodes
                                                         : kStormNodes;
  RepResult r;
  const double w0 = wall_s();
  SimBench b(seed, /*enable_vs=*/churn, nullptr, /*adopt_joiners=*/churn);
  boot(b, nodes, churn, r);
  const double took = wall_s() - w0;
  errors.insert(errors.end(), r.errors.begin(), r.errors.end());
  return took;
}

RepResult run_sim_rep(const std::string& workload, std::uint64_t seed,
                      Tracer* tracer) {
  if (workload == "idle-closure") return idle_closure(seed, tracer);
  if (workload == "transient-storm") return transient_storm(seed, tracer);
  return client_churn(seed, tracer);
}

}  // namespace perfbench
