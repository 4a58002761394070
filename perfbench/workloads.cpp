#include "workloads.h"

#include <algorithm>
#include <memory>

#include "adversary/scripted.h"
#include "circuit/circuit.h"
#include "mpc/mpc.h"
#include "net/simulation.h"
#include "net/transport.h"
#include "obs/monitor.h"
#include "sharing/wss.h"

namespace perfbench {

using namespace nampc;

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kAll = {
      {"wss_sync_n32", Protocol::wss, {32, 10, 5}, NetworkKind::synchronous,
       false},
      {"mpc_sync_n5_garble", Protocol::mpc, {5, 1, 0},
       NetworkKind::synchronous, true},
      // Runnable by name but not listed in BENCHMARK.json: on a shared
      // 4-vCPU VM its run-to-run spread needed longer runs than the time
      // budget allows next to the other two.
      {"wss_async_n24", Protocol::wss, {24, 7, 3}, NetworkKind::asynchronous,
       false},
  };
  return kAll;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

Inputs make_inputs(const Workload& w, std::uint64_t seed) {
  Rng rng(Rng::split(seed, 0));
  Inputs in;
  in.sim_seed = Rng::split(seed, 1);
  if (w.protocol == Protocol::wss) {
    in.row0s.push_back(Polynomial::random_with_constant(
        Fp(rng.next_below(Fp::kPrime)), w.params.ts, rng));
  } else {
    for (int i = 0; i < w.params.n; ++i) {
      in.mpc_inputs[i] = {Fp(rng.next_below(Fp::kPrime))};
    }
  }
  return in;
}

namespace {

/// The DES transport with every post timed (stepped passes only).
class TimedTransport final : public Transport {
 public:
  explicit TimedTransport(int n) : inner_(n) {}

  void post(Simulation& sim, Message msg) override {
    const auto t0 = Clock::now();
    inner_.post(sim, std::move(msg));
    spent_ += Clock::now() - t0;
    ++posts_;
  }
  [[nodiscard]] const char* name() const override { return inner_.name(); }

  [[nodiscard]] std::uint64_t posts() const { return posts_; }
  [[nodiscard]] double spent_s() const { return seconds(spent_); }

 private:
  DesTransport inner_;
  Clock::duration spent_{};
  std::uint64_t posts_ = 0;
};

/// (x_0 + ... + x_{n-1}) * x_0: one multiplication over every input.
Circuit make_circuit(int n) {
  Circuit c;
  std::vector<int> in;
  for (int i = 0; i < n; ++i) in.push_back(c.input(i));
  int acc = in[0];
  for (int i = 1; i < n; ++i) acc = c.add(acc, in[static_cast<std::size_t>(i)]);
  c.mark_output(c.mul(acc, in[0]));
  return c;
}

PartySet corrupt_set(const Workload& w) {
  PartySet s;
  if (w.garble_last) s.insert(w.params.n - 1);
  return s;
}

std::string party_str(int i) {
  std::string s = "P";
  s += std::to_string(i);
  return s;
}

/// MPC outputs against plaintext evaluation over the effective inputs:
/// inputs of the agreed dealer set Com, 0 for everyone else.
std::string check_mpc(const std::vector<Mpc*>& nodes, PartySet corrupt,
                      const Circuit& circuit, const Inputs& in, bool inject) {
  const int n = static_cast<int>(nodes.size());
  std::optional<PartySet> com;
  for (int i = 0; i < n; ++i) {
    if (corrupt.contains(i)) continue;
    const Mpc* m = nodes[static_cast<std::size_t>(i)];
    if (!m->has_output()) return party_str(i) + " has no output";
    if (!com.has_value()) com = m->com();
    if (m->com() != *com) return party_str(i) + " disagrees on Com";
  }
  if (!com.has_value()) return "no honest party";
  std::map<int, FpVec> effective;
  for (int i = 0; i < n; ++i) {
    effective[i] = com->contains(i) ? in.mpc_inputs.at(i) : FpVec{Fp(0)};
  }
  FpVec want = circuit.eval_plain(effective);
  if (inject) want[0] += Fp(1);
  for (int i = 0; i < n; ++i) {
    if (corrupt.contains(i)) continue;
    if (nodes[static_cast<std::size_t>(i)]->output() != want) {
      return party_str(i) + " output differs from plaintext evaluation";
    }
  }
  return "";
}

/// One DES execution's state. Member order is construction order: the
/// monitor engine and the transport must outlive the Simulation.
struct DesRun {
  DesRun(const Workload& w, const Inputs& in, bool monitored, bool timed_post)
      : workload(w),
        inputs(in),
        circuit(make_circuit(w.params.n)),
        timed(w.params.n),
        sim(config(w, in), adversary(w)) {
    obs::install_standard_monitors(monitors);
    if (monitored) sim.set_monitors(&monitors);
    // Attached before any instance exists, so every post goes through it.
    if (timed_post) sim.set_transport(&timed);
    const auto n = static_cast<std::size_t>(w.params.n);
    output_at.assign(n, Clock::time_point{});
    for (int i = 0; i < w.params.n; ++i) {
      Clock::time_point* slot = &output_at[static_cast<std::size_t>(i)];
      if (w.protocol == Protocol::wss) {
        wss.push_back(&sim.party(i).spawn<Wss>(
            "wss", 0, 0, WssOptions{}, [slot] { *slot = Clock::now(); }));
      } else {
        mpc.push_back(&sim.party(i).spawn<Mpc>(
            "mpc", circuit, in.mpc_inputs.at(i),
            [slot](const FpVec&) { *slot = Clock::now(); }));
      }
    }
  }

  static Simulation::Config config(const Workload& w, const Inputs& in) {
    Simulation::Config cfg;
    cfg.params = w.params;
    cfg.kind = w.network;
    cfg.seed = in.sim_seed;
    return cfg;
  }

  static std::shared_ptr<Adversary> adversary(const Workload& w) {
    auto adv = std::make_shared<ScriptedAdversary>(corrupt_set(w));
    if (w.garble_last) adv->garble_on(w.params.n - 1, "");
    return adv;
  }

  void start() {
    if (!wss.empty()) wss[0]->start(inputs.row0s);
  }

  [[nodiscard]] bool has_output(int i) const {
    const auto k = static_cast<std::size_t>(i);
    return wss.empty() ? mpc[k]->has_output() : wss[k]->has_output();
  }
  [[nodiscard]] Time output_time(int i) const {
    const auto k = static_cast<std::size_t>(i);
    return wss.empty() ? mpc[k]->output_time() : wss[k]->output_time();
  }

  [[nodiscard]] std::string check_outputs(bool inject) const {
    const PartySet corrupt = corrupt_set(workload);
    if (!mpc.empty()) return check_mpc(mpc, corrupt, circuit, inputs, inject);
    for (int i = 0; i < workload.params.n; ++i) {
      if (corrupt.contains(i)) continue;
      const Wss* x = wss[static_cast<std::size_t>(i)];
      if (x->outcome() != WssOutcome::rows) return party_str(i) + " has no rows";
      Fp want = inputs.row0s[0].eval(eval_point(i));
      if (inject) want += Fp(1);
      if (x->share(0) != want) {
        return party_str(i) + " share differs from the dealer polynomial";
      }
    }
    return "";
  }

  const Workload& workload;
  const Inputs& inputs;
  obs::MonitorEngine monitors;
  Circuit circuit;
  TimedTransport timed;
  Simulation sim;
  std::vector<Wss*> wss;
  std::vector<Mpc*> mpc;
  std::vector<Clock::time_point> output_at;
};

/// Steps the simulation to quiescence with run_one, timing each call and
/// charging it to the kind that owns the event (read back from a one-slot
/// flight ring). busy[k] is indexed by registry kind id.
RunStatus step(Simulation& sim, StepTrace& trace, std::vector<double>& busy) {
  obs::MetricsRegistry& reg = sim.metrics_registry();
  reg.set_flight_ring(1);
  const auto begin = Clock::now();
  for (;;) {
    const auto t0 = Clock::now();
    if (!sim.run_one()) break;
    const auto spent = Clock::now() - t0;
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(spent);
    trace.dispatch_ns.push_back(static_cast<std::uint32_t>(
        std::min<std::int64_t>(ns.count(), UINT32_MAX)));
    const std::size_t k = reg.kind_index(reg.ring_in_order().back().instance);
    if (k >= busy.size()) busy.resize(k + 1, 0.0);
    busy[k] += seconds(spent);
  }
  trace.stepped_s = seconds(Clock::now() - begin);
  return sim.last_status();
}

/// The registry's per-kind rows keyed by kind name, with traced busy time.
std::map<std::string, KindCost> kind_rows(const obs::MetricsRegistry& reg,
                                          const std::vector<double>& busy) {
  std::map<std::string, KindCost> kinds;
  const auto& names = reg.kind_names();
  for (std::size_t k = 0; k < names.size(); ++k) {
    kinds[names[k]] = {reg.kind_rows()[k], k < busy.size() ? busy[k] : 0.0};
  }
  return kinds;
}

}  // namespace

Execution run_des(const Workload& w, const Inputs& in, const ExecOptions& opt) {
  const bool stepped = opt.pass != Pass::plain;
  Execution ex;
  const auto t0 = Clock::now();
  DesRun r(w, in, opt.pass != Pass::stepped_no_monitors, stepped);
  const auto t1 = Clock::now();
  ex.setup_s = seconds(t1 - t0);
  ex.instances = r.sim.instance_count();

  r.start();
  std::vector<double> busy;
  const RunStatus status =
      stepped ? step(r.sim, ex.trace, busy) : r.sim.run();
  const auto t2 = Clock::now();
  ex.exec_s = seconds(t2 - t1);

  const PartySet corrupt = corrupt_set(w);
  Clock::time_point last_output = t1;
  for (int i = 0; i < w.params.n; ++i) {
    if (corrupt.contains(i) || !r.has_output(i)) continue;
    last_output =
        std::max(last_output, r.output_at[static_cast<std::size_t>(i)]);
    ex.counts.result_vt = std::max(ex.counts.result_vt, r.output_time(i));
  }
  ex.result_s = seconds(last_output - t1);

  const Metrics& m = r.sim.metrics();
  const obs::MetricsRegistry& reg = r.sim.metrics_registry();
  ex.counts.events = m.events_processed;
  ex.counts.msgs = m.messages_sent;
  ex.counts.words = m.words_sent;
  ex.timers = reg.timers_total();
  ex.peak_queue = m.peak_queue_depth;
  ex.pool_hits = m.payload_pool_hits;
  ex.pool_misses = m.payload_pool_misses;
  ex.rs_decodes = m.rs_decodes;
  ex.monitor_events = r.monitors.events_seen();
  ex.kinds = kind_rows(reg, busy);
  for (std::size_t k = 1; k < busy.size(); ++k) ex.trace.attributed_s += busy[k];
  ex.trace.posts = r.timed.posts();
  ex.trace.post_s = r.timed.spent_s();

  if (status != RunStatus::quiescent) {
    ex.failure = std::string("run ended ") + to_string(status);
  } else if (!r.monitors.ok()) {
    const obs::Violation& v = r.monitors.violations().front();
    ex.failure = "monitor violation [" + v.monitor + "] " + v.key;
  } else {
    ex.failure = r.check_outputs(opt.inject_fault);
  }
  ex.ok = ex.failure.empty();
  return ex;
}

double setup_only(const Workload& w, const Inputs& in) {
  const auto t0 = Clock::now();
  auto r = std::make_unique<DesRun>(w, in, true, false);
  const double s = seconds(Clock::now() - t0);
  r.reset();
  return s;
}

}  // namespace perfbench
