// nampc benchmark binary: runs one workload as a closed loop (one execution
// at a time, each on the seed's inputs), checks every output, and prints
// every metric by name with its unit. The last line of stdout is one JSON
// object {"correct", "attempted", "failed", "metrics"}.
//
//   nampc_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   [--spans FILE]
//   nampc_perfbench --self-test
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1 is
// the separate traced pass: per round, one plain execution, one stepped
// execution (run_one timed per call, posts timed, busy time charged to the
// owning kind) and one stepped execution without monitors; then the runtime
// and kernel probes. It prints the per-layer metrics and, with --spans,
// writes the recorded spans as JSONL at exit.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "probes.h"
#include "workloads.h"

using namespace perfbench;

namespace {

/// Registry kinds reported per layer, as (span_kind tag, metric prefix).
/// The per-kind events of these plus the untagged cell must add up to
/// net.events; a kind missing here fails that check.
constexpr std::pair<const char*, const char*> kKinds[] = {
    {"acast", "broadcast.acast"},   {"sba", "broadcast.sba"},
    {"aba", "broadcast.aba"},       {"bc", "broadcast.bc"},
    {"ba", "broadcast.ba"},         {"acs", "acs.acs"},
    {"wss", "sharing.wss"},         {"vss", "sharing.vss"},
    {"vts", "triples.vts"},         {"priv_rec", "triples.priv_rec"},
    {"pub_rec", "triples.pub_rec"}, {"beaver", "triples.beaver"},
    {"triple_ext", "triples.triple_ext"}, {"mpc", "mpc.mpc"},
};

/// After each execution, set-up alone is sampled for this share of the
/// execution's time (at least once), so the set-up median is taken over
/// the whole run, as the execution medians are, and from the same heap.
constexpr double kSetupShare = 0.05;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool inject_fault = false;
  bool self_test = false;
  std::string spans;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string first_failure;
  bool checks_ok = true;  ///< checks beyond the executions (kernel twins)
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  ///< extra human-readable lines

  void count(bool ok, const std::string& why) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (first_failure.empty()) first_failure = why;
  }
  void add(std::string name, double value, std::string unit) {
    if (!std::isfinite(value)) value = 0;
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  [[nodiscard]] bool correct() const { return failed == 0 && checks_ok; }
};

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
}

/// Nearest-rank percentile, q in [0, 1].
template <typename T>
double percentile(std::vector<T> v, double q) {
  if (v.empty()) return 0;
  const auto k = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())) - 1);
  const std::size_t idx = std::min(k, v.size() - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                   v.end());
  return static_cast<double>(v[idx]);
}

template <typename T, typename F>
double median_of(const std::vector<T>& items, F&& field) {
  std::vector<double> v;
  for (const T& it : items) v.push_back(static_cast<double>(field(it)));
  return median(std::move(v));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Spans (name, start, end, parent, execution id) kept in memory and
/// written as JSONL when the benchmark ends.
class SpanLog {
 public:
  int add(std::string name, Clock::time_point begin, double dur_s,
          int parent, int exec) {
    const double start = seconds(begin - epoch_);
    spans_.push_back({std::move(name), start, start + dur_s, parent, exec});
    return static_cast<int>(spans_.size()) - 1;
  }

  /// One execution as a root span with setup / run / result children.
  void add_execution(const std::string& pass, const Execution& ex,
                     Clock::time_point begin, int exec) {
    const int root = add(pass, begin, ex.setup_s + ex.exec_s, -1, exec);
    add("setup", begin, ex.setup_s, root, exec);
    const auto started =
        begin + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(ex.setup_s));
    add("run", started, ex.exec_s, root, exec);
    add("result", started, ex.result_s, root, exec);
  }

  /// Times fn as a span of its own (the probes).
  template <typename F>
  auto timed(const std::string& name, F&& fn) {
    const auto t0 = Clock::now();
    auto result = fn();
    add(name, t0, seconds(Clock::now() - t0), -1, -1);
    return result;
  }

  [[nodiscard]] bool write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out.precision(std::numeric_limits<double>::max_digits10);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\": " << i << ", \"name\": \"" << s.name
          << "\", \"start_s\": " << s.start << ", \"end_s\": " << s.end
          << ", \"parent\": " << s.parent << ", \"exec\": " << s.exec
          << "}\n";
    }
    return static_cast<bool>(out);
  }

 private:
  struct Span {
    std::string name;
    double start = 0;
    double end = 0;
    int parent = -1;
    int exec = -1;
  };
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
};

/// Sum of the reported kinds' events plus the untagged cell.
std::uint64_t kind_event_sum(const Execution& ex) {
  std::uint64_t sum = 0;
  for (const auto& [kind, prefix] : kKinds) {
    (void)prefix;
    if (const auto it = ex.kinds.find(kind); it != ex.kinds.end()) {
      sum += it->second.cost.events;
    }
  }
  if (const auto it = ex.kinds.find(""); it != ex.kinds.end()) {
    sum += it->second.cost.events;
  }
  return sum;
}

KindCost kind_of(const Execution& ex, const std::string& kind) {
  const auto it = ex.kinds.find(kind);
  return it == ex.kinds.end() ? KindCost{} : it->second;
}

/// Runs `body` at least once, then again while another pass, as long as
/// the slowest one so far, would still end within `secs`.
void closed_loop(double secs, const std::function<void()>& body) {
  const auto begin = Clock::now();
  double slowest = 0;
  for (;;) {
    const auto t0 = Clock::now();
    body();
    slowest = std::max(slowest, seconds(Clock::now() - t0));
    if (seconds(Clock::now() - begin) + slowest > secs) return;
  }
}

// ------------------------------------------------------------- end to end

Outcome measure(const Workload& w, const Args& a, SpanLog& spans) {
  Outcome out;
  const Inputs in = make_inputs(w, a.seed);
  const ExecOptions opt{Pass::plain, a.inject_fault};
  std::vector<double> setups;
  std::vector<Execution> runs;
  // Taken after the first execution: later ones reuse a heap whose
  // fragmentation grows with how many of them fit in the run.
  double rss_mb = 0;
  closed_loop(a.seconds, [&] {
    const auto begin = Clock::now();
    Execution ex = run_des(w, in, opt);
    if (runs.empty()) rss_mb = peak_rss_mb();
    spans.add_execution("execution", ex, begin,
                        static_cast<int>(runs.size()));
    // The DES is deterministic per seed: every repeat must cost the same.
    if (ex.ok && !runs.empty() &&
        !(ex.counts == runs.front().counts)) {
      ex.ok = false;
      ex.failure = "counts differ from the first execution of this seed";
    }
    out.count(ex.ok, ex.failure);
    const auto until =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(
                               kSetupShare * (ex.setup_s + ex.exec_s)));
    do {
      setups.push_back(setup_only(w, in));
    } while (Clock::now() < until);
    runs.push_back(std::move(ex));
  });

  std::vector<Execution> good;
  for (const Execution& ex : runs) {
    if (ex.ok) good.push_back(ex);
  }
  const std::vector<Execution>& pick = good.empty() ? runs : good;
  auto timing = [&](const char* name, double Execution::*field) {
    std::vector<double> v;
    std::ostringstream samples;
    samples << name << " samples:";
    for (const Execution& ex : pick) {
      v.push_back(ex.*field);
      samples << " " << ex.*field;
    }
    out.notes.push_back(samples.str());
    out.add(name, median(v), "s");
    // The highest percentile with at least ten samples beyond it.
    if (v.size() >= 20) {
      const int pct = static_cast<int>(
          std::floor(100.0 * (1.0 - 10.0 / static_cast<double>(v.size()))));
      std::ostringstream os;
      os << name << ".p" << pct << " = " << percentile(v, pct / 100.0)
         << " s (" << v.size() << " samples)";
      out.notes.push_back(os.str());
    }
  };
  timing("result_s", &Execution::result_s);
  timing("exec_s", &Execution::exec_s);
  out.add("setup_s", median(setups), "s");
  out.add("peak_rss_mb", rss_mb, "MB");
  out.add("result_vt", median_of(pick, [](const Execution& e) {
            return e.counts.result_vt;
          }), "tick");
  out.add("msgs", median_of(pick, [](const Execution& e) {
            return e.counts.msgs;
          }), "count");
  out.add("words", median_of(pick, [](const Execution& e) {
            return e.counts.words;
          }), "count");
  std::ostringstream setup_samples;
  setup_samples << "setup_s samples:";
  for (const double v : setups) setup_samples << " " << v;
  out.notes.push_back(setup_samples.str());
  return out;
}

// ------------------------------------------------------------- per layer

/// One traced round: a plain execution, a stepped one, and a stepped one
/// without monitors.
struct Round {
  Execution plain;
  Execution traced;
  Execution bare;
};

std::string check_round(const Round& r, const Round* first) {
  for (const Execution* ex : {&r.plain, &r.traced, &r.bare}) {
    if (!ex->ok) return ex->failure;
  }
  if (kind_event_sum(r.plain) != r.plain.counts.events) {
    return "per-kind events do not add up to net.events";
  }
  if (!(r.traced.counts == r.plain.counts) ||
      !(r.bare.counts == r.plain.counts)) {
    return "traced counts differ from the untraced run";
  }
  if (first != nullptr && !(r.plain.counts == first->plain.counts)) {
    return "counts differ from the first execution of this seed";
  }
  return "";
}

Outcome trace_layers(const Workload& w, const Args& a, SpanLog& spans) {
  Outcome out;
  const Inputs in = make_inputs(w, a.seed);
  std::vector<Round> rounds;
  closed_loop(a.seconds, [&] {
    const int id = static_cast<int>(rounds.size());
    Round r;
    auto run = [&](const char* name, Pass pass, Execution& slot) {
      const auto begin = Clock::now();
      slot = run_des(w, in, {pass, a.inject_fault});
      spans.add_execution(name, slot, begin, id);
    };
    run("execution", Pass::plain, r.plain);
    run("stepped", Pass::stepped, r.traced);
    run("stepped_no_monitors", Pass::stepped_no_monitors, r.bare);
    const std::string why =
        check_round(r, rounds.empty() ? nullptr : &rounds.front());
    out.count(why.empty(), why);
    rounds.push_back(std::move(r));
  });

  const auto peak = static_cast<std::uint64_t>(
      median_of(rounds, [](const Round& r) { return r.plain.peak_queue; }));
  const double overhead_ns = spans.timed("probe.net.event_overhead", [&] {
    return probe_event_overhead_ns(w, std::min<std::uint64_t>(peak, 1u << 22),
                                   a.seed);
  });
  const KernelTimes kt =
      spans.timed("probe.kernels", [&] { return probe_kernels(w.params, a.seed); });
  if (!kt.failure.empty()) {
    out.checks_ok = false;
    out.notes.push_back("kernel check failed: " + kt.failure);
  }

  auto med = [&rounds](auto field) { return median_of(rounds, field); };
  out.add("net.events", med([](const Round& r) { return r.plain.counts.events; }),
          "count");
  out.add("net.timers", med([](const Round& r) { return r.plain.timers; }), "count");
  out.add("net.peak_queue", static_cast<double>(peak), "count");
  out.add("net.events_per_s", med([](const Round& r) {
            return static_cast<double>(r.plain.counts.events) / r.plain.exec_s;
          }), "1/s");
  // Stepped-pass figures all come from one round, the one with the median
  // stepped wall time, so busy time plus the remainder adds up exactly.
  std::vector<const Round*> by_stepped;
  for (const Round& r : rounds) by_stepped.push_back(&r);
  std::sort(by_stepped.begin(), by_stepped.end(),
            [](const Round* x, const Round* y) {
              return x->traced.trace.stepped_s < y->traced.trace.stepped_s;
            });
  const Execution& mid_ex = by_stepped[(by_stepped.size() - 1) / 2]->traced;
  const StepTrace& mid = mid_ex.trace;
  out.add("net.dispatch_ns.p50", percentile(mid.dispatch_ns, 0.50), "ns");
  out.add("net.dispatch_ns.p99", percentile(mid.dispatch_ns, 0.99), "ns");
  out.add("net.event_overhead_ns", overhead_ns, "ns");
  out.add("net.transport.posts", static_cast<double>(mid.posts), "count");
  out.add("net.transport.post_ns",
          mid.posts > 0 ? 1e9 * mid.post_s / static_cast<double>(mid.posts) : 0.0,
          "ns");
  out.add("net.pool_hit_ratio", med([](const Round& r) {
            const auto all = static_cast<double>(r.plain.pool_hits +
                                                 r.plain.pool_misses);
            return all > 0 ? static_cast<double>(r.plain.pool_hits) / all : 0.0;
          }), "ratio");
  out.add("net.instances", med([](const Round& r) { return r.plain.instances; }),
          "count");
  out.add("net.stepped_s", mid.stepped_s, "s");
  out.add("net.unattributed_s", mid.stepped_s - mid.attributed_s, "s");
  out.add("net.untagged.events", med([](const Round& r) {
            return kind_of(r.plain, "").cost.events;
          }), "count");

  double busy_sum = 0;
  for (const auto& [kind, prefix] : kKinds) {
    const std::string k = kind;
    const std::string p = prefix;
    out.add(p + ".events", med([&k](const Round& r) {
              return kind_of(r.plain, k).cost.events;
            }), "count");
    out.add(p + ".msgs", med([&k](const Round& r) {
              return kind_of(r.plain, k).cost.messages;
            }), "count");
    out.add(p + ".words", med([&k](const Round& r) {
              return kind_of(r.plain, k).cost.words;
            }), "count");
    const double busy = kind_of(mid_ex, k).busy_s;
    busy_sum += busy;
    out.add(p + ".busy_s", busy, "s");
  }

  out.add("obs.monitor_events",
          med([](const Round& r) { return r.plain.monitor_events; }), "count");
  out.add("obs.monitor_s", med([](const Round& r) {
            return r.traced.trace.stepped_s - r.bare.trace.stepped_s;
          }), "s");
  out.add("obs.trace_overhead", med([](const Round& r) {
            return r.traced.trace.stepped_s / r.plain.exec_s;
          }), "ratio");

  out.add("field.dot_ns", kt.dot_ns, "ns");
  out.add("poly.interp_ns", kt.interp_ns, "ns");
  out.add("rs.encode_batch_us", kt.encode_batch_us, "us");
  out.add("rs.decode_ns", kt.decode_ns, "ns");
  out.add("rs.decodes", med([](const Round& r) { return r.plain.rs_decodes; }),
          "count");
  out.add("graph.star_us", kt.star_us, "us");
  out.add("graph.matching_us", kt.matching_us, "us");

  std::ostringstream os;
  os << "stepped wall " << mid.stepped_s << " s = per-kind busy " << busy_sum
     << " s + unattributed " << mid.stepped_s - mid.attributed_s
     << " s (median round of " << rounds.size() << ")";
  out.notes.push_back(os.str());
  out.notes.push_back("rounds " + std::to_string(rounds.size()));
  return out;
}

// ------------------------------------------------------------- reporting

std::string describe(const Workload& w) {
  std::ostringstream os;
  os << w.name << ": n=" << w.params.n << " ts=" << w.params.ts
     << " ta=" << w.params.ta << " network="
     << (w.network == nampc::NetworkKind::synchronous ? "sync" : "async")
     << (w.garble_last ? " adversary=garble(last party)" : "")
     << " loop=closed(one execution at a time)";
  return os.str();
}

void print(const Workload& w, const Args& a, const Outcome& out) {
  std::cout << describe(w) << " seed=" << a.seed << " trace=" << a.trace
            << "\n";
  std::cout.precision(std::numeric_limits<double>::max_digits10);
  std::cout << "attempted " << out.attempted << " failed " << out.failed
            << " fail_share "
            << static_cast<double>(out.failed) /
                   static_cast<double>(std::max<std::uint64_t>(out.attempted, 1))
            << "\n";
  if (!out.first_failure.empty()) {
    std::cout << "first failure: " << out.first_failure << "\n";
  }
  for (const Metric& m : out.metrics) {
    std::cout << "  " << m.name << " = " << m.value << " " << m.unit << "\n";
  }
  for (const std::string& note : out.notes) std::cout << "  " << note << "\n";

  std::ostringstream js;
  js.precision(std::numeric_limits<double>::max_digits10);
  js << "{\"correct\": " << (out.correct() ? "true" : "false")
     << ", \"attempted\": " << out.attempted << ", \"failed\": " << out.failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    js << (i == 0 ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
       << m.value << ", \"unit\": \"" << m.unit << "\"}";
  }
  js << "}}";
  std::cout << js.str() << std::endl;
}

// ------------------------------------------------------------- self-test

int self_test() {
  int failures = 0;
  auto expect = [&failures](bool ok, const std::string& what) {
    std::cout << (ok ? "  ok    " : "  FAIL  ") << what << "\n";
    if (!ok) ++failures;
  };
  const std::vector<Workload> small = {
      {"wss_sync_n7", Protocol::wss, {7, 2, 1},
       nampc::NetworkKind::synchronous, false},
      {"wss_async_n7", Protocol::wss, {7, 2, 1},
       nampc::NetworkKind::asynchronous, false},
      {"mpc_sync_n4_garble", Protocol::mpc, {4, 1, 0},
       nampc::NetworkKind::synchronous, true},
  };
  for (const Workload& w : small) {
    std::cout << describe(w) << "\n";
    const Inputs in = make_inputs(w, 11);
    const Execution a = run_des(w, in, {});
    const Execution b = run_des(w, in, {});
    expect(a.ok && b.ok, "outputs correct (" + a.failure + b.failure + ")");
    expect(a.counts == b.counts, "same seed twice: identical msgs/words/result_vt");
    const Execution t = run_des(w, in, {Pass::stepped, false});
    expect(t.ok && t.counts == a.counts, "traced counts equal untraced counts");
    expect(kind_event_sum(a) == a.counts.events,
           "per-kind events add up to net.events");
    expect(t.trace.attributed_s <= t.trace.stepped_s &&
               t.trace.dispatch_ns.size() == t.counts.events,
           "per-kind busy time fits in the stepped wall time");
    const Execution f = run_des(w, in, {Pass::plain, true});
    expect(!f.ok && !f.failure.empty(), "engineered wrong output is caught");
    expect(run_des(w, make_inputs(w, 12), {}).ok, "a second seed is correct");
  }

  // A whole measured run with a fault injected: reported, not crashed.
  SpanLog spans;
  Args a;
  a.seconds = 0;
  a.inject_fault = true;
  const Outcome o = measure(small.front(), a, spans);
  expect(o.failed == o.attempted && o.attempted >= 1 && !o.correct(),
         "injected fault raises fail_share to 1 without aborting the run");
  std::cout << "self-test: " << (failures == 0 ? "PASS" : "FAIL") << "\n";
  return failures == 0 ? 0 : 1;
}

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string s = argv[i];
    const bool has_value = i + 1 < argc;
    if (s == "--self-test") {
      a.self_test = true;
    } else if (s == "--workload" && has_value) {
      a.workload = argv[++i];
    } else if (s == "--seed" && has_value) {
      a.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (s == "--seconds" && has_value) {
      a.seconds = std::strtod(argv[++i], nullptr);
    } else if (s == "--trace" && has_value) {
      a.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (s == "--spans" && has_value) {
      a.spans = argv[++i];
    } else {
      std::cerr << "unknown or incomplete option: " << s << "\n";
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse(argc, argv, a)) return 2;
  if (a.self_test) return self_test();
  const Workload* w = find_workload(a.workload);
  if (w == nullptr) {
    std::cerr << "unknown workload '" << a.workload << "'; one of:";
    for (const Workload& x : workloads()) std::cerr << " " << x.name;
    std::cerr << "\n";
    return 2;
  }
  SpanLog spans;
  const Outcome out = a.trace ? trace_layers(*w, a, spans) : measure(*w, a, spans);
  if (!a.spans.empty() && !spans.write(a.spans)) {
    std::cerr << "cannot write spans to " << a.spans << "\n";
    return 1;
  }
  print(*w, a, out);
  return 0;
}
