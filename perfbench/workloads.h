// Benchmark workloads: seeded inputs, one timed execution, output checks.
//
// Every layer is timed from outside, through public calls only: the
// Simulation (run / run_one / schedule), the Transport seam and the
// protocols' output callbacks.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "net/adversary.h"
#include "net/time.h"
#include "obs/metrics.h"
#include "poly/polynomial.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

enum class Protocol { wss, mpc };

struct Workload {
  std::string name;
  Protocol protocol = Protocol::wss;
  nampc::ProtocolParams params;
  nampc::NetworkKind network = nampc::NetworkKind::synchronous;
  /// Corrupts the last party, which adds 1 to every payload word it sends.
  bool garble_last = false;
};

/// The benchmark's workloads; BENCHMARK.json lists the ones it runs.
[[nodiscard]] const std::vector<Workload>& workloads();
/// nullptr when no workload has that name.
[[nodiscard]] const Workload* find_workload(std::string_view name);

/// Everything an execution consumes, generated from the workload seed.
struct Inputs {
  std::uint64_t sim_seed = 0;
  std::vector<nampc::Polynomial> row0s;      ///< WSS dealer polynomials
  std::map<int, nampc::FpVec> mpc_inputs;    ///< MPC: one input per party
};
[[nodiscard]] Inputs make_inputs(const Workload& w, std::uint64_t seed);

/// Deterministic per-seed costs (DES): the paper's latency and traffic.
struct Counts {
  std::uint64_t events = 0;
  std::uint64_t msgs = 0;
  std::uint64_t words = 0;
  nampc::Time result_vt = 0;  ///< virtual time of the last honest output
  friend bool operator==(const Counts&, const Counts&) = default;
};

/// One kind's counters and traced busy time, keyed by span_kind name.
struct KindCost {
  nampc::obs::InstanceCost cost;
  double busy_s = 0;
};

/// What the stepped (traced) DES pass measured.
struct StepTrace {
  double stepped_s = 0;                    ///< wall time of the stepping loop
  std::vector<std::uint32_t> dispatch_ns;  ///< one per run_one call
  double attributed_s = 0;                 ///< busy time of tagged kinds
  std::uint64_t posts = 0;                 ///< Transport::post calls
  double post_s = 0;                       ///< wall time inside post
};

/// One execution: set-up, run, checks.
struct Execution {
  bool ok = false;
  std::string failure;  ///< first failed check ("" when ok)
  double setup_s = 0;
  double result_s = 0;
  double exec_s = 0;
  Counts counts;

  // Per-layer data.
  std::uint64_t timers = 0;
  std::uint64_t peak_queue = 0;
  std::uint64_t pool_hits = 0;
  std::uint64_t pool_misses = 0;
  std::uint64_t instances = 0;
  std::uint64_t monitor_events = 0;
  std::uint64_t rs_decodes = 0;
  std::map<std::string, KindCost> kinds;  ///< "" = untagged
  StepTrace trace;                         ///< stepped passes only
};

enum class Pass {
  plain,                ///< Simulation::run with monitors (end-to-end)
  stepped,              ///< run_one loop, timed transport, monitors on
  stepped_no_monitors,  ///< the same without monitors (obs.monitor_s)
};

struct ExecOptions {
  Pass pass = Pass::plain;
  /// Checks outputs against a deliberately wrong expectation (self-test).
  bool inject_fault = false;
};

/// One DES execution of `w`.
[[nodiscard]] Execution run_des(const Workload& w, const Inputs& in,
                                const ExecOptions& opt);

/// Builds the DES simulation and spawns every party's instances, then tears
/// it down without running: the set-up cost alone, in seconds.
[[nodiscard]] double setup_only(const Workload& w, const Inputs& in);

}  // namespace perfbench
