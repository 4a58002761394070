// Layer probes run next to a workload: the bare event-runtime cost, and the
// field / poly / RS / graph kernels at the workload's (n, ts, ta). Each
// kernel result is checked against its from-scratch twin.
#pragma once

#include <cstdint>
#include <string>

#include "workloads.h"

namespace perfbench {

struct KernelTimes {
  double dot_ns = 0;           ///< fp_dot over n elements
  double interp_ns = 0;        ///< cached Lagrange interpolation, ts+1 points
  double encode_batch_us = 0;  ///< rs_encode_batch: n polys, degree ts
  double decode_ns = 0;        ///< Berlekamp-Welch, n points, ta errors
  double star_us = 0;          ///< StarFinder over 4n OK-edge arrivals
  double matching_us = 0;      ///< blossom maximum matching, n vertices
  std::string failure;         ///< first twin mismatch ("" when all agree)
};

[[nodiscard]] KernelTimes probe_kernels(const nampc::ProtocolParams& p,
                                        std::uint64_t seed);

/// Per-event cost of the runtime alone: fills a fresh Simulation with
/// `depth` no-op timers through schedule(), spread like the workload's
/// message delays, and times draining them with run_one(). Nanoseconds.
[[nodiscard]] double probe_event_overhead_ns(const Workload& w,
                                             std::uint64_t depth,
                                             std::uint64_t seed);

}  // namespace perfbench
