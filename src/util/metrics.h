// Run metrics collected by the simulator and the protocol stack.
//
// Benchmarks and tests read these counters to report message/byte complexity
// and to audit the privacy invariants (number of honest univariate
// polynomials revealed must never exceed ts). Per-kind instance counts live
// only in the metrics registry (obs/metrics.h, kind_tags).
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace nampc {

/// Mutable counters shared by one simulation run.
struct Metrics {
  std::uint64_t messages_sent = 0;       ///< point-to-point sends
  std::uint64_t words_sent = 0;          ///< total payload words
  std::uint64_t events_processed = 0;    ///< DES events executed
  std::uint64_t aba_rounds = 0;
  std::uint64_t wss_restarts = 0;
  std::uint64_t beaver_mults = 0;
  std::uint64_t rs_decodes = 0;

  // Allocation-behaviour counters for the scaling engine (BENCH_scaling).
  // A send_all allocates at most one shared payload body (a miss); each
  // other message of the fan-out carries an existing body (a hit).
  std::uint64_t payload_pool_hits = 0;   ///< send_all messages sharing a body
  std::uint64_t payload_pool_misses = 0; ///< send_all bodies allocated
  std::uint64_t peak_queue_depth = 0;    ///< max in-flight DES events

  /// Privacy audit: per (dealer id), the maximum number of honest univariate
  /// polynomials made public in any single sharing instance dealt by that
  /// party. Proofs require each <= ts; the simulator asserts this at
  /// quiescence (Simulation::Config::privacy_audit).
  std::map<int, std::uint64_t> honest_polys_revealed;

  /// Per sharing-instance key, the number of honest rows made public there.
  /// Instance keys are identical across parties, so each logical reveal is
  /// recorded exactly once (by the revealed party's own instance).
  std::map<std::string, std::uint64_t> honest_polys_by_instance;

  /// Per sharing-instance key, the bitmask of honest parties whose rows were
  /// made public there and the dealer of that instance — the privacy monitor
  /// reports these as the offending party set when the bound breaks.
  std::map<std::string, std::uint64_t> honest_reveal_masks;
  std::map<std::string, int> honest_reveal_dealers;

  /// Records that honest party `member` (the instance copy's owner) had its
  /// row polynomial made public in sharing instance `instance_key` dealt by
  /// `dealer`. Maintains the per-dealer maximum for the privacy audit.
  void note_honest_reveal(const std::string& instance_key, int dealer,
                          int member) {
    const std::uint64_t count = ++honest_polys_by_instance[instance_key];
    // The offender mask is a reporting aid only; ids >= 64 (possible at the
    // widened n = 128 cap) simply fall outside its single word.
    if (member >= 0 && member < 64) {
      honest_reveal_masks[instance_key] |= (1ull << member);
    }
    honest_reveal_dealers[instance_key] = dealer;
    std::uint64_t& worst = honest_polys_revealed[dealer];
    if (count > worst) worst = count;
  }
};

}  // namespace nampc
