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

  /// One sharing instance's entry in the privacy ledger.
  struct HonestReveal {
    std::uint64_t count = 0;  ///< honest row polynomials made public there
    int dealer = -1;
    /// Bitmask of those honest parties. A reporting aid only: ids >= 64
    /// (possible at the widened n = 128 cap) fall outside its single word.
    std::uint64_t mask = 0;

    /// The §6/§7 privacy bound: at most ts honest row polynomials become
    /// public per sharing instance. The quiescence audit
    /// (Simulation::Config::privacy_audit) and the privacy monitor both
    /// judge an instance by this predicate.
    [[nodiscard]] bool exceeds(int ts) const {
      return count > static_cast<std::uint64_t>(ts);
    }
  };

  /// Privacy ledger, per sharing-instance key. Instance keys are identical
  /// across parties, so each logical reveal is recorded exactly once (by
  /// the revealed party's own instance copy).
  std::map<std::string, HonestReveal> honest_reveals;

  /// Records that honest party `member` (the instance copy's owner) had its
  /// row polynomial made public in sharing instance `instance_key` dealt by
  /// `dealer`. The only writer of the ledger.
  void note_honest_reveal(const std::string& instance_key, int dealer,
                          int member) {
    HonestReveal& r = honest_reveals[instance_key];
    r.count++;
    r.dealer = dealer;
    if (member >= 0 && member < 64) r.mask |= 1ull << member;
  }
};

}  // namespace nampc
