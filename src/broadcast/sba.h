// Synchronous Byzantine agreement (the Π_SBA building block of Protocol 4.5).
//
// Multivalued phase-king agreement (Berman-Garay-Perry style) for t < n/3
// over the domain Words ∪ {⊥}: ts+1 phases, each an exchange round and a
// king round, one Δ per round; all honest parties must call start() at the
// same virtual time (Π_BC does). Output is produced exactly T_SBA after
// start. Properties in a synchronous network: validity (unanimous honest
// input is the output) and consistency. In an asynchronous network this
// sub-protocol gives no guarantees — Π_BC only relies on it when the
// network is synchronous (Lemma 4.6's async clauses come from Acast).
//
// When Simulation::Config::ideal_primitives is set, the phase-king rounds
// are replaced by an ideal-agreement gadget with identical interface and
// timing (DESIGN.md substitution #3).
#pragma once

#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "net/simulation.h"

namespace nampc {

/// Agreement value: nullopt encodes ⊥.
using SbaValue = std::optional<Words>;

/// Deterministic total order on SbaValue used for tie-breaking (⊥ first,
/// then lexicographic).
[[nodiscard]] bool sba_value_less(const SbaValue& a, const SbaValue& b);

class Sba : public ProtocolInstance {
 public:
  using OutputFn = std::function<void(const SbaValue&)>;

  Sba(Party& party, std::string key, OutputFn on_output);

  /// Joins the agreement with the given input. In a synchronous network all
  /// honest parties call this at the same time.
  void start(SbaValue input);

  [[nodiscard]] bool has_output() const { return done_; }
  [[nodiscard]] const SbaValue& output() const {
    NAMPC_REQUIRE(done_, "sba has no output yet");
    return output_;
  }

  void on_message(const Message& msg) override;

 private:
  enum MsgType { kExchange = 1, kKing = 2 };

  void run_exchange(int phase);
  void tally_exchange(int phase);
  void conclude_phase(int phase);
  void finish();

  [[nodiscard]] static Words encode_value(const SbaValue& v);

  OutputFn on_output_;
  bool started_ = false;
  bool done_ = false;
  Time start_time_ = 0;
  SbaValue value_;
  SbaValue output_;

  // Full-mode state, indexed by phase and grown to a phase when it is first
  // used, so a constructed instance allocates nothing. Each EXCHANGE tally
  // holds the senders already counted (only a sender's first message counts)
  // and each distinct value with its count: O((ts+1) · distinct values)
  // words, not a copy per (phase, sender). A phase's counts are freed once
  // tally_exchange has read them, and its KING value once conclude_phase
  // has; later messages for those phases are ignored, and finish() frees
  // both vectors.
  struct Tally {
    using Counts = std::vector<std::pair<SbaValue, int>>;
    PartySet senders;
    Counts counts;
  };
  std::vector<Tally> exchange_;
  std::vector<std::optional<SbaValue>> king_;  // first KING value per phase
  int tallied_ = 0;    // phases [0, tallied_) have had tally_exchange
  int concluded_ = 0;  // phases [0, concluded_) have had conclude_phase
  SbaValue phase_majority_;
  int phase_majority_count_ = 0;
};

}  // namespace nampc
