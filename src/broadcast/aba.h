// Asynchronous binary Byzantine agreement (the Π_ABA black box of §4.4).
//
// Bracha-style randomized agreement for t < n/3: rounds of three message
// exchanges (value / proposal / confirm), deciding on 2t+1 confirmations,
// adopting on t+1, flipping a coin otherwise. The coin is pluggable
// (Simulation::Config::local_coins): the default ideal common coin models
// the coin-tossing subprotocols of [24, 6] and gives expected-constant
// rounds; local coins give the classic almost-surely-terminating behaviour.
//
// Two structural safeguards — both rediscovered the hard way by the fuzzing
// engine (src/fuzz), which produced honest-party disagreement and liveness
// stalls against a single bit-flipping corrupt party before they existed:
//
//  1. The phase-2 candidate threshold is `quorum - ts` (= n - 2ts), not a
//     unanimous quorum. A unanimous threshold lets one corrupt vote block
//     candidate formation forever, so a round that starts with every honest
//     party holding the decided value can still fall through to the coin —
//     and a common coin showing the other face walks honest parties away
//     from a decided value (agreement violation). With n > 3ts (the
//     feasibility bound), `n - 2ts` keeps the candidate unique per view
//     while guaranteeing a unanimous honest round always forms one.
//  2. Termination uses Bracha's DECIDE amplification instead of "halt one
//     round after deciding": a decider broadcasts DECIDE(v) and keeps
//     participating; ts+1 distinct DECIDE(v) are proof at least one honest
//     party decided v (so it is safe to decide v outright); 2ts+1 permit
//     halting. Early halting shrinks the live sender pool below the
//     phase quorum and deadlocks the parties that have not decided yet.
//     Phase-3 confirmations are also re-counted when messages arrive late
//     (honest→honest messages cannot be dropped, so once rounds are
//     unanimous every party eventually counts 2ts+1 matching confirms no
//     matter how the adversary orders deliveries within a round).
//
// With Simulation::Config::ideal_primitives the rounds are replaced by an
// ideal-agreement gadget with the same interface (validity + agreement +
// liveness once n-t parties joined).
#pragma once

#include <functional>
#include <map>
#include <optional>

#include "net/simulation.h"
#include "util/small_set.h"

namespace nampc {

class Aba : public ProtocolInstance {
 public:
  using OutputFn = std::function<void(bool)>;

  Aba(Party& party, std::string key, OutputFn on_output);

  /// Joins the agreement with the given bit.
  void start(bool input);

  [[nodiscard]] bool has_output() const { return decided_.has_value(); }
  [[nodiscard]] bool output() const {
    NAMPC_REQUIRE(decided_.has_value(), "aba has no output yet");
    return *decided_;
  }

  void on_message(const Message& msg) override;

 private:
  enum MsgType { kPhase1 = 1, kPhase2 = 2, kPhase3 = 3, kDecide = 4 };
  static constexpr int kNoCandidate = 2;  // phase-3 "no proposal" marker

  void begin_round();
  void try_advance();
  void decide(bool v);
  void check_late_decide(int round);
  void check_decide_votes();
  [[nodiscard]] bool coin(int round);

  OutputFn on_output_;
  bool started_ = false;
  bool value_ = false;
  int round_ = 0;       // current round (1-based once started)
  int phase_ = 0;       // 1..3 within the round
  std::optional<bool> decided_;
  bool sent_decide_ = false;
  bool halted_ = false;

  // msgs_[{phase, round}] : sender -> value in {0,1,2}.
  std::map<std::pair<int, int>, std::map<PartyId, int>> msgs_;
  // DECIDE(v) senders, per v.
  PartySet decide_votes_[2];
};

}  // namespace nampc
