// Bracha's asynchronous reliable broadcast (Protocol 4.3, Lemma 4.4).
//
// One instance per (sender, topic). Every party constructs the instance as
// a receiver; the sender's party additionally calls start(m). Properties
// (for t < n/3, here t = ts = max(ts, ta)):
//   synchronous: honest-sender liveness within 3Δ; validity; corrupt-sender
//     consistency within 2Δ of the first honest output.
//   asynchronous: eventual liveness/validity/consistency.
#pragma once

#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "net/simulation.h"
#include "util/small_set.h"

namespace nampc {

class Acast : public ProtocolInstance {
 public:
  using OutputFn = std::function<void(const Words&)>;

  Acast(Party& party, std::string key, PartyId sender, OutputFn on_output);

  /// Sender-side entry point.
  void start(Words message);

  [[nodiscard]] PartyId sender() const { return sender_; }
  [[nodiscard]] bool has_output() const { return output_.has_value(); }
  [[nodiscard]] const Words& output() const {
    NAMPC_REQUIRE(output_.has_value(), "acast has no output yet");
    return output_->words();
  }
  /// Virtual time at which this party produced its output.
  [[nodiscard]] Time output_time() const { return output_time_; }

  void on_message(const Message& msg) override;

 private:
  enum MsgType { kInit = 1, kEcho = 2, kReady = 3 };

  // Per candidate message value: who echoed / readied it. One entry per
  // distinct value, found by body identity first (honest parties forward
  // the body they received, so most votes share one) and then by words.
  // Once this party has sent READY and output (settled()), no vote can
  // cause a send or an output: later ECHOs and READYs are skipped and both
  // lists are freed. Output alone is not enough, since where
  // n − ts < ts + 1 a party can output before any quorum makes it READY.
  using Votes = std::vector<std::pair<Payload, PartySet>>;
  [[nodiscard]] static PartySet& voters(Votes& votes, const Payload& m);

  [[nodiscard]] bool settled() const {
    return readied_ && output_.has_value();
  }

  void maybe_echo(const Payload& m);
  void maybe_ready(const Payload& m);
  void maybe_output(const Payload& m);

  PartyId sender_;
  OutputFn on_output_;
  bool echoed_ = false;
  bool readied_ = false;
  std::optional<Payload> output_;
  Time output_time_ = -1;
  Votes echoes_;
  Votes readies_;
};

}  // namespace nampc
