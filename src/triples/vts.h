// Verifiable Triple Sharing — Π_VTS (Protocol 8.1, Theorem 8.2).
//
// The dealer shares L·(2ts+1) random multiplication triples through one
// batched Π_VSS instance (conditioned on the global set Z). Per output
// triple l the first ts+1 input triples define degree-ts polynomials
// X_l, Y_l; the remaining ts positions of the degree-2ts polynomial Z_l are
// filled by Beaver multiplications consuming the corresponding input
// triples. Each party P_i privately reconstructs X_l(i), Y_l(i), Z_l(i) and
// broadcasts OK/NOK; the dealer publishes a set NOK of silent/slow parties
// (at most ts - ta of them) whose points are opened publicly, so that at
// least n - ta positions of X·Y = Z are verified — which pins down
// correctness in both networks. Output: shares of (X_l(β), Y_l(β), Z_l(β))
// with β = n+1, or `discarded` when a public check fails.
#pragma once

#include <functional>
#include <map>
#include <optional>

#include "broadcast/bc.h"
#include "sharing/vss.h"
#include "triples/beaver.h"

namespace nampc {

enum class VtsOutcome { none, triples, discarded };

class Vts : public ProtocolInstance {
 public:
  using OutputFn = std::function<void()>;

  Vts(Party& party, std::string key, PartyId dealer, Time nominal_start,
      int num_triples, PartySet z, OutputFn on_output);

  /// Dealer-side: samples L·(2ts+1) random multiplication triples and
  /// shares them. Call at nominal_start. `sabotage` makes the dealer share
  /// non-multiplication triples (c != a·b) — test hook for the discard
  /// path of Theorem 8.2; a network adversary cannot express this fault
  /// because it lives in the dealer's local sampling.
  void start(bool sabotage = false);

  [[nodiscard]] PartyId dealer() const { return dealer_; }
  [[nodiscard]] VtsOutcome outcome() const { return outcome_; }
  [[nodiscard]] bool has_output() const { return outcome_ != VtsOutcome::none; }
  [[nodiscard]] Time output_time() const { return output_time_; }

  /// This party's shares of the L verified output triples.
  [[nodiscard]] const TripleShares& triples() const {
    NAMPC_REQUIRE(outcome_ == VtsOutcome::triples, "no triple output");
    return output_;
  }
  /// Dealer-side: the plaintext output triples (a VTS dealer knows its own
  /// triples; Π_tripleExt relies on this).
  [[nodiscard]] const std::vector<std::array<Fp, 3>>& dealer_triples() const {
    NAMPC_REQUIRE(i_am_dealer() && !dealer_plain_.empty(), "not the dealer");
    return dealer_plain_;
  }

  void on_message(const Message& msg) override;

 private:
  [[nodiscard]] int ts() const { return params().ts; }
  [[nodiscard]] int ta() const { return params().ta; }
  [[nodiscard]] bool i_am_dealer() const { return my_id() == dealer_; }
  /// Share-vector index of component c (0=a,1=b,2=c) of input triple i of
  /// output l.
  [[nodiscard]] std::size_t idx(int l, int i, int c) const {
    return static_cast<std::size_t>((l * (2 * ts() + 1) + i) * 3 + c);
  }
  /// This party's shares of X_l(at), Y_l(at), Z_l(at), interleaved per
  /// output triple l (valid once zx_ is filled).
  [[nodiscard]] FpVec xyz_at(Fp at) const;
  /// True when x_l * y_l = z_l for every triple of an interleaved vector.
  [[nodiscard]] bool all_multiply(const FpVec& xyz) const;

  void on_vss_output();
  void phase_transform();
  void on_beaver(const FpVec& z);
  void phase_verify();
  void on_my_points(const FpVec& xyz);
  void dealer_collect_ok();
  void request_open(int i);
  void contribute_to_open(int i);
  void on_opened(int i, const FpVec& xyz);
  void try_finish();
  void discard();

  PartyId dealer_;
  Time nominal_start_;
  int num_triples_;
  PartySet z_;
  OutputFn on_output_;

  Vss* vss_ = nullptr;
  Beaver* beaver_ = nullptr;
  std::vector<Bc*> ok_bcs_;       // OK/NOK broadcast per party
  Bc* dealer_sets_ = nullptr;     // the dealer's (OK, NOK) announcement
  std::map<int, PubRec*> opens_;  // public reconstructions per party index

  std::vector<std::array<Fp, 3>> dealer_plain_;  // dealer's output triples
  FpVec shares_;                 // VSS output shares (3·L·(2ts+1))
  bool vss_done_ = false;
  bool transformed_ = false;
  FpVec zx_;                     // shares of Z_l(i), i = 1..2ts+1, per l
  bool verified_sent_ = false;
  bool my_check_ok_ = false;
  std::optional<PartySet> dealer_ok_;   // from the dealer's announcement
  std::optional<PartySet> dealer_nok_;
  PartySet ok_seen_;             // parties whose OK(i) arrived
  PartySet nok_seen_;            // parties whose NOK(i) arrived
  std::map<int, FpVec> opened_;  // verified public points per party
  PartySet open_requested_;
  PartySet opens_contributed_;
  bool sets_sent_ = false;
  VtsOutcome outcome_ = VtsOutcome::none;
  TripleShares output_;
  Time output_time_ = -1;
};

}  // namespace nampc
