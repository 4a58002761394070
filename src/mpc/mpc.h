// The complete network-agnostic MPC protocol (Section 10).
//
// Composition per §2.3/§10:
//  1. For every candidate subset Z of size ts-ta (k = C(n, ts-ta) of them),
//     every party deals: a Π_VTS instance (random verified multiplication
//     triples) and a Π_VSS instance carrying its circuit inputs.
//  2. Two-layer agreement: one Π_ACS per subset (quorum n-ts over dealers)
//     finds subsets for which enough dealers finished; a second slot-ACS
//     (quorum 1 over the k subsets) picks a common successful subset ℓ and
//     thereby a common dealer set Com with |Com| >= n-ts.
//  3. Π_tripleExt extracts random triples nobody knows from the Com
//     dealers' verified triples.
//  4. Circuit evaluation: inputs of Com dealers (default 0 for the rest),
//     linear gates local, one batched Π_Beaver per multiplicative level,
//     public reconstruction of the output wires.
//
// The guarantee matrix of Theorem 1.3 applies: with up to ts corruptions in
// a synchronous network or ta in an asynchronous one, all honest parties
// obtain the correct circuit outputs (almost-surely, eventually, in the
// asynchronous case) and the adversary's view stays independent of honest
// inputs.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "acs/acs.h"
#include "circuit/circuit.h"
#include "sharing/vss.h"
#include "triples/triple_ext.h"
#include "triples/vts.h"

namespace nampc {

class Mpc : public ProtocolInstance {
 public:
  /// Delivers the public circuit outputs.
  using OutputFn = std::function<void(const FpVec&)>;

  Mpc(Party& party, std::string key, const Circuit& circuit, FpVec my_inputs,
      OutputFn on_output);

  [[nodiscard]] bool has_output() const { return output_.has_value(); }
  /// Output values, aligned with circuit.outputs(). Entries of private
  /// outputs owned by other parties are 0 — check output_known(k).
  [[nodiscard]] const FpVec& output() const {
    NAMPC_REQUIRE(output_.has_value(), "mpc incomplete");
    return *output_;
  }
  /// True iff this party learned output k (public, or privately owned).
  [[nodiscard]] bool output_known(int k) const {
    NAMPC_REQUIRE(output_.has_value(), "mpc incomplete");
    return output_known_[static_cast<std::size_t>(k)];
  }
  [[nodiscard]] Time output_time() const { return output_time_; }
  /// The agreed dealer set (valid once the ACS layers concluded).
  [[nodiscard]] PartySet com() const { return com_.value_or(PartySet{}); }

  void on_message(const Message& msg) override;

 private:
  /// True once both dealings of dealer d for subset z concluded locally:
  /// verified triples from Π_VTS and input shares from Π_VSS.
  [[nodiscard]] bool dealings_done(int z, int d) const;
  void on_dealer_done(int z, int d);
  void on_acs1(int z, PartySet com);
  void on_acs2(PartySet chosen);
  void try_enter_online();
  void on_extracted(const TripleShares& triples);
  void evaluate_from(int level);
  void on_level_products(int level, const FpVec& z);
  void finish_outputs();
  void on_output_part(const std::vector<int>& indices, const FpVec& values);
  /// Fixes output_ to output_values_ and delivers it.
  void deliver_output();

  const Circuit& circuit_;
  FpVec my_inputs_;
  OutputFn on_output_;

  std::vector<PartySet> subsets_;          // candidate Z sets, fixed order
  int triples_per_dealer_ = 1;
  // instances_[z][d]:
  std::vector<std::vector<Vts*>> vts_;
  std::vector<std::vector<Vss*>> inp_;
  std::vector<Acs*> acs1_;
  AcsCore* acs2_ = nullptr;
  TripleExt* ext_ = nullptr;
  bool outputs_started_ = false;

  std::vector<std::optional<PartySet>> acs1_done_;  // per z: Com
  std::optional<int> chosen_z_;
  std::optional<PartySet> com_;
  std::vector<int> com_order_;             // dealers consumed, fixed order
  bool online_entered_ = false;
  TripleShares pool_;                      // extracted random triples
  std::size_t pool_used_ = 0;
  FpVec wire_shares_;
  std::vector<bool> wire_ready_;
  std::vector<std::vector<int>> mults_at_level_;
  FpVec output_values_;
  std::vector<bool> output_known_;
  int pending_output_parts_ = 0;
  std::optional<FpVec> output_;
  Time output_time_ = -1;
};

}  // namespace nampc
