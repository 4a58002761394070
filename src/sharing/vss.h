// Verifiable Secret Sharing — Π_VSS (Protocols 7.1/7.2, Theorem 7.3).
//
// The two-layer construction of §7: the outer dealer runs the Π_WSS state
// machine, but pairwise consistency is checked through one inner Π_WSS
// instance per party (each re-sharing the row it received), which lets
// parties outside the final clique reconstruct their rows even when the
// dealer is corrupt in a synchronous network — upgrading weak commitment to
// strong commitment. Every step after the exchange shifts by T'_WSS, and
// the instance is conditioned on a global set Z of ts - ta parties (§7):
// every public revelation in either layer stays inside Z, so the adversary
// never learns more than ts rows of any honest bivariate polynomial. A full
// VSS iterates over all C(n, ts-ta) subsets Z (done by the MPC layer).
//
// Outputs: each party's row polynomials f_i (one per batched secret); its
// degree-ts Shamir share of secret k is share(k) = f_i^k(0).
#pragma once

#include "sharing/wss.h"

namespace nampc {

class Vss : public Wss {
 public:
  Vss(Party& party, std::string key, PartyId dealer, Time nominal_start,
      int num_secrets, PartySet z, OutputFn on_output)
      : Wss(party, std::move(key), dealer, nominal_start,
            WssOptions{num_secrets, z, /*inner_check=*/true},
            std::move(on_output)) {
    // Overrides the base Wss tag for attribution; the registry's tag counts
    // still see both (a VSS counts under "wss" and "vss").
    span_kind("vss");
  }
};

}  // namespace nampc
