// Weak Secret Sharing — Π_WSS (Protocols 6.1 and 6.2) — the paper's core
// technical contribution, with the clique-extension machinery that achieves
// optimal resiliency n > 2·max(ts,ta) + max(2ta,ts).
//
// The dealer shares a *vector* of secrets (DESIGN.md substitution #5), one
// symmetric (ts,ts)-bivariate polynomial per secret embedded via its row-0
// polynomial q_k: F_k(x,0) = q_k(x). Party j's output is the vector of row
// polynomials f_j^k(x) = F_k(x, j+1); its Shamir share of secret k is
// f_j^k(0) = q_k(eval_point(j)).
//
// Structure per iteration (times relative to the iteration start S):
//   S              dealer sends rows; broadcasts (U, rows of U)   [Π_BC]
//   S+Δ            pairwise point exchange (sent once, rows never change)
//   S+T_BC         every party broadcasts its report vector R_i   [Π_BC]
//   S+2T_BC        dealer: grow W / find clique / (sync|restart|continue)
//   S+3T_BC        parties: verify, Π_BA #1, conflict broadcasts for V
//   S+4T_BC+T_BA   dealer: clique expansion or restart
//   S+5T_BC+T_BA   parties: verify, Π_BA #2
// In parallel, the action-based asynchronous path runs: AOK Acasts,
// dealer-side exact clique search on the AOK graph A, (async, A, Qa).
//
// Z-conditioning (for use inside Π_VSS, §6 end / §7): when `z` is set, the
// dealer keeps U, V, W ⊆ Z and silent cliquemates outside Z force a
// (restart, {φ}) with the offender blacklisted from future cliques; the
// iteration budget grows from ts-ta+1 to ts+1 accordingly.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "broadcast/ba.h"
#include "broadcast/bc.h"
#include "field/fp_soa.h"
#include "graph/graph.h"
#include "net/simulation.h"
#include "poly/bivariate.h"
#include "sharing/encoding.h"

namespace nampc {

struct WssOptions {
  int num_secrets = 1;
  /// Z-conditioned instance: U, V, W must stay inside this set (|Z| = ts-ta).
  std::optional<PartySet> z;
  /// Π_VSS mode (Protocol 7.1): pairwise checks run through inner Π_WSS
  /// instances instead of direct point exchange, and every step after the
  /// exchange shifts by T'_WSS, the time those instances take.
  bool inner_check = false;

  [[nodiscard]] int max_iterations(const ProtocolParams& p) const {
    // LINT:threshold(wss.iterations)
    return z.has_value() || inner_check ? p.ts + 1 : p.ts - p.ta + 1;
  }
};

/// Final state of one party in a WSS instance.
enum class WssOutcome {
  none,  ///< no output (permitted for a corrupt dealer)
  rows,  ///< holds row polynomials consistent with the committed bivariates
  bot,   ///< explicit ⊥ (corrupt dealer detected in a synchronous network)
};

class Wss : public ProtocolInstance {
 public:
  /// Fires once, when this party decides its output.
  using OutputFn = std::function<void()>;

  Wss(Party& party, std::string key, PartyId dealer, Time nominal_start,
      WssOptions options, OutputFn on_output);

  /// Dealer-side: share row-0 polynomials (degree <= ts, one per secret).
  /// Must be called at nominal_start.
  void start(std::vector<Polynomial> row0s);

  [[nodiscard]] PartyId dealer() const { return dealer_; }
  [[nodiscard]] WssOutcome outcome() const { return outcome_; }
  [[nodiscard]] bool has_output() const { return outcome_ != WssOutcome::none; }
  [[nodiscard]] Time output_time() const { return output_time_; }

  /// Row polynomials (one per secret); valid iff outcome() == rows.
  [[nodiscard]] const std::vector<Polynomial>& rows() const {
    NAMPC_REQUIRE(outcome_ == WssOutcome::rows, "no row output");
    return output_rows_;
  }
  /// This party's Shamir share of secret k.
  [[nodiscard]] Fp share(int k) const {
    return rows()[static_cast<std::size_t>(k)].eval(Fp(0));
  }
  /// The pairwise point this party holds for party j on secret k.
  [[nodiscard]] Fp point_for(int k, int j) const {
    return rows()[static_cast<std::size_t>(k)].eval(eval_point(j));
  }

  /// Honest parties whose full rows became public in this instance
  /// (privacy audit; must stay within Z and within ts - ta).
  [[nodiscard]] PartySet revealed_parties() const { return revealed_; }

  void on_message(const Message& msg) override;

 private:
  enum MsgType { kRow = 1, kPoint = 2 };

  struct Iteration {
    int index = 0;
    Time start = 0;
    bool dealer_started = false;  // rows sent & pub broadcast begun
    Bc* pub = nullptr;                  // (U, rows of U)
    std::vector<Bc*> reports;           // R_i broadcasts
    Bc* dealer_step5 = nullptr;         // sync / restart / continue
    Bc* dealer_step8 = nullptr;         // sync / restart
    Ba* ba1 = nullptr;
    Ba* ba2 = nullptr;
    // Parsed state:
    PartySet u;                          // U from the pub broadcast
    bool pub_valid = false;
    std::vector<RVector> r_vectors;      // parsed R_j (empty = ⊥/missing)
    // A valid (continue, Q, G, V) of step 5, which steps 7-9 expand.
    struct Expansion {
      PartySet q;
      PartySet v;
      Graph g;                           // my report graph that admitted Q
    };
    std::optional<Expansion> expansion;
    std::map<std::pair<int, int>, Bc*> conflict_bcs;  // (speaker, about)
    bool conflicts_started = false;
    bool rows_by_delta = false;          // dealer rows arrived by S+Δ
    std::optional<PartySet> pending_sync_qa;  // accepted after BA said 1
    bool ba1_value = false;
    bool ba2_value = false;
    bool ba1_done = false;
    bool ba2_done = false;
  };

  // --- shared helpers ---
  [[nodiscard]] int ts() const { return params().ts; }
  [[nodiscard]] int ta() const { return params().ta; }
  [[nodiscard]] int num_secrets() const { return options_.num_secrets; }
  [[nodiscard]] bool z_conditioned() const { return options_.z.has_value(); }
  [[nodiscard]] bool i_am_dealer() const { return my_id() == dealer_; }
  /// How far every step after the pairwise exchange shifts: T'_WSS in
  /// inner-check (VSS) mode, else 0.
  [[nodiscard]] Time check_shift() const {
    return options_.inner_check ? timing().t_wss_z : 0;
  }
  /// One iteration: 5*T_BC + 2*T_BA, plus T'_WSS in inner-check (VSS) mode.
  [[nodiscard]] Time iteration_length() const {
    return timing().wss_iter + check_shift();
  }
  /// Nominal start of the conflict phase (steps 7-8): S + 3T_BC + T_BA,
  /// shifted by check_shift().
  [[nodiscard]] Time conflict_start(const Iteration& it) const {
    return it.start + 3 * timing().t_bc + check_shift() + timing().t_ba;
  }
  /// The pairwise check value this party holds for peer j (one per secret):
  /// the directly exchanged point, or the inner-WSS output share.
  [[nodiscard]] std::optional<FpVec> check_point_from(int j) const;
  void start_inner_if_ready();
  /// Peer j's check value arrived: a direct point, or its inner-WSS output.
  void on_check_point(int j);

  void begin_iteration(Time start_time);

  // Party-side steps.
  void step_send_points();
  void step_report(Iteration& it);
  void on_pub_broadcast(Iteration& it, const std::optional<Words>& payload);
  /// Parses every report broadcast as visible now into it.r_vectors.
  void parse_reports(Iteration& it);
  /// Steps 5 and 8: handles a dealer's (sync, G, Q_a) or (restart, U) read
  /// from `r` after its `tag`. A sync Q_a becomes the iteration's pending
  /// candidate; returns whether it verifies now.
  bool on_sync_or_restart(Iteration& it, std::uint64_t tag, Reader& r,
                          bool with_conflict_edges);
  void step_handle_dealer5(Iteration& it);
  void start_conflict_broadcasts(Iteration& it);
  void step_handle_dealer8(Iteration& it);
  void on_ba1(Iteration& it, bool v);
  void on_ba2(Iteration& it, bool v);
  void retry_pending_accept(Iteration& it);
  void schedule_restart(Iteration& it, Time nominal);

  // Graph construction from broadcast state (shared with verification).
  [[nodiscard]] Graph build_report_graph(const Iteration& it,
                                         bool with_conflict_edges) const;
  [[nodiscard]] bool verify_sync_qa(Iteration& it, PartySet qa,
                                    bool with_conflict_edges);
  /// The AOK graph A for a given U: U is a clique, a U member is joined to
  /// every party that AOK'd it, and two others are joined when both AOK'd
  /// each other.
  [[nodiscard]] Graph aok_graph(PartySet u) const;

  // Dealer-side steps.
  void clamp_dealer_u();
  void dealer_start_iteration(Iteration& it);
  void dealer_step5(Iteration& it);
  void dealer_step8(Iteration& it);
  void dealer_check_async();

  // Asynchronous path.
  void maybe_send_aok(int j);
  void on_aok(int i, int j);
  void try_accept_async();

  // Output machinery (Protocol 6.2).
  void accept_qa(PartySet qa, PartySet u, int iteration_index, bool via_sync);
  void try_reconstruct();
  void decide_output(WssOutcome outcome, std::vector<Polynomial> rows);

  /// Records that `member`'s row polynomials became public, feeding both the
  /// revealed_parties() query and the Metrics privacy audit (counted once
  /// globally, by the revealed party's own honest instance copy).
  void note_revealed(int member);

  // Scaling caches (exact field arithmetic makes every cached value
  // bit-identical to the on-demand evaluation it replaces).
  /// My rows evaluated at party j's point, one per secret:
  /// rows_[k](α_{j+1}), served from the row_points_ grid (valid once
  /// have_rows_).
  [[nodiscard]] FpVec row_points_for(int j) const;
  /// Dealer-side: rows of party j across all secrets.
  [[nodiscard]] std::vector<Polynomial> dealer_rows_for(int j) const;
  /// Dealer-side committed point F_k(α_at, α_owner) = row_owner^k(α_at) —
  /// the value party `owner` should hold/report for partner `at`.
  [[nodiscard]] Fp dealer_point(int k, int owner, int at) const;

  // Dealer state.
  PartyId dealer_;
  Time nominal_start_;
  WssOptions options_;
  OutputFn on_output_;
  std::vector<SymBivariate> bivariates_;  // dealer only
  std::vector<Polynomial> dealer_row0s_;  // dealer only
  PartySet dealer_u_;                     // U, grows across iterations
  PartySet dealer_blacklist_;             // silent non-Z cliquemates
  bool dealer_async_sent_ = false;
  // Scaling caches, dealer side (filled in start()):
  // dealer_rows_[k][j] = bivariates_[k].row_for_party(j);
  // dealer_points_[k].at(i, j) = row_i^k(α_{j+1}) = F_k(α_{j+1}, α_{i+1}).
  std::vector<std::vector<Polynomial>> dealer_rows_;
  std::vector<FpGrid> dealer_points_;

  // Party state.
  std::vector<std::unique_ptr<Iteration>> iterations_;
  std::vector<Polynomial> rows_;  // rows received from the dealer
  FpGrid row_points_;             // rows_ batch-encoded over all n points
  bool have_rows_ = false;
  Time rows_time_ = -1;
  bool points_sent_ = false;
  std::map<PartyId, FpVec> peer_points_;       // pairwise points received
  std::map<PartyId, std::vector<Polynomial>> published_rows_;
  PartySet u_known_;                           // latest public U
  std::vector<Wss*> inner_;                    // inner-check mode instances
  bool inner_started_ = false;
  PartySet aok_sent_;                          // AOKs this party Acast
  std::vector<Acast*> my_aoks_;                // my_aoks_[j]: my AOK_j
  std::vector<PartySet> aok_edges_from_;       // received AOK_i->j
  Acast* async_bcast_ = nullptr;               // dealer's (async, A, Qa)
  std::optional<PartySet> async_qa_;           // Q_a of (async, A, Qa)
  PartySet async_u_;
  bool discarded_ = false;

  // Accepted output state.
  bool accepted_ = false;
  PartySet accepted_qa_;
  PartySet accepted_u_;
  int accepted_iteration_ = -1;
  bool accepted_via_sync_ = false;
  bool reconstruct_armed_ = false;

  WssOutcome outcome_ = WssOutcome::none;
  std::vector<Polynomial> output_rows_;
  Time output_time_ = -1;
  PartySet revealed_;
};

}  // namespace nampc
