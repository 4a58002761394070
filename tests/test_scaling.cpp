// Scaling-engine invariants: shared payload bodies never alias a rewrite
// and are released exactly once, instance-id interning is stable, the
// batched RS encode and dealer row caches are bit-identical to the
// per-point paths they replace, the incremental Star repair preserves
// matching maximality on random NOK sequences, and the scaling sweep is
// byte-deterministic serial vs parallel.
#include <gtest/gtest.h>

#include "graph/star_incremental.h"
#include "net/simulation.h"
#include "poly/batch_eval.h"
#include "rs/rs_encode.h"
#include "sharing/wss.h"
#include "util/sweep.h"

namespace nampc {
namespace {

Simulation::Config small_config() {
  Simulation::Config cfg;
  cfg.params = {4, 1, 0};
  cfg.seed = 7;
  return cfg;
}

TEST(Payload, SharesOneBodyAndRewritesDoNotAlias) {
  const Payload a = Words{1, 2, 3, 4};
  Payload b = a;
  EXPECT_EQ(b.data(), a.data());  // a copy shares the body

  // mut() on a shared body clones it first: the other copy is untouched.
  b.mut()[0] = 42;
  EXPECT_NE(b.data(), a.data());
  EXPECT_EQ(a.words(), (Words{1, 2, 3, 4}));
  EXPECT_EQ(b.words(), (Words{42, 2, 3, 4}));
  // A body with one owner is written in place.
  const Word* own = b.data();
  b.mut()[1] = 7;
  EXPECT_EQ(b.data(), own);
  EXPECT_EQ(b.words(), (Words{42, 7, 3, 4}));

  // An empty payload holds no body.
  EXPECT_EQ(Payload().data(), nullptr);
  EXPECT_EQ(Payload(Words{}).data(), nullptr);
  EXPECT_TRUE(Payload().empty());

  // A Reader over a Payload reads the body in place.
  const Payload framed = Words{2, 7, 8};
  Reader r(framed);
  const std::span<const Word> view = r.view();
  EXPECT_EQ(view.data(), framed.data() + 1);
  EXPECT_TRUE(r.done());
}

// mut() writes in place exactly when this Payload is its body's only
// owner, so it doubles as a probe of the plain count. The probe is not
// read-only: on a shared body it leaves `p` the sole owner of a clone.
bool sole_owner(Payload& p) {
  const Word* before = p.data();
  (void)p.mut();
  return p.data() == before;
}

// The body count is a plain integer: every copy, move and assignment must
// take or release exactly one reference. A missed release leaks (the ASan
// ctest job runs with detect_leaks=1); an extra one is a use-after-free.
TEST(Payload, CountReleasesExactlyOnce) {
  Payload a = Words{1, 2, 3};
  const Word* body = a.data();
  {
    Payload copy = a;
    EXPECT_EQ(copy.data(), body);
    const Payload moved = std::move(copy);
    EXPECT_EQ(moved.data(), body);
    EXPECT_EQ(copy.data(), nullptr);  // NOLINT(bugprone-use-after-move)
  }
  EXPECT_TRUE(sole_owner(a));
  EXPECT_EQ(a.data(), body);

  // Self-assignment, copy and move, keeps the one reference.
  Payload& alias = a;
  a = alias;
  EXPECT_EQ(a.data(), body);
  EXPECT_TRUE(sole_owner(a));
  a = std::move(alias);
  EXPECT_EQ(a.data(), body);
  EXPECT_TRUE(sole_owner(a));
  EXPECT_EQ(a.words(), (Words{1, 2, 3}));

  // Copy-assignment over a shared body releases it once.
  Payload x = Words{7};
  Payload y = x;
  const Payload z = Words{8};
  y = z;
  EXPECT_EQ(y.data(), z.data());
  EXPECT_TRUE(sole_owner(x));
  EXPECT_EQ(x.words(), (Words{7}));
  // So does move-assignment, which empties its source.
  Payload u = Words{9};
  Payload v = u;
  Payload w = Words{10};
  const Word* w_body = w.data();
  v = std::move(w);
  EXPECT_EQ(v.data(), w_body);
  EXPECT_EQ(w.data(), nullptr);  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(sole_owner(u));
  EXPECT_TRUE(sole_owner(v));
  // And assigning an empty Payload.
  Payload s = Words{11};
  Payload t = s;
  t = Payload();
  EXPECT_TRUE(t.empty());
  EXPECT_TRUE(sole_owner(s));

  // mut() on an empty Payload allocates a body of its own ...
  Payload e;
  e.mut().push_back(5);
  EXPECT_NE(e.data(), nullptr);
  EXPECT_EQ(e.words(), (Words{5}));
  // ... writes a unique body in place ...
  const Word* own = e.data();
  e.mut()[0] = 6;
  EXPECT_EQ(e.data(), own);
  // ... and clones a shared one, leaving the other owner's words alone.
  const Payload sharer = e;
  e.mut()[0] = 7;
  EXPECT_NE(e.data(), own);
  EXPECT_EQ(sharer.data(), own);
  EXPECT_EQ(sharer.words(), (Words{6}));
  EXPECT_EQ(e.words(), (Words{7}));
  // A shared body with no words yet is cloned too.
  Payload blank;
  (void)blank.mut();
  Payload blank_copy = blank;
  blank_copy.mut().push_back(1);
  EXPECT_TRUE(blank.empty());
  EXPECT_EQ(blank_copy.words(), (Words{1}));
}

TEST(InstanceInterning, StableDenseIds) {
  Simulation sim(small_config(), std::make_shared<Adversary>());
  const std::uint32_t a = sim.intern_instance("wss/it0/pub");
  const std::uint32_t b = sim.intern_instance("wss/it0/r0");
  EXPECT_NE(a, b);
  EXPECT_EQ(sim.intern_instance("wss/it0/pub"), a);
  EXPECT_EQ(sim.instance_name(a), "wss/it0/pub");
  EXPECT_EQ(sim.instance_name(b), "wss/it0/r0");
  // Names keep stable addresses as the table grows (Message carries the
  // pointer): intern many more and re-check the first.
  const std::string* addr = &sim.instance_name(a);
  for (int i = 0; i < 200; ++i) {
    (void)sim.intern_instance("grow/" + std::to_string(i));
  }
  EXPECT_EQ(addr, &sim.instance_name(a));
}

TEST(BatchedEncode, BitIdenticalToPerPointEval) {
  Rng rng(101);
  const int n = 32;
  const int d = 10;
  std::vector<Polynomial> polys;
  for (int k = 0; k < 12; ++k) {
    polys.push_back(Polynomial::random_with_constant(
        Fp(rng.next_below(Fp::kPrime)), d, rng));
  }
  polys.emplace_back();  // zero polynomial rides along
  FpGrid grid;
  rs_encode_batch(polys, n, d, grid);
  ASSERT_EQ(grid.rows(), polys.size());
  ASSERT_EQ(grid.cols(), static_cast<std::size_t>(n));
  for (std::size_t k = 0; k < polys.size(); ++k) {
    for (int j = 0; j < n; ++j) {
      EXPECT_EQ(grid.at(k, static_cast<std::size_t>(j)),
                polys[k].eval(eval_point(j)))
          << "poly " << k << " point " << j;
    }
  }
  // Single-codeword entry point agrees too.
  const FpVec code = rs_encode(polys[0], n);
  for (int j = 0; j < n; ++j) {
    EXPECT_EQ(code[static_cast<std::size_t>(j)],
              polys[0].eval(eval_point(j)));
  }
}

TEST(BatchedEncode, RowFamilyMatchesPerPartyRows) {
  Rng rng(202);
  const int n = 64;
  const SymBivariate f = SymBivariate::random_with_secret(Fp(77), 21, rng);
  const std::vector<Polynomial> family = f.rows_for_parties(n);
  ASSERT_EQ(family.size(), static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    const Polynomial per = f.row_for_party(j);
    EXPECT_EQ(family[static_cast<std::size_t>(j)].coeffs(), per.coeffs())
        << "row " << j;
  }
  // The dealer's committed-point grid identity: encoding the family gives
  // grid.at(i, j) = row_i(α_{j+1}) = F(α_{j+1}, α_{i+1}), symmetric.
  FpGrid grid;
  rs_encode_batch(family, n, 21, grid);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      EXPECT_EQ(grid.at(static_cast<std::size_t>(i),
                        static_cast<std::size_t>(j)),
                f.eval(eval_point(j), eval_point(i)));
    }
  }
}

TEST(BatchedEncode, VandermondeCacheHits) {
  BatchEval& cache = BatchEval::local();
  cache.clear();
  Rng rng(303);
  const Polynomial p =
      Polynomial::random_with_constant(Fp(5), 7, rng);
  FpVec out;
  cache.eval_at_parties(p, 16, out);
  const std::uint64_t misses = cache.misses();
  cache.eval_at_parties(p, 16, out);
  EXPECT_EQ(cache.misses(), misses);  // same (n, width) geometry: a hit
  EXPECT_GE(cache.hits(), 1u);
}

/// (C, D) validity per Protocol 4.2: C ⊆ D, size bounds, and every C x D
/// pair is a consistency edge. Holds for any maximum matching, so both the
/// from-scratch and the incrementally repaired finder must satisfy it.
void expect_valid_star(const Graph& g, const StarResult& s, int t) {
  const int n = g.size();
  EXPECT_TRUE(s.c.subset_of(s.d));
  EXPECT_GE(s.c.size(), n - 2 * t);
  EXPECT_GE(s.d.size(), n - t);
  for (int c : s.c.to_vector()) {
    for (int d : s.d.to_vector()) {
      if (c != d) {
        EXPECT_TRUE(g.has_edge(c, d)) << c << "," << d;
      }
    }
  }
}

TEST(IncrementalStar, RandomNokSequencesStayMaximum) {
  Rng rng(404);
  for (const int n : {8, 13, 21}) {
    const int t = (n - 1) / 4;
    std::vector<std::pair<int, int>> arrivals;
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) arrivals.emplace_back(i, j);
    }
    for (std::size_t i = arrivals.size(); i-- > 1;) {
      std::swap(arrivals[i], arrivals[rng.next_below(i + 1)]);
    }
    StarFinder inc(n, t);
    Graph g(n);
    for (const auto& [u, v] : arrivals) {
      g.add_edge(u, v);
      inc.add_edge(u, v);
      // The decremental repair must keep a maximum matching: same size as
      // a from-scratch solve of the same complement.
      StarFinder scratch;
      scratch.load(g, t);
      ASSERT_EQ(inc.matching_size(), scratch.matching_size())
          << "n=" << n << " after edge " << u << "-" << v;
      const auto star = inc.find();
      if (star.has_value()) expect_valid_star(g, *star, t);
      // Full graph at the end: the star must exist (the complete graph is
      // an n-clique).
    }
    const auto final_star = inc.find();
    ASSERT_TRUE(final_star.has_value());
    EXPECT_EQ(final_star->c.size(), n);
    EXPECT_EQ(inc.matching_size(), 0);
  }
}

TEST(IncrementalStar, SyncToCatchesUpToSnapshot) {
  Rng rng(505);
  const int n = 16;
  const int t = 4;
  Graph g(n);
  StarFinder inc(n, t);
  for (int step = 0; step < 40; ++step) {
    const int u = static_cast<int>(rng.next_below(n));
    const int v = static_cast<int>(rng.next_below(n));
    if (u != v) g.add_edge(u, v);
    if (step % 7 == 0) inc.sync_to(g);  // batched catch-up mid-stream
  }
  inc.sync_to(g);
  StarFinder scratch;
  scratch.load(g, t);
  EXPECT_EQ(inc.matching_size(), scratch.matching_size());
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(inc.graph().neighbors(i).mask(), g.neighbors(i).mask());
  }
}

TEST(ScalingSweep, SerialEqualsParallelAtN32) {
  struct Cell {
    int with_rows = 0;
    Time latest = -1;
    std::uint64_t messages = 0;
    std::uint64_t words = 0;
    std::uint64_t events = 0;
  };
  auto run_cell = [](NetworkKind kind) {
    Simulation::Config cfg;
    cfg.params = {32, 10, 5};
    cfg.kind = kind;
    cfg.seed = 611;
    Simulation sim(cfg, std::make_shared<Adversary>());
    std::vector<Wss*> inst;
    for (int i = 0; i < 32; ++i) {
      inst.push_back(&sim.party(i).spawn<Wss>("wss", 0, 0, WssOptions{},
                                              nullptr));
    }
    Rng rng(612);
    inst[0]->start({Polynomial::random_with_constant(Fp(99), 10, rng)});
    (void)sim.run();
    Cell c;
    for (Wss* w : inst) {
      if (w->outcome() == WssOutcome::rows) {
        ++c.with_rows;
        c.latest = std::max(c.latest, w->output_time());
      }
    }
    c.messages = sim.metrics().messages_sent;
    c.words = sim.metrics().words_sent;
    c.events = sim.metrics().events_processed;
    return c;
  };
  auto sweep_with = [&run_cell](int jobs) {
    Sweep<Cell> sweep(jobs);
    for (NetworkKind k :
         {NetworkKind::synchronous, NetworkKind::asynchronous}) {
      sweep.add([&run_cell, k] { return run_cell(k); });
    }
    return sweep.run();
  };
  const auto serial = sweep_with(1);
  const auto parallel = sweep_with(3);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].with_rows, parallel[i].with_rows);
    EXPECT_EQ(serial[i].latest, parallel[i].latest);
    EXPECT_EQ(serial[i].messages, parallel[i].messages);
    EXPECT_EQ(serial[i].words, parallel[i].words);
    EXPECT_EQ(serial[i].events, parallel[i].events);
  }
  EXPECT_EQ(serial[0].with_rows, 32);
}

TEST(ScalingWss, PoolAndGridActiveOnFullRun) {
  // A full n=16 WSS run exercises the send_all shared-body fan-out, the row
  // grid and the dealer caches; the allocation counters must move and the
  // outcome must be unanimous rows.
  Simulation::Config cfg;
  cfg.params = {16, 5, 2};
  cfg.seed = 713;
  Simulation sim(cfg, std::make_shared<Adversary>());
  std::vector<Wss*> inst;
  for (int i = 0; i < 16; ++i) {
    inst.push_back(
        &sim.party(i).spawn<Wss>("wss", 0, 0, WssOptions{}, nullptr));
  }
  Rng rng(714);
  inst[0]->start({Polynomial::random_with_constant(Fp(21), 5, rng)});
  (void)sim.run();
  for (Wss* w : inst) EXPECT_EQ(w->outcome(), WssOutcome::rows);
  // At most one body allocation per send_all fan-out of n messages.
  const Metrics& m = sim.metrics();
  EXPECT_GT(m.payload_pool_hits, 0u);
  EXPECT_LE(16 * m.payload_pool_misses,
            m.payload_pool_hits + m.payload_pool_misses);
  EXPECT_GT(sim.metrics().peak_queue_depth, 0u);
  // Pairwise consistency across the cached-evaluation paths.
  for (int i = 0; i < 16; ++i) {
    for (int j = i + 1; j < 16; ++j) {
      EXPECT_EQ(inst[static_cast<std::size_t>(i)]->point_for(0, j),
                inst[static_cast<std::size_t>(j)]->point_for(0, i));
    }
  }
}

}  // namespace
}  // namespace nampc
