// Unit + property tests: matching, (n,t)-Star (Protocol 4.2), cliques.
#include <gtest/gtest.h>

#include "graph/graph.h"
#include "util/rng.h"

namespace nampc {
namespace {

Graph random_graph(int n, double edge_prob, Rng& rng) {
  Graph g(n);
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) {
      if (rng.next_below(1000) < static_cast<std::uint64_t>(edge_prob * 1000)) {
        g.add_edge(u, v);
      }
    }
  }
  return g;
}

/// Adds a clique over `members` to g.
void plant_clique(Graph& g, const PartySet& members) {
  const auto v = members.to_vector();
  for (std::size_t i = 0; i < v.size(); ++i) {
    for (std::size_t j = i + 1; j < v.size(); ++j) {
      if (!g.has_edge(v[i], v[j])) g.add_edge(v[i], v[j]);
    }
  }
}

TEST(Graph, BasicOperations) {
  Graph g(5);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_EQ(g.degree(1), 2);
  g.remove_edge(0, 1);
  EXPECT_FALSE(g.has_edge(0, 1));
}

TEST(Graph, ComplementInverts) {
  Rng rng(41);
  const Graph g = random_graph(8, 0.5, rng);
  const Graph gc = g.complement();
  for (int u = 0; u < 8; ++u) {
    for (int v = 0; v < 8; ++v) {
      if (u == v) continue;
      EXPECT_NE(g.has_edge(u, v), gc.has_edge(u, v));
    }
  }
}

TEST(Graph, EdgesSubsetOf) {
  Graph a(4);
  a.add_edge(0, 1);
  Graph b(4);
  b.add_edge(0, 1);
  b.add_edge(2, 3);
  EXPECT_TRUE(a.edges_subset_of(b));
  EXPECT_FALSE(b.edges_subset_of(a));
}

TEST(Graph, CodecRoundTrip) {
  Rng rng(42);
  const Graph g = random_graph(7, 0.4, rng);
  Writer w;
  g.encode(w);
  Words words = std::move(w).take();
  Reader r(words);
  EXPECT_EQ(Graph::decode(r), g);
}

bool is_valid_matching(const Graph& g,
                       const std::vector<std::pair<int, int>>& m) {
  PartySet used;
  for (const auto& [u, v] : m) {
    if (!g.has_edge(u, v)) return false;
    if (used.contains(u) || used.contains(v)) return false;
    used.insert(u);
    used.insert(v);
  }
  return true;
}

TEST(Matching, PerfectMatchingOnEvenCycle) {
  Graph g(6);
  for (int i = 0; i < 6; ++i) g.add_edge(i, (i + 1) % 6);
  const auto m = maximum_matching(g);
  EXPECT_TRUE(is_valid_matching(g, m));
  EXPECT_EQ(m.size(), 3u);
}

TEST(Matching, OddCycleLeavesOneUnmatched) {
  Graph g(5);
  for (int i = 0; i < 5; ++i) g.add_edge(i, (i + 1) % 5);
  const auto m = maximum_matching(g);
  EXPECT_TRUE(is_valid_matching(g, m));
  EXPECT_EQ(m.size(), 2u);
}

TEST(Matching, BlossomCase) {
  // A triangle with a pendant on each corner: maximum matching = 3, which a
  // greedy matcher can miss.
  Graph g(6);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);
  g.add_edge(0, 3);
  g.add_edge(1, 4);
  g.add_edge(2, 5);
  const auto m = maximum_matching(g);
  EXPECT_TRUE(is_valid_matching(g, m));
  EXPECT_EQ(m.size(), 3u);
}

TEST(Matching, EmptyGraph) {
  Graph g(4);
  EXPECT_TRUE(maximum_matching(g).empty());
}

TEST(Clique, FindsPlantedMaximumClique) {
  Rng rng(43);
  for (int trial = 0; trial < 20; ++trial) {
    Graph g = random_graph(10, 0.3, rng);
    PartySet planted;
    while (planted.size() < 6) {
      planted.insert(static_cast<int>(rng.next_below(10)));
    }
    plant_clique(g, planted);
    const PartySet found = maximum_clique(g);
    EXPECT_GE(found.size(), 6);
    EXPECT_TRUE(g.is_clique(found));
  }
}

TEST(Clique, FindCliqueIncludingRespectsConstraints) {
  Rng rng(44);
  Graph g = random_graph(9, 0.2, rng);
  const PartySet planted = PartySet::of({0, 2, 4, 6, 8});
  plant_clique(g, planted);
  const auto q = find_clique_including(g, PartySet::of({0, 2}), 5);
  ASSERT_TRUE(q.has_value());
  EXPECT_TRUE(q->contains(0));
  EXPECT_TRUE(q->contains(2));
  EXPECT_GE(q->size(), 5);
  EXPECT_TRUE(g.is_clique(*q));
  // Excluding a planted member still leaves a 4-clique, not a 5-clique
  // necessarily — ask only for what must exist.
  const auto q2 =
      find_clique_including(g, PartySet::of({0}), 4, PartySet::of({4}));
  ASSERT_TRUE(q2.has_value());
  EXPECT_FALSE(q2->contains(4));
}

TEST(Clique, FindCliqueIncludingIsExact) {
  // The dealer's asynchronous announcement relies on this: when the search
  // finds nothing, no clique of the target size contains U. Compare with a
  // brute-force search over all subsets.
  Rng rng(20261017);
  for (int trial = 0; trial < 300; ++trial) {
    const int n = 1 + static_cast<int>(rng.next_below(12));
    const double density = 0.3 + 0.06 * static_cast<double>(rng.next_below(10));
    Graph g = random_graph(n, density, rng);
    PartySet u;
    PartySet exclude;
    for (int v = 0; v < n; ++v) {
      const std::uint64_t r = rng.next_below(6);
      if (r == 0) u.insert(v);
      if (r == 1) exclude.insert(v);
    }
    plant_clique(g, u);
    int best = -1;  // largest clique containing u and avoiding exclude
    for (std::uint64_t mask = 0; mask < (1ull << n); ++mask) {
      const PartySet s{mask};
      if (u.subset_of(s) && s.intersect(exclude).empty() && g.is_clique(s)) {
        best = std::max(best, s.size());
      }
    }
    for (int target = 0; target <= n + 1; ++target) {
      const auto q = find_clique_including(g, u, target, exclude);
      ASSERT_EQ(q.has_value(), best >= target)
          << "trial " << trial << " n=" << n << " target=" << target;
      if (!q.has_value()) continue;
      EXPECT_EQ(q->size(), best) << "trial " << trial;
      EXPECT_TRUE(u.subset_of(*q));
      EXPECT_TRUE(q->intersect(exclude).empty());
      EXPECT_TRUE(g.is_clique(*q));
    }
  }
}

TEST(Clique, ImpossibleTargetReturnsNullopt) {
  Graph g(5);
  g.add_edge(0, 1);
  EXPECT_FALSE(find_clique_including(g, {}, 3).has_value());
  // must_include not a clique.
  EXPECT_FALSE(find_clique_including(g, PartySet::of({0, 2}), 2).has_value());
}

// --- (n,t)-Star properties ----------------------------------------------

struct StarCase {
  int n;
  int t;
};

class StarTest : public ::testing::TestWithParam<StarCase> {};

TEST_P(StarTest, FindsStarWhenCliqueExists) {
  const auto [n, t] = GetParam();
  Rng rng(45 + static_cast<std::uint64_t>(n * 10 + t));
  int found_count = 0;
  for (int trial = 0; trial < 30; ++trial) {
    Graph g = random_graph(n, 0.35, rng);
    // Plant a clique of size n - t (Canetti's premise).
    PartySet planted;
    for (int i = 0; i < n - t; ++i) planted.insert(i);
    plant_clique(g, planted);
    const auto star = find_star(g, t);
    if (star.has_value()) {
      ++found_count;
      EXPECT_GE(star->c.size(), n - 2 * t);
      EXPECT_GE(star->d.size(), n - t);
      EXPECT_TRUE(star->c.subset_of(star->d));
      for (int j : star->c.to_vector()) {
        for (int k : star->d.to_vector()) {
          if (j == k) continue;
          EXPECT_TRUE(g.has_edge(j, k))
              << "star violates C-D adjacency: " << j << "," << k;
        }
      }
      if (star->extended) {
        EXPECT_GE(star->e.size(), n - t);
        EXPECT_GE(star->f.size(), n - t);
      }
    }
  }
  // The core (C, D) star must be found whenever an n-t clique exists.
  EXPECT_EQ(found_count, 30);
}

INSTANTIATE_TEST_SUITE_P(Sizes, StarTest,
                         ::testing::Values(StarCase{7, 1}, StarCase{10, 2},
                                           StarCase{13, 3}, StarCase{16, 4}));

TEST(Star, NoStarInSparseGraph) {
  // An empty graph has no (n,t)-star for t < n/3.
  Graph g(9);
  EXPECT_FALSE(find_star(g, 2).has_value());
}

TEST(Star, CompleteGraphGivesFullStar) {
  Graph g(7);
  for (int u = 0; u < 7; ++u) {
    for (int v = u + 1; v < 7; ++v) g.add_edge(u, v);
  }
  const auto star = find_star(g, 2);
  ASSERT_TRUE(star.has_value());
  EXPECT_EQ(star->c.size(), 7);
  EXPECT_EQ(star->d.size(), 7);
  EXPECT_TRUE(star->extended);
  EXPECT_EQ(star->f.size(), 7);
}

}  // namespace
}  // namespace nampc
