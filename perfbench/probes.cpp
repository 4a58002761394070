#include "probes.h"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "field/fp_batch.h"
#include "graph/blossom.h"
#include "graph/star_incremental.h"
#include "net/simulation.h"
#include "poly/interp_cache.h"
#include "rs/reed_solomon.h"
#include "rs/rs_encode.h"

namespace perfbench {

using namespace nampc;

namespace {

/// Makes the compiler assume *p is read and all memory may have changed,
/// so a timed call can be neither dropped nor hoisted out of its loop.
template <typename T>
void keep(const T* p) {
  asm volatile("" : : "g"(p) : "memory");
}

/// Median seconds per call of f: batches grow until one lasts >= 2 ms,
/// then seven batches are timed.
template <typename F>
double per_call_s(F&& f) {
  auto batch = [&f](std::size_t reps) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < reps; ++i) f();
    return seconds(Clock::now() - t0);
  };
  std::size_t reps = 1;
  while (batch(reps) < 2e-3 && reps < (std::size_t{1} << 24)) reps *= 2;
  std::vector<double> per_call;
  for (int b = 0; b < 7; ++b) {
    per_call.push_back(batch(reps) / static_cast<double>(reps));
  }
  std::nth_element(per_call.begin(), per_call.begin() + 3, per_call.end());
  return per_call[3];
}

Fp random_fp(Rng& rng) { return Fp(rng.next_below(Fp::kPrime)); }

FpVec random_vec(Rng& rng, int len) {
  FpVec v;
  for (int i = 0; i < len; ++i) v.push_back(random_fp(rng));
  return v;
}

/// True when `match` is a valid matching of g with no augmenting path
/// left (Berge), i.e. a maximum matching.
bool is_maximum_matching(const Graph& g, const std::vector<int>& match) {
  const int n = g.size();
  for (int v = 0; v < n; ++v) {
    const int u = match[static_cast<std::size_t>(v)];
    if (u < 0) continue;
    if (match[static_cast<std::size_t>(u)] != v || !g.has_edge(u, v)) {
      return false;
    }
  }
  for (int v = 0; v < n; ++v) {
    if (match[static_cast<std::size_t>(v)] >= 0) continue;
    std::vector<int> copy = match;
    if (blossom_augment(g, copy, v)) return false;
  }
  return true;
}

}  // namespace

KernelTimes probe_kernels(const ProtocolParams& p, std::uint64_t seed) {
  KernelTimes kt;
  Rng rng(Rng::split(seed, 7));
  const int n = p.n;
  auto fail = [&kt](const char* what) {
    if (kt.failure.empty()) kt.failure = what;
  };

  {  // Field: fp_dot against the reduce-per-step sum.
    const FpVec a = random_vec(rng, n);
    const FpVec b = random_vec(rng, n);
    Fp naive(0);
    for (int i = 0; i < n; ++i) {
      naive += a[static_cast<std::size_t>(i)] * b[static_cast<std::size_t>(i)];
    }
    Fp got(0);
    kt.dot_ns = 1e9 * per_call_s([&] {
      got = fp_dot(a, b);
      keep(&got);
    });
    if (got != naive) fail("fp_dot differs from the naive sum");
  }

  {  // Poly: cached interpolation against Polynomial::interpolate.
    FpVec xs;
    for (int i = 0; i <= p.ts; ++i) xs.push_back(eval_point(i));
    const FpVec ys = random_vec(rng, p.ts + 1);
    Polynomial got;
    kt.interp_ns = 1e9 * per_call_s([&] {
      got = interpolate_cached(xs, ys);
      keep(&got);
    });
    if (!(got == Polynomial::interpolate(xs, ys))) {
      fail("cached interpolation differs from Polynomial::interpolate");
    }
  }

  std::vector<Polynomial> polys;
  for (int k = 0; k < n; ++k) {
    polys.push_back(Polynomial::random_with_constant(random_fp(rng), p.ts, rng));
  }

  {  // RS encode: one batched family against point-by-point evaluation.
    FpGrid grid;
    kt.encode_batch_us = 1e6 * per_call_s([&] {
      rs_encode_batch(polys, n, p.ts, grid);
      keep(&grid);
    });
    for (std::size_t k = 0; k < polys.size(); ++k) {
      for (int j = 0; j < n; ++j) {
        if (grid.at(k, static_cast<std::size_t>(j)) != polys[k].eval(eval_point(j))) {
          fail("rs_encode_batch differs from per-point evaluation");
        }
      }
    }
  }

  {  // RS decode: Berlekamp-Welch correcting up to ta injected errors.
    const int e = std::min(p.ta, (n - p.ts - 1) / 2);
    std::vector<RsPoint> points;
    for (int j = 0; j < n; ++j) {
      points.push_back({eval_point(j), polys[0].eval(eval_point(j))});
    }
    std::vector<int> order(static_cast<std::size_t>(n));
    for (int j = 0; j < n; ++j) order[static_cast<std::size_t>(j)] = j;
    for (std::size_t i = order.size(); i-- > 1;) {
      std::swap(order[i], order[rng.next_below(i + 1)]);
    }
    for (int k = 0; k < e; ++k) {
      points[static_cast<std::size_t>(order[static_cast<std::size_t>(k)])].y +=
          Fp(1 + rng.next_below(1000));
    }
    RsDecoder& dec = RsDecoder::local();
    RsDecodeResult got;
    kt.decode_ns = 1e9 * per_call_s([&] {
      got = dec.decode(points, p.ts, e);
      keep(&got);
    });
    if (got.status != RsStatus::ok || !(got.poly == polys[0])) {
      fail("RS decode did not recover the encoded polynomial");
    }
  }

  // Graph: a seeded arrival order of consistency (OK) edges, capped at 4n
  // arrivals as in the dealer's AOK pattern.
  std::vector<std::pair<int, int>> arrivals;
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) arrivals.emplace_back(i, j);
  }
  for (std::size_t i = arrivals.size(); i-- > 1;) {
    std::swap(arrivals[i], arrivals[rng.next_below(i + 1)]);
  }
  arrivals.resize(
      std::min<std::size_t>(arrivals.size(), static_cast<std::size_t>(4 * n)));

  {  // Incremental Star against find_star from scratch.
    std::optional<StarResult> got;
    kt.star_us = 1e6 * per_call_s([&] {
      StarFinder sf(n, p.ta);
      for (const auto& [u, v] : arrivals) {
        sf.add_edge(u, v);
        got = sf.find();
      }
      keep(&got);
    });
    Graph g(n);
    for (const auto& [u, v] : arrivals) g.add_edge(u, v);
    if (got.has_value() != find_star(g, p.ta).has_value()) {
      fail("incremental Star disagrees with find_star");
    }
  }

  {  // Blossom matching on the complement of the arrival graph.
    Graph g(n);
    for (const auto& [u, v] : arrivals) g.add_edge(u, v);
    const Graph gc = g.complement();
    std::vector<int> got;
    kt.matching_us = 1e6 * per_call_s([&] {
      got = blossom_matching(gc);
      keep(&got);
    });
    const auto pairs = static_cast<std::size_t>(
        std::count_if(got.begin(), got.end(), [](int v) { return v >= 0; }) /
        2);
    if (!is_maximum_matching(gc, got) ||
        pairs != maximum_matching(gc).size()) {
      fail("blossom matching is not maximum");
    }
  }
  return kt;
}

double probe_event_overhead_ns(const Workload& w, std::uint64_t depth,
                               std::uint64_t seed) {
  Simulation::Config cfg;
  cfg.params = w.params;
  cfg.kind = w.network;
  cfg.seed = seed;
  const Time spread = w.network == NetworkKind::synchronous
                          ? cfg.delta
                          : cfg.delta * cfg.async_spread;
  Simulation sim(cfg, std::make_shared<Adversary>());
  Rng rng(Rng::split(seed, 9));
  depth = std::max<std::uint64_t>(depth, 1);
  for (std::uint64_t i = 0; i < depth; ++i) {
    sim.schedule(1 + static_cast<Time>(rng.next_below(
                         static_cast<std::uint64_t>(spread))),
                 [] {});
  }
  const auto t0 = Clock::now();
  std::uint64_t drained = 0;
  while (sim.run_one()) ++drained;
  return 1e9 * seconds(Clock::now() - t0) /
         static_cast<double>(std::max<std::uint64_t>(drained, 1));
}

}  // namespace perfbench
