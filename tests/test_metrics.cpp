// Cost-attribution profiler tests (obs/metrics.h): attribution sums match
// run totals exactly, the legacy Metrics struct is a view over the same
// accounting path, "nampc-metrics/1" dumps are byte-identical across sweep
// --jobs counts, series samples agree at shared Δvt boundaries, the flight
// recorder captures engineered event-limit trips, named instruments, and a
// (loose) wall-clock bound on the optional sampler/ring machinery.
#include <gtest/gtest.h>

#include <chrono>
#include <sstream>
#include <string>
#include <vector>

#include "acs/acs.h"
#include "obs/metrics.h"
#include "sharing/wss.h"
#include "sim_helpers.h"
#include "util/sweep.h"

namespace nampc {
namespace {

using obs::InstanceCost;
using obs::MetricsRegistry;
using obs::MetricsSample;
using testing::p7_2_1;
using testing::SimSpec;

struct WssRun {
  std::unique_ptr<Simulation> sim;
  RunStatus status = RunStatus::quiescent;
};

/// Runs an honest-dealer WSS to completion (or to `max_events`) with the
/// metrics sampler at `dvt` (0 = sampler off).
WssRun run_wss(ProtocolParams p, NetworkKind kind, std::uint64_t seed,
               Time dvt, std::uint64_t max_events = 0,
               std::size_t ring = 256) {
  Simulation::Config cfg;
  cfg.params = p;
  cfg.kind = kind;
  cfg.seed = seed;
  if (max_events > 0) cfg.max_events = max_events;

  WssRun r;
  r.sim = std::make_unique<Simulation>(cfg, std::make_shared<Adversary>());
  if (dvt > 0) r.sim->metrics_registry().set_sample_interval(dvt);
  r.sim->metrics_registry().set_flight_ring(ring);

  std::vector<Wss*> inst;
  for (int i = 0; i < p.n; ++i) {
    inst.push_back(&r.sim->party(i).spawn<Wss>("wss", 0, 0, WssOptions{},
                                               nullptr));
  }
  Rng rng(seed ^ 0xfeed);
  inst[0]->start({Polynomial::random_with_constant(Fp(4242), p.ts, rng)});
  r.status = r.sim->run();
  return r;
}

InstanceCost sum_rows(const std::vector<InstanceCost>& rows) {
  InstanceCost s;
  for (const InstanceCost& c : rows) {
    s.events += c.events;
    s.timers += c.timers;
    s.messages += c.messages;
    s.words += c.words;
    s.pool_hits += c.pool_hits;
    s.pool_misses += c.pool_misses;
  }
  return s;
}

std::string metrics_jsonl(const Simulation& sim) {
  std::ostringstream os;
  obs::write_metrics_jsonl(os, sim);
  return os.str();
}

// Every event, message, word and pool action lands in exactly one instance
// cell (or the unattributed cell) and exactly one kind cell — the sums
// reproduce the run totals with no remainder, and the closing series
// sample equals the totals too.
TEST(MetricsRegistry, AttributionSumsToRunTotals) {
  for (NetworkKind kind :
       {NetworkKind::synchronous, NetworkKind::asynchronous}) {
    const WssRun r = run_wss(p7_2_1(), kind, 11, /*dvt=*/10);
    ASSERT_EQ(r.status, RunStatus::quiescent);
    const MetricsRegistry& reg = r.sim->metrics_registry();
    const Metrics& m = r.sim->metrics();
    ASSERT_GT(m.events_processed, 0u);
    ASSERT_GT(m.messages_sent, 0u);

    for (const std::vector<InstanceCost>* rows :
         {&reg.instance_rows(), &reg.kind_rows()}) {
      const InstanceCost s = sum_rows(*rows);
      EXPECT_EQ(s.events, m.events_processed);
      EXPECT_EQ(s.timers, reg.timers_total());
      EXPECT_EQ(s.messages, m.messages_sent);
      EXPECT_EQ(s.words, m.words_sent);
      EXPECT_EQ(s.pool_hits, m.payload_pool_hits);
      EXPECT_EQ(s.pool_misses, m.payload_pool_misses);
    }

    // Every send has a concrete sender, so the party dimension covers
    // messages/words exactly; timers scheduled outside any party keep the
    // party event coverage at <=.
    std::uint64_t p_events = 0, p_messages = 0, p_words = 0;
    for (const obs::PartyCost& p : reg.party_rows()) {
      p_events += p.events;
      p_messages += p.messages;
      p_words += p.words;
    }
    EXPECT_LE(p_events, m.events_processed);
    EXPECT_EQ(p_messages, m.messages_sent);
    EXPECT_EQ(p_words, m.words_sent);

    ASSERT_FALSE(reg.samples().empty());
    const MetricsSample& last = reg.samples().back();
    EXPECT_EQ(last.events, m.events_processed);
    EXPECT_EQ(last.messages, m.messages_sent);
    EXPECT_EQ(last.words, m.words_sent);
    EXPECT_GE(last.vt, r.sim->now());
  }
}

// The Metrics struct is a compatibility view over the registry's
// accounting path — same object — and the per-kind instance counts live in
// the registry alone: one "wss" tag per spawned party copy.
TEST(MetricsRegistry, CompatViewIsTheSameAccountingPath) {
  const WssRun r = run_wss(p7_2_1(), NetworkKind::synchronous, 3, 0);
  ASSERT_EQ(r.status, RunStatus::quiescent);
  const MetricsRegistry& reg = r.sim->metrics_registry();
  EXPECT_EQ(&reg.totals(), &r.sim->metrics());

  const std::vector<std::string>& kinds = reg.kind_names();
  std::uint64_t wss_tags = 0;
  for (std::size_t k = 0; k < kinds.size(); ++k) {
    if (kinds[k] == "wss") wss_tags = reg.kind_tags()[k];
  }
  EXPECT_EQ(wss_tags, static_cast<std::uint64_t>(p7_2_1().n));
}

// The committed-dump determinism contract: the JSONL bytes depend only on
// the run, never on how many sweep workers produced sibling cells.
TEST(MetricsRegistry, JsonlByteIdenticalAcrossSweepJobs) {
  const auto produce = [](std::size_t i) {
    const NetworkKind kind =
        i % 2 == 0 ? NetworkKind::synchronous : NetworkKind::asynchronous;
    const WssRun r = run_wss(p7_2_1(), kind, 100 + i, /*dvt=*/10);
    return metrics_jsonl(*r.sim);
  };
  const std::vector<std::string> serial = sweep_run(1, 4, produce);
  const std::vector<std::string> parallel = sweep_run(4, 4, produce);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << "cell " << i;
    EXPECT_FALSE(serial[i].empty());
  }
  // And a straight re-run of the same config is byte-identical as well.
  const WssRun a = run_wss(p7_2_1(), NetworkKind::asynchronous, 5, 10);
  const WssRun b = run_wss(p7_2_1(), NetworkKind::asynchronous, 5, 10);
  EXPECT_EQ(metrics_jsonl(*a.sim), metrics_jsonl(*b.sim));
}

// A sample at virtual time b captures the cumulative totals of everything
// dispatched strictly before b — so coarse and fine sampling schedules
// must agree wherever their boundaries coincide.
TEST(MetricsRegistry, SamplesAgreeAtSharedBoundariesAcrossIntervals) {
  const WssRun fine = run_wss(p7_2_1(), NetworkKind::synchronous, 9, 10);
  const WssRun coarse = run_wss(p7_2_1(), NetworkKind::synchronous, 9, 20);
  ASSERT_EQ(fine.status, RunStatus::quiescent);
  std::size_t matched = 0;
  for (const MetricsSample& c : coarse.sim->metrics_registry().samples()) {
    for (const MetricsSample& f : fine.sim->metrics_registry().samples()) {
      if (f.vt != c.vt) continue;
      ++matched;
      EXPECT_EQ(f.events, c.events) << "vt " << c.vt;
      EXPECT_EQ(f.timers, c.timers) << "vt " << c.vt;
      EXPECT_EQ(f.messages, c.messages) << "vt " << c.vt;
      EXPECT_EQ(f.words, c.words) << "vt " << c.vt;
    }
  }
  EXPECT_GT(matched, 1u);
}

// An engineered valve trip (tiny max_events) must leave a usable flight
// record: top instances sorted by cost, a coherent queue composition, and
// the ring of final dispatches in time order.
TEST(MetricsRegistry, FlightRecorderCapturesEngineeredValveTrip) {
  const WssRun r =
      run_wss(p7_2_1(), NetworkKind::synchronous, 17, /*dvt=*/10,
              /*max_events=*/200);
  ASSERT_EQ(r.status, RunStatus::event_limit);
  const MetricsRegistry& reg = r.sim->metrics_registry();
  ASSERT_TRUE(reg.flight().has_value());
  const obs::FlightRecord& rec = *reg.flight();
  EXPECT_EQ(rec.max_events, 200u);
  EXPECT_EQ(r.sim->metrics().events_processed, 200u);

  ASSERT_FALSE(rec.top.empty());
  std::uint64_t top_events = 0;
  for (std::size_t i = 0; i + 1 < rec.top.size(); ++i) {
    EXPECT_GE(rec.top[i].cost.events, rec.top[i + 1].cost.events);
  }
  for (const obs::FlightRecord::Top& t : rec.top) {
    top_events += t.cost.events;
    EXPECT_FALSE(t.key.empty());
  }
  EXPECT_LE(top_events, r.sim->metrics().events_processed);

  // A 200-event WSS run stops mid-protocol: work must still be pending,
  // and the klass breakdown must account for the whole queue.
  EXPECT_GT(rec.queue_depth, 0u);
  std::uint64_t by_klass = 0;
  for (const auto& [klass, count] : rec.queue_by_klass) by_klass += count;
  EXPECT_EQ(by_klass, rec.queue_depth);
  EXPECT_GE(rec.queue_horizon, rec.tripped_at);
  // Layout-free identities: the depth histogram takes one bump per push and
  // every dispatch pops one event; with real primitives every klass-0 event
  // is a delivery, so the by-kind rows cover exactly klass 0.
  std::uint64_t pushes = 0;
  for (const std::uint64_t c : reg.queue_depth_hist()) pushes += c;
  EXPECT_EQ(rec.queue_depth, pushes - r.sim->metrics().events_processed);
  std::uint64_t by_kind = 0;
  for (const auto& [kind, count] : rec.queue_by_kind) by_kind += count;
  const auto klass0 = rec.queue_by_klass.find(0);
  ASSERT_NE(klass0, rec.queue_by_klass.end());
  EXPECT_EQ(by_kind, klass0->second);

  ASSERT_FALSE(rec.ring.empty());
  EXPECT_LE(rec.ring.size(), 256u);
  for (std::size_t i = 0; i + 1 < rec.ring.size(); ++i) {
    EXPECT_LE(rec.ring[i].vt, rec.ring[i + 1].vt);
  }
  EXPECT_EQ(rec.ring.back().vt, rec.tripped_at);

  std::ostringstream flight_json;
  EXPECT_TRUE(obs::write_flight_record(flight_json, *r.sim));
  EXPECT_NE(flight_json.str().find("\"schema\":\"nampc-flight/1\""),
            std::string::npos);
  std::ostringstream summary;
  obs::render_flight_summary(summary, rec);
  EXPECT_FALSE(summary.str().empty());

  // No trip, no record.
  const WssRun clean = run_wss(p7_2_1(), NetworkKind::synchronous, 17, 0);
  std::ostringstream none;
  EXPECT_FALSE(obs::write_flight_record(none, *clean.sim));
  EXPECT_TRUE(none.str().empty());
}

// Ideal Π_ABA outputs are klass-0 *timers* (broadcast/aba.cpp), so with
// ideal primitives klass 0 mixes deliveries and timers. An async ACS trip
// taken while such outputs are pending must still tell them apart: the
// by-kind rows count pending deliveries only.
TEST(MetricsRegistry, FlightRecordTellsTimersFromDeliveries) {
  Simulation::Config cfg;
  cfg.params = p7_2_1();
  cfg.kind = NetworkKind::asynchronous;
  cfg.seed = 29;
  cfg.ideal_primitives = true;
  cfg.max_events = 2000;
  Simulation sim(cfg, std::make_shared<Adversary>());
  std::vector<Acs*> inst;
  for (int i = 0; i < cfg.params.n; ++i) {
    inst.push_back(&sim.party(i).spawn<Acs>("acs", 0, nullptr));
  }
  for (Acs* acs : inst) {
    for (int j = 0; j < cfg.params.n; ++j) acs->mark(j);
  }
  ASSERT_EQ(sim.run(), RunStatus::event_limit);
  const MetricsRegistry& reg = sim.metrics_registry();
  ASSERT_TRUE(reg.flight().has_value());
  const obs::FlightRecord& rec = *reg.flight();

  std::uint64_t by_klass = 0;
  for (const auto& [klass, count] : rec.queue_by_klass) by_klass += count;
  EXPECT_EQ(by_klass, rec.queue_depth);
  std::uint64_t by_kind = 0;
  for (const auto& [kind, count] : rec.queue_by_kind) by_kind += count;
  const auto klass0 = rec.queue_by_klass.find(0);
  ASSERT_NE(klass0, rec.queue_by_klass.end());
  // Ideal ABA outputs are pending in klass 0 next to deliveries ...
  EXPECT_GT(by_kind, 0u);
  EXPECT_LT(by_kind, klass0->second);
  // ... and the by-kind rows hold exactly the deliveries still pending:
  // every message sent (none dropped) minus every delivery dispatched.
  const InstanceCost total = sum_rows(reg.instance_rows());
  EXPECT_EQ(by_kind, total.messages - (total.events - total.timers));
}

// The emitted JSONL keeps to the committed "nampc-metrics/1" shape: header
// first, one total row last, every line a single JSON object.
TEST(MetricsRegistry, JsonlSchemaShape) {
  const WssRun r = run_wss(p7_2_1(), NetworkKind::asynchronous, 23, 10);
  const std::string dump = metrics_jsonl(*r.sim);
  std::istringstream lines(dump);
  std::string line;
  std::vector<std::string> all;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    all.push_back(line);
  }
  ASSERT_GT(all.size(), 3u);
  EXPECT_NE(all.front().find("\"schema\":\"nampc-metrics/1\""),
            std::string::npos);
  EXPECT_NE(all.front().find("\"sample_dvt\":10"), std::string::npos);
  EXPECT_NE(all.back().find("\"row\":\"total\""), std::string::npos);
  for (std::size_t i = 1; i + 1 < all.size(); ++i) {
    EXPECT_NE(all[i].find("\"row\":\""), std::string::npos) << "line " << i;
  }
  // The per-kind attribution row for the protocol under test carries its
  // paper complexity term (docs/PAPER_MAP.md "Measured-cost fields").
  EXPECT_NE(dump.find("\"row\":\"kind\",\"kind\":\"wss\""), std::string::npos);
  EXPECT_NE(dump.find("\"paper_source\":\"Theorem 6.3 (Pi_WSS)\""),
            std::string::npos);
}

// bit_width bucketing behind the built-in queue-depth and payload-size
// histograms: bucket 0 is v == 0, bucket i covers [2^(i-1), 2^i).
TEST(MetricsRegistry, HistogramBucketsFollowBitWidth) {
  EXPECT_EQ(MetricsRegistry::bucket_of(0), 0u);
  EXPECT_EQ(MetricsRegistry::bucket_of(1), 1u);
  EXPECT_EQ(MetricsRegistry::bucket_of(2), 2u);
  EXPECT_EQ(MetricsRegistry::bucket_of(3), 2u);
  EXPECT_EQ(MetricsRegistry::bucket_of(4), 3u);
  EXPECT_EQ(MetricsRegistry::bucket_of(1024), 11u);
}

// Satellite 3 overhead check: the always-on hooks are array increments,
// and the optional series sampler + flight ring must not change protocol
// behaviour at all — and must stay within a loose wall-clock envelope on
// a WSS n=24 run (the tight ≤ a-few-% measurement lives in EXPERIMENTS.md;
// a unit test under CI load can only hold a generous bound without flaking).
TEST(MetricsRegistry, SamplerAndRingOverheadBounded) {
  const ProtocolParams p{24, 7, 3};
  const auto wall = [&p](Time dvt, std::size_t ring) {
    const auto t0 = std::chrono::steady_clock::now();
    const WssRun r = run_wss(p, NetworkKind::synchronous, 31, dvt, 0, ring);
    EXPECT_EQ(r.status, RunStatus::quiescent);
    EXPECT_GT(r.sim->metrics().events_processed, 0u);
    return std::make_pair(std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count(),
                          r.sim->metrics().events_processed);
  };
  const auto [base_s, base_events] = wall(/*dvt=*/0, /*ring=*/0);
  const auto [instr_s, instr_events] = wall(/*dvt=*/10, /*ring=*/256);
  EXPECT_EQ(base_events, instr_events);  // observation never perturbs the run
  EXPECT_LT(instr_s, base_s * 3.0 + 0.25);
}

}  // namespace
}  // namespace nampc
