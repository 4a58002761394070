#include "obs/metrics.h"

#include <algorithm>
#include <array>

#include "net/simulation.h"
#include "util/json.h"

namespace nampc::obs {

namespace {

/// Top-k size for the flight record: enough to see the dominating
/// instances of a 200M-event trip without dumping thousands of rows.
constexpr std::size_t kFlightTopK = 16;

/// The paper's per-primitive cost terms, keyed by span kind. These strings
/// are surfaced in run reports ("measured_cost") and nampc_prof summaries;
/// docs/PAPER_MAP.md lists the same rows with source anchors.
struct PaperCostRow {
  const char* kind;
  PaperCostTerm term;
};
constexpr std::array<PaperCostRow, 14> kPaperCost{{
    {"acast", {"O(n^2) messages, O(n^2*|M|) words per instance", "S4.1 (Bracha A-Cast)"}},
    {"sba", {"2(ts+1) rounds of O(n^2) messages (phase-king)", "S4.2 (Pi_SBA)"}},
    {"bc", {"T_BC = 3*Delta + T_SBA; A-Cast + SBA volume", "Protocol 4.5 (Pi_BC)"}},
    {"aba", {"O(n^2) messages per Bracha round, O(1) expected rounds", "S4.4 (Pi_ABA)"}},
    {"ba", {"T_BA = T_BC + T_ABA; BC volume + one ABA", "Protocol 4.7 (Pi_BA)"}},
    {"acs", {"n parallel Pi_BA instances: O(n^3) messages", "Theorem 4.10 (Pi_ACS)"}},
    {"wss", {"O(n^2) field elements point-to-point + n A-Casts per iteration, (ts-ta+1) iterations", "Theorem 6.3 (Pi_WSS)"}},
    {"vss", {"(ts+1) iterations each carrying one conditioned WSS", "Theorem 7.3 (Pi_VSS)"}},
    {"vts", {"T_VTS = T_VSS + 3*T_BC + 2*Delta", "Theorem 8.2 (Pi_VTS)"}},
    {"triple_ext", {"O(n^2) sharings per extracted triple batch", "S9 (triple extraction)"}},
    {"beaver", {"2 reconstructions per multiplication gate", "S10 (Beaver)"}},
    {"priv_rec", {"O(n) words per secret (online error correction)", "S3 (private reconstruction)"}},
    {"pub_rec", {"O(n^2) words per secret", "S3 (public reconstruction)"}},
    {"mpc", {"per-gate Beaver triples + output public reconstruction", "S10 (Pi_MPC)"}},
}};

void write_cost_fields(JsonWriter& w, const InstanceCost& c) {
  w.kv("events", c.events);
  w.kv("timers", c.timers);
  w.kv("messages", c.messages);
  w.kv("words", c.words);
  w.kv("pool_hits", c.pool_hits);
  w.kv("pool_misses", c.pool_misses);
}

[[nodiscard]] bool all_zero(const InstanceCost& c) {
  return c.events == 0 && c.timers == 0 && c.messages == 0 && c.words == 0 &&
         c.pool_hits == 0 && c.pool_misses == 0;
}

/// Histogram buckets with trailing zeros trimmed (kHistBuckets is mostly
/// empty for realistic value ranges).
void write_buckets(JsonWriter& w, const std::vector<std::uint64_t>& buckets) {
  std::size_t last = buckets.size();
  while (last > 0 && buckets[last - 1] == 0) --last;
  w.begin_array();
  for (std::size_t i = 0; i < last; ++i) w.value(buckets[i]);
  w.end_array();
}

const char* network_name(NetworkKind kind) {
  return kind == NetworkKind::synchronous ? "synchronous" : "asynchronous";
}

}  // namespace

std::size_t MetricsRegistry::kind_id(std::string_view kind) {
  const auto it = kind_ids_.find(kind);
  if (it != kind_ids_.end()) return it->second;
  const std::size_t id = kind_names_.size();
  kind_names_.emplace_back(kind);
  kind_rows_.emplace_back();
  kind_tags_.push_back(0);
  kind_ids_.emplace(std::string(kind), id);
  return id;
}

void MetricsRegistry::sample_up_to(Time t) {
  while (next_sample_ <= t) {
    if (samples_.size() >= kMaxSamples) {
      // Series full: account for every skipped boundary arithmetically so a
      // kFarFuture-sized jump cannot spin this loop.
      const auto skipped = static_cast<std::uint64_t>(
          (t - next_sample_) / sample_dvt_ + 1);
      dropped_samples_ += skipped;
      next_sample_ += static_cast<Time>(skipped) * sample_dvt_;
      return;
    }
    MetricsSample s;
    s.vt = next_sample_;
    s.events = compat_->events_processed;
    s.timers = timers_total_;
    s.messages = compat_->messages_sent;
    s.words = compat_->words_sent;
    s.kinds = kind_rows_;
    samples_.push_back(std::move(s));
    next_sample_ += sample_dvt_;
  }
}

void MetricsRegistry::finish(Time now) {
  if (sample_dvt_ <= 0) return;
  sample_up_to(now);
  // One closing sample on the first boundary past `now`: the series always
  // ends at the run totals even when the run ends mid-interval.
  const Time closing = next_sample_;
  sample_up_to(closing);
}

std::vector<RingEvent> MetricsRegistry::ring_in_order() const {
  std::vector<RingEvent> out;
  out.reserve(ring_fill_);
  if (ring_fill_ < ring_.size()) {
    out.assign(ring_.begin(),
               ring_.begin() + static_cast<std::ptrdiff_t>(ring_fill_));
    return out;
  }
  out.insert(out.end(),
             ring_.begin() + static_cast<std::ptrdiff_t>(ring_next_),
             ring_.end());
  out.insert(out.end(), ring_.begin(),
             ring_.begin() + static_cast<std::ptrdiff_t>(ring_next_));
  return out;
}

void MetricsRegistry::record_valve_trip(
    Time now, std::uint64_t max_events, const QueueStats& queue,
    const std::function<const std::string&(std::uint32_t)>& key_of) {
  FlightRecord rec;
  rec.tripped_at = now;
  rec.max_events = max_events;

  // Top instances by event count (ties broken by id for determinism).
  std::vector<std::uint32_t> ids;
  for (std::size_t idx = 1; idx < instance_rows_.size(); ++idx) {
    if (instance_rows_[idx].events > 0) {
      ids.push_back(static_cast<std::uint32_t>(idx - 1));
    }
  }
  std::sort(ids.begin(), ids.end(),
            [this](std::uint32_t a, std::uint32_t b) {
              const std::uint64_t ea = instance_rows_[a + 1].events;
              const std::uint64_t eb = instance_rows_[b + 1].events;
              if (ea != eb) return ea > eb;
              return a < b;
            });
  if (ids.size() > kFlightTopK) ids.resize(kFlightTopK);
  for (const std::uint32_t id : ids) {
    FlightRecord::Top top;
    top.id = id;
    top.key = key_of(id);
    top.kind = kind_names_[kind_index(id)];
    top.cost = instance_rows_[id + 1];
    rec.top.push_back(std::move(top));
  }

  rec.queue_depth = queue.depth;
  rec.queue_by_klass = queue.by_klass;
  rec.queue_horizon = queue.horizon;
  std::map<std::string, std::uint64_t> by_kind;
  for (const auto& [instance, count] : queue.deliveries_by_instance) {
    by_kind[kind_names_[kind_index(instance)]] += count;
  }
  rec.queue_by_kind.assign(by_kind.begin(), by_kind.end());
  rec.ring = ring_in_order();
  flight_ = std::move(rec);
}

const PaperCostTerm* paper_cost_term(std::string_view kind) {
  for (const PaperCostRow& row : kPaperCost) {
    if (kind == row.kind) return &row.term;
  }
  return nullptr;
}

void write_metrics_jsonl(std::ostream& os, const Simulation& sim) {
  const MetricsRegistry& reg = sim.metrics_registry();
  const Metrics& totals = reg.totals();
  const Simulation::Config& cfg = sim.config();
  const std::vector<std::string>& kinds = reg.kind_names();

  {
    JsonWriter w(os);
    w.begin_object();
    w.kv("schema", "nampc-metrics/1");
    w.key("config").begin_object();
    w.kv("n", cfg.params.n);
    w.kv("ts", cfg.params.ts);
    w.kv("ta", cfg.params.ta);
    w.kv("network", network_name(cfg.kind));
    w.kv("delta", static_cast<std::int64_t>(cfg.delta));
    w.kv("seed", cfg.seed);
    w.kv("max_events", cfg.max_events);
    w.end_object();
    w.kv("status", to_string(sim.last_status()));
    w.kv("end_vt", static_cast<std::int64_t>(sim.now()));
    w.kv("sample_dvt", static_cast<std::int64_t>(reg.sample_interval()));
    w.kv("instances", static_cast<std::uint64_t>(sim.instance_count()));
    w.end_object();
  }
  os << '\n';

  for (const MetricsSample& s : reg.samples()) {
    JsonWriter w(os);
    w.begin_object();
    w.kv("row", "sample");
    w.kv("vt", static_cast<std::int64_t>(s.vt));
    w.kv("events", s.events);
    w.kv("timers", s.timers);
    w.kv("messages", s.messages);
    w.kv("words", s.words);
    w.key("kinds").begin_object();
    for (std::size_t k = 1; k < s.kinds.size(); ++k) {
      if (all_zero(s.kinds[k])) continue;
      w.key(kinds[k]).begin_object();
      write_cost_fields(w, s.kinds[k]);
      w.end_object();
    }
    w.end_object();
    w.end_object();
    os << '\n';
  }
  if (reg.dropped_samples() > 0) {
    JsonWriter w(os);
    w.begin_object();
    w.kv("row", "dropped_samples");
    w.kv("count", reg.dropped_samples());
    w.end_object();
    os << '\n';
  }

  for (std::size_t p = 0; p < reg.party_rows().size(); ++p) {
    const PartyCost& c = reg.party_rows()[p];
    JsonWriter w(os);
    w.begin_object();
    w.kv("row", "party");
    w.kv("id", static_cast<std::uint64_t>(p));
    w.kv("events", c.events);
    w.kv("messages", c.messages);
    w.kv("words", c.words);
    w.end_object();
    os << '\n';
  }

  {
    // The unattributed cell: driver-scheduled timers and ideal-gadget
    // plumbing that belongs to no protocol instance (kNoInstance).
    const InstanceCost& c = reg.instance_rows().empty()
                                ? InstanceCost{}
                                : reg.instance_rows().front();
    JsonWriter w(os);
    w.begin_object();
    w.kv("row", "unattributed");
    write_cost_fields(w, c);
    w.end_object();
    os << '\n';
  }

  for (std::size_t idx = 1; idx < reg.instance_rows().size(); ++idx) {
    const InstanceCost& c = reg.instance_rows()[idx];
    if (all_zero(c)) continue;
    const auto id = static_cast<std::uint32_t>(idx - 1);
    JsonWriter w(os);
    w.begin_object();
    w.kv("row", "instance");
    w.kv("id", static_cast<std::uint64_t>(id));
    w.kv("key", sim.instance_name(id));
    w.kv("kind", kinds[reg.kind_index(id)]);
    write_cost_fields(w, c);
    w.end_object();
    os << '\n';
  }

  for (std::size_t k = 0; k < reg.kind_rows().size(); ++k) {
    const InstanceCost& c = reg.kind_rows()[k];
    if (all_zero(c) && reg.kind_tags()[k] == 0) continue;
    JsonWriter w(os);
    w.begin_object();
    w.kv("row", "kind");
    w.kv("kind", kinds[k]);
    w.kv("tagged_copies", reg.kind_tags()[k]);
    write_cost_fields(w, c);
    const PaperCostTerm* term = paper_cost_term(kinds[k]);
    if (term != nullptr) {
      w.kv("paper_term", term->term);
      w.kv("paper_source", term->source);
    }
    w.end_object();
    os << '\n';
  }

  {
    JsonWriter w(os);
    w.begin_object();
    w.kv("row", "hist");
    w.kv("name", "payload_words");
    w.key("buckets");
    write_buckets(w, reg.payload_words_hist());
    w.end_object();
    os << '\n';
  }
  {
    JsonWriter w(os);
    w.begin_object();
    w.kv("row", "hist");
    w.kv("name", "queue_depth");
    w.key("buckets");
    write_buckets(w, reg.queue_depth_hist());
    w.end_object();
    os << '\n';
  }

  {
    JsonWriter w(os);
    w.begin_object();
    w.kv("row", "total");
    w.kv("events", totals.events_processed);
    w.kv("timers", reg.timers_total());
    w.kv("messages", totals.messages_sent);
    w.kv("words", totals.words_sent);
    w.kv("pool_hits", totals.payload_pool_hits);
    w.kv("pool_misses", totals.payload_pool_misses);
    w.kv("peak_queue_depth", totals.peak_queue_depth);
    w.kv("samples", static_cast<std::uint64_t>(reg.samples().size()));
    w.kv("dropped_samples", reg.dropped_samples());
    w.kv("flight_recorded", reg.flight().has_value());
    w.end_object();
    os << '\n';
  }
}

bool write_flight_record(std::ostream& os, const Simulation& sim) {
  const MetricsRegistry& reg = sim.metrics_registry();
  if (!reg.flight().has_value()) return false;
  const FlightRecord& rec = *reg.flight();
  const Simulation::Config& cfg = sim.config();

  JsonWriter w(os);
  w.begin_object();
  w.kv("schema", "nampc-flight/1");
  w.key("config").begin_object();
  w.kv("n", cfg.params.n);
  w.kv("ts", cfg.params.ts);
  w.kv("ta", cfg.params.ta);
  w.kv("network", network_name(cfg.kind));
  w.kv("delta", static_cast<std::int64_t>(cfg.delta));
  w.kv("seed", cfg.seed);
  w.end_object();
  w.kv("tripped_at", static_cast<std::int64_t>(rec.tripped_at));
  w.kv("max_events", rec.max_events);
  w.key("top").begin_array();
  for (const FlightRecord::Top& top : rec.top) {
    w.begin_object();
    w.kv("id", static_cast<std::uint64_t>(top.id));
    w.kv("key", top.key);
    w.kv("kind", top.kind);
    write_cost_fields(w, top.cost);
    w.end_object();
  }
  w.end_array();
  w.key("queue").begin_object();
  w.kv("depth", rec.queue_depth);
  w.key("by_klass").begin_object();
  for (const auto& [klass, count] : rec.queue_by_klass) {
    w.kv(std::to_string(klass), count);
  }
  w.end_object();
  w.key("by_kind").begin_object();
  for (const auto& [kind, count] : rec.queue_by_kind) {
    w.kv(kind, count);
  }
  w.end_object();
  w.kv("horizon", static_cast<std::int64_t>(rec.queue_horizon));
  w.end_object();
  w.key("ring").begin_array();
  for (const RingEvent& ev : rec.ring) {
    w.begin_object();
    w.kv("vt", static_cast<std::int64_t>(ev.vt));
    w.kv("instance", ev.instance == kNoInstance
                         ? static_cast<std::int64_t>(-1)
                         : static_cast<std::int64_t>(ev.instance));
    w.kv("party", static_cast<std::int64_t>(ev.party));
    w.kv("delivery", ev.delivery);
    w.kv("tag", static_cast<std::int64_t>(ev.tag));
    w.kv("words", static_cast<std::uint64_t>(ev.words));
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << '\n';
  return true;
}

void render_flight_summary(std::ostream& os, const FlightRecord& record) {
  os << "flight recorder: top instances by events at trip (t="
     << record.tripped_at << ")\n";
  for (const FlightRecord::Top& top : record.top) {
    os << "  " << (top.kind.empty() ? "(untagged)" : top.kind.c_str())
       << " id=" << top.id << " events=" << top.cost.events
       << " msgs=" << top.cost.messages << " words=" << top.cost.words
       << "  " << top.key << "\n";
  }
  os << "  pending queue: depth=" << record.queue_depth;
  for (const auto& [klass, count] : record.queue_by_klass) {
    os << " klass" << klass << "=" << count;
  }
  os << " horizon=" << record.queue_horizon << "\n";
  if (!record.queue_by_kind.empty()) {
    os << "  pending deliveries by kind:";
    for (const auto& [kind, count] : record.queue_by_kind) {
      os << ' ' << (kind.empty() ? "(untagged)" : kind.c_str()) << '='
         << count;
    }
    os << "\n";
  }
  os << "  last " << record.ring.size() << " dispatches in the ring ("
     << "see the flight JSON for the full event list)\n";
}

}  // namespace nampc::obs
