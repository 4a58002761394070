// nampc_prof: offline reader for "nampc-metrics/1" JSONL dumps (and
// "nampc-flight/1" flight records) produced by the cost-attribution
// profiler (src/obs/metrics.h).
//
//   nampc_prof FILE                 summary: config, totals, per-kind table
//                                   with paper cost terms, attribution
//                                   exactness check, top instances
//   nampc_prof FILE --top [K]       top K instances by event count
//   nampc_prof FILE --series        the virtual-time sample series
//   nampc_prof FILE --diff OTHER    compare two dumps (e.g. sync vs async,
//                                   or baseline vs optimized): totals,
//                                   per-kind and per-instance deltas
//   nampc_prof FILE --check         exit non-zero unless per-instance
//                                   attribution sums exactly to run totals
//   nampc_prof FLIGHT.json          pretty-print a flight record
//
// Exit codes: 0 ok, 1 check failed, 2 usage / I/O / parse error.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "util/json_read.h"
#include "util/parse.h"

namespace {

using nampc::JsonValue;

std::uint64_t gu(const JsonValue& v, const char* key) {
  const JsonValue* p = v.find(key);
  return p != nullptr ? p->u64() : 0;
}

std::int64_t gi(const JsonValue& v, const char* key) {
  const JsonValue* p = v.find(key);
  return p != nullptr ? p->i64() : 0;
}

std::string gs(const JsonValue& v, const char* key) {
  const JsonValue* p = v.find(key);
  return p != nullptr ? p->text : std::string();
}

const char* show_kind(const std::string& kind) {
  return kind.empty() ? "(untagged)" : kind.c_str();
}

struct Dump {
  JsonValue header;
  std::vector<JsonValue> samples;
  JsonValue unattributed;
  std::vector<JsonValue> instances;
  std::vector<JsonValue> kinds;
  JsonValue total;
  std::uint64_t dropped_samples = 0;
  bool have_total = false;
};

/// Outcome of loading a file: a metrics dump, a flight record, or an error.
enum class FileKind { metrics, flight, error };

FileKind load_file(const std::string& path, Dump& dump, JsonValue& flight,
                   std::string& err) {
  std::ifstream in(path);
  if (!in) {
    err = "cannot open " + path;
    return FileKind::error;
  }
  std::string line;
  std::size_t lineno = 0;
  bool first = true;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    JsonValue v;
    std::string perr;
    if (!nampc::json_parse(line, v, perr)) {
      err = path + ":" + std::to_string(lineno) + ": " + perr;
      return FileKind::error;
    }
    if (first) {
      first = false;
      const std::string schema = gs(v, "schema");
      if (schema == "nampc-flight/1") {
        flight = std::move(v);
        return FileKind::flight;
      }
      if (schema != "nampc-metrics/1") {
        err = path + ": unexpected schema '" + schema + "'";
        return FileKind::error;
      }
      dump.header = std::move(v);
      continue;
    }
    const std::string row = gs(v, "row");
    if (row == "sample") {
      dump.samples.push_back(std::move(v));
    } else if (row == "unattributed") {
      dump.unattributed = std::move(v);
    } else if (row == "instance") {
      dump.instances.push_back(std::move(v));
    } else if (row == "kind") {
      dump.kinds.push_back(std::move(v));
    } else if (row == "dropped_samples") {
      dump.dropped_samples = gu(v, "count");
    } else if (row == "total") {
      dump.total = std::move(v);
      dump.have_total = true;
    } else {
      // Party and histogram rows are not read here; unknown row types
      // are forward-compatible. All are skipped.
    }
  }
  if (first) {
    err = path + ": empty file";
    return FileKind::error;
  }
  if (!dump.have_total) {
    err = path + ": missing closing total row";
    return FileKind::error;
  }
  return FileKind::metrics;
}

void print_header(const Dump& d) {
  const JsonValue* cfg = d.header.find("config");
  if (cfg != nullptr) {
    std::printf(
        "nampc-metrics/1  n=%llu ts=%llu ta=%llu network=%s delta=%lld "
        "seed=%llu\n",
        (unsigned long long)gu(*cfg, "n"), (unsigned long long)gu(*cfg, "ts"),
        (unsigned long long)gu(*cfg, "ta"), gs(*cfg, "network").c_str(),
        (long long)gi(*cfg, "delta"), (unsigned long long)gu(*cfg, "seed"));
  }
  std::printf("status=%s end_vt=%lld sample_dvt=%lld instances=%llu\n",
              gs(d.header, "status").c_str(), (long long)gi(d.header, "end_vt"),
              (long long)gi(d.header, "sample_dvt"),
              (unsigned long long)gu(d.header, "instances"));
}

void print_totals(const Dump& d) {
  std::printf(
      "totals: events=%llu (timers=%llu) messages=%llu words=%llu\n"
      "        pool hits=%llu misses=%llu peak_queue=%llu\n",
      (unsigned long long)gu(d.total, "events"),
      (unsigned long long)gu(d.total, "timers"),
      (unsigned long long)gu(d.total, "messages"),
      (unsigned long long)gu(d.total, "words"),
      (unsigned long long)gu(d.total, "pool_hits"),
      (unsigned long long)gu(d.total, "pool_misses"),
      (unsigned long long)gu(d.total, "peak_queue_depth"));
}

/// Verifies per-instance (and per-kind) attribution sums exactly to the run
/// totals; the central invariant of the metrics schema.
bool check_attribution(const Dump& d, bool verbose) {
  static const char* fields[] = {"events",    "timers",     "messages",
                                 "words",     "pool_hits",  "pool_misses"};
  bool ok = true;
  for (const char* f : fields) {
    std::uint64_t inst_sum = gu(d.unattributed, f);
    for (const JsonValue& row : d.instances) inst_sum += gu(row, f);
    std::uint64_t kind_sum = 0;
    for (const JsonValue& row : d.kinds) kind_sum += gu(row, f);
    const std::uint64_t total = gu(d.total, f);
    if (inst_sum != total) {
      std::printf("CHECK FAIL: instance %s sum %llu != total %llu\n", f,
                  (unsigned long long)inst_sum, (unsigned long long)total);
      ok = false;
    }
    if (kind_sum != total) {
      std::printf("CHECK FAIL: kind %s sum %llu != total %llu\n", f,
                  (unsigned long long)kind_sum, (unsigned long long)total);
      ok = false;
    }
  }
  if (!d.samples.empty() && d.dropped_samples == 0) {
    const JsonValue& last = d.samples.back();
    for (const char* f : {"events", "messages", "words"}) {
      if (gu(last, f) != gu(d.total, f)) {
        std::printf("CHECK FAIL: final sample %s %llu != total %llu\n", f,
                    (unsigned long long)gu(last, f),
                    (unsigned long long)gu(d.total, f));
        ok = false;
      }
    }
  }
  if (ok && verbose) {
    std::printf(
        "attribution: per-instance and per-kind sums match run totals "
        "exactly\n");
  }
  return ok;
}

void print_kinds(const Dump& d) {
  std::printf("\n%-12s %8s %12s %12s %12s %14s\n", "kind", "copies", "events",
              "timers", "messages", "words");
  for (const JsonValue& row : d.kinds) {
    std::printf("%-12s %8llu %12llu %12llu %12llu %14llu\n",
                show_kind(gs(row, "kind")),
                (unsigned long long)gu(row, "tagged_copies"),
                (unsigned long long)gu(row, "events"),
                (unsigned long long)gu(row, "timers"),
                (unsigned long long)gu(row, "messages"),
                (unsigned long long)gu(row, "words"));
    const std::string term = gs(row, "paper_term");
    if (!term.empty()) {
      std::printf("             paper: %s  [%s]\n", term.c_str(),
                  gs(row, "paper_source").c_str());
    }
  }
}

void print_top(const Dump& d, std::size_t k) {
  std::vector<const JsonValue*> rows;
  rows.reserve(d.instances.size());
  for (const JsonValue& row : d.instances) rows.push_back(&row);
  std::sort(rows.begin(), rows.end(),
            [](const JsonValue* a, const JsonValue* b) {
              const std::uint64_t ea = gu(*a, "events");
              const std::uint64_t eb = gu(*b, "events");
              if (ea != eb) return ea > eb;
              return gu(*a, "id") < gu(*b, "id");
            });
  if (rows.size() > k) rows.resize(k);
  std::printf("\ntop %zu instances by events:\n", rows.size());
  std::printf("%-10s %12s %12s %14s  %s\n", "kind", "events", "messages",
              "words", "key");
  for (const JsonValue* row : rows) {
    std::printf("%-10s %12llu %12llu %14llu  %s\n",
                show_kind(gs(*row, "kind")),
                (unsigned long long)gu(*row, "events"),
                (unsigned long long)gu(*row, "messages"),
                (unsigned long long)gu(*row, "words"),
                gs(*row, "key").c_str());
  }
}

void print_series(const Dump& d) {
  std::printf("%12s %14s %12s %14s %16s\n", "vt", "events", "d_events",
              "messages", "words");
  std::uint64_t prev_events = 0;
  for (const JsonValue& s : d.samples) {
    const std::uint64_t events = gu(s, "events");
    std::printf("%12lld %14llu %12llu %14llu %16llu\n",
                (long long)gi(s, "vt"), (unsigned long long)events,
                (unsigned long long)(events - prev_events),
                (unsigned long long)gu(s, "messages"),
                (unsigned long long)gu(s, "words"));
    prev_events = events;
  }
  if (d.dropped_samples > 0) {
    std::printf("(+%llu samples dropped beyond the series cap)\n",
                (unsigned long long)d.dropped_samples);
  }
  if (d.samples.empty()) {
    std::printf("(no samples: the run was emitted with sampling off)\n");
  }
}

struct Cost {
  std::uint64_t events = 0, messages = 0, words = 0;
};

std::map<std::string, Cost> by_key(const std::vector<JsonValue>& rows,
                                   const char* key_field) {
  std::map<std::string, Cost> out;
  for (const JsonValue& row : rows) {
    Cost& c = out[gs(row, key_field)];
    c.events += gu(row, "events");
    c.messages += gu(row, "messages");
    c.words += gu(row, "words");
  }
  return out;
}

void diff_line(const char* label, std::uint64_t a, std::uint64_t b) {
  std::printf("%-14s %16llu %16llu %+17lld\n", label, (unsigned long long)a,
              (unsigned long long)b,
              (long long)(static_cast<std::int64_t>(b) -
                          static_cast<std::int64_t>(a)));
}

int cmd_diff(const Dump& a, const Dump& b) {
  std::printf("A: ");
  print_header(a);
  std::printf("B: ");
  print_header(b);

  std::printf("\n%-14s %16s %16s %17s\n", "total", "A", "B", "B-A");
  for (const char* f : {"events", "timers", "messages", "words",
                        "peak_queue_depth"}) {
    diff_line(f, gu(a.total, f), gu(b.total, f));
  }

  const auto ka = by_key(a.kinds, "kind");
  const auto kb = by_key(b.kinds, "kind");
  std::map<std::string, Cost> all_kinds = ka;
  for (const auto& [k, v] : kb) all_kinds.try_emplace(k);
  std::printf("\n%-12s %16s %16s %17s   %16s %16s %17s\n", "kind", "events_A",
              "events_B", "d_events", "words_A", "words_B", "d_words");
  for (const auto& [kind, unused] : all_kinds) {
    (void)unused;
    const auto ia = ka.find(kind);
    const auto ib = kb.find(kind);
    const Cost ca = ia != ka.end() ? ia->second : Cost{};
    const Cost cb = ib != kb.end() ? ib->second : Cost{};
    std::printf("%-12s %16llu %16llu %+17lld   %16llu %16llu %+17lld\n",
                show_kind(kind), (unsigned long long)ca.events,
                (unsigned long long)cb.events,
                (long long)(static_cast<std::int64_t>(cb.events) -
                            static_cast<std::int64_t>(ca.events)),
                (unsigned long long)ca.words, (unsigned long long)cb.words,
                (long long)(static_cast<std::int64_t>(cb.words) -
                            static_cast<std::int64_t>(ca.words)));
  }

  // Per-instance deltas, matched on the schedule-independent key text.
  const auto inst_a = by_key(a.instances, "key");
  const auto inst_b = by_key(b.instances, "key");
  struct Delta {
    std::string key;
    Cost ca, cb;
    std::uint64_t mag = 0;
  };
  std::vector<Delta> deltas;
  std::size_t only_a = 0;
  std::size_t only_b = 0;
  for (const auto& [key, ca] : inst_a) {
    const auto it = inst_b.find(key);
    if (it == inst_b.end()) {
      ++only_a;
      continue;
    }
    Delta d;
    d.key = key;
    d.ca = ca;
    d.cb = it->second;
    d.mag = d.ca.events > d.cb.events ? d.ca.events - d.cb.events
                                      : d.cb.events - d.ca.events;
    deltas.push_back(std::move(d));
  }
  for (const auto& [key, cb] : inst_b) {
    (void)cb;
    if (inst_a.find(key) == inst_a.end()) ++only_b;
  }
  std::sort(deltas.begin(), deltas.end(), [](const Delta& x, const Delta& y) {
    if (x.mag != y.mag) return x.mag > y.mag;
    return x.key < y.key;
  });
  if (deltas.size() > 10) deltas.resize(10);
  std::printf("\ntop instance deltas by |d_events| (%zu matched, %zu only in "
              "A, %zu only in B):\n",
              inst_a.size() - only_a, only_a, only_b);
  for (const Delta& d : deltas) {
    std::printf("  %+12lld events (%llu -> %llu), %+14lld words  %s\n",
                (long long)(static_cast<std::int64_t>(d.cb.events) -
                            static_cast<std::int64_t>(d.ca.events)),
                (unsigned long long)d.ca.events,
                (unsigned long long)d.cb.events,
                (long long)(static_cast<std::int64_t>(d.cb.words) -
                            static_cast<std::int64_t>(d.ca.words)),
                d.key.c_str());
  }

  const bool ok = check_attribution(a, false) && check_attribution(b, false);
  std::printf("\nattribution exactness: %s\n", ok ? "OK (both dumps)" : "FAIL");
  return ok ? 0 : 1;
}

void print_flight(const JsonValue& flight) {
  const JsonValue* cfg = flight.find("config");
  std::printf("nampc-flight/1");
  if (cfg != nullptr) {
    std::printf("  n=%llu ts=%llu ta=%llu network=%s seed=%llu",
                (unsigned long long)gu(*cfg, "n"),
                (unsigned long long)gu(*cfg, "ts"),
                (unsigned long long)gu(*cfg, "ta"),
                gs(*cfg, "network").c_str(),
                (unsigned long long)gu(*cfg, "seed"));
  }
  std::printf("\nevent valve (%llu) tripped at vt=%lld\n",
              (unsigned long long)gu(flight, "max_events"),
              (long long)gi(flight, "tripped_at"));
  if (const JsonValue* top = flight.find("top"); top != nullptr) {
    std::printf("\ntop instances by events at trip:\n");
    std::printf("%-10s %12s %12s %14s  %s\n", "kind", "events", "messages",
                "words", "key");
    for (const JsonValue& row : top->items) {
      std::printf("%-10s %12llu %12llu %14llu  %s\n",
                  show_kind(gs(row, "kind")),
                  (unsigned long long)gu(row, "events"),
                  (unsigned long long)gu(row, "messages"),
                  (unsigned long long)gu(row, "words"),
                  gs(row, "key").c_str());
    }
  }
  if (const JsonValue* queue = flight.find("queue"); queue != nullptr) {
    std::printf("\npending queue: depth=%llu horizon=%lld\n",
                (unsigned long long)gu(*queue, "depth"),
                (long long)gi(*queue, "horizon"));
    if (const JsonValue* by_klass = queue->find("by_klass");
        by_klass != nullptr) {
      std::printf("  by klass:");
      for (const auto& [k, v] : by_klass->members) {
        std::printf(" %s=%llu", k.c_str(), (unsigned long long)v.u64());
      }
      std::printf("\n");
    }
    if (const JsonValue* by_kind = queue->find("by_kind");
        by_kind != nullptr && !by_kind->members.empty()) {
      std::printf("  pending deliveries by kind:");
      for (const auto& [k, v] : by_kind->members) {
        std::printf(" %s=%llu", show_kind(k), (unsigned long long)v.u64());
      }
      std::printf("\n");
    }
  }
  if (const JsonValue* ring = flight.find("ring"); ring != nullptr) {
    constexpr std::size_t kTail = 32;
    const std::size_t start =
        ring->items.size() > kTail ? ring->items.size() - kTail : 0;
    std::printf("\nlast %zu of %zu ring dispatches (vt party kind tag):\n",
                ring->items.size() - start, ring->items.size());
    for (std::size_t i = start; i < ring->items.size(); ++i) {
      const JsonValue& ev = ring->items[i];
      std::printf("  vt=%lld P%lld %s instance=%lld tag=%lld words=%llu\n",
                  (long long)gi(ev, "vt"), (long long)gi(ev, "party"),
                  ev.at("delivery").boolean() ? "deliver" : "timer  ",
                  (long long)gi(ev, "instance"), (long long)gi(ev, "tag"),
                  (unsigned long long)gu(ev, "words"));
    }
  }
}

int usage() {
  std::fprintf(
      stderr,
      "usage: nampc_prof FILE [--top [K] | --series | --diff OTHER | "
      "--check]\n"
      "       FILE is a nampc-metrics/1 JSONL dump or a nampc-flight/1 "
      "record\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string path = argv[1];

  bool top_mode = false;
  std::size_t top_k = 20;
  bool series_mode = false;
  bool check_mode = false;
  std::string diff_other;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--top") {
      top_mode = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') {
        if (!nampc::parse_number(argv[++i], top_k)) return usage();
        if (top_k == 0) top_k = 20;
      }
    } else if (arg == "--series") {
      series_mode = true;
    } else if (arg == "--check") {
      check_mode = true;
    } else if (arg == "--diff") {
      if (i + 1 >= argc) return usage();
      diff_other = argv[++i];
    } else {
      return usage();
    }
  }

  Dump dump;
  JsonValue flight;
  std::string err;
  const FileKind kind = load_file(path, dump, flight, err);
  if (kind == FileKind::error) {
    std::fprintf(stderr, "nampc_prof: %s\n", err.c_str());
    return 2;
  }
  if (kind == FileKind::flight) {
    print_flight(flight);
    return 0;
  }

  if (!diff_other.empty()) {
    Dump other;
    JsonValue other_flight;
    const FileKind ok = load_file(diff_other, other, other_flight, err);
    if (ok != FileKind::metrics) {
      std::fprintf(stderr, "nampc_prof: %s\n",
                   ok == FileKind::flight
                       ? (diff_other + ": --diff needs a metrics dump").c_str()
                       : err.c_str());
      return 2;
    }
    return cmd_diff(dump, other);
  }
  if (check_mode) {
    return check_attribution(dump, true) ? 0 : 1;
  }
  if (series_mode) {
    print_header(dump);
    print_series(dump);
    return 0;
  }
  if (top_mode) {
    print_header(dump);
    print_top(dump, top_k);
    return 0;
  }

  // Default: summary.
  print_header(dump);
  print_totals(dump);
  const bool ok = check_attribution(dump, true);
  print_kinds(dump);
  print_top(dump, 10);
  if (!dump.samples.empty()) {
    std::printf("\nseries: %zu samples every %lld vt (use --series)\n",
                dump.samples.size(), (long long)gi(dump.header, "sample_dvt"));
  }
  return ok ? 0 : 1;
}
