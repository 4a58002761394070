// bench_shape_diff — CI gate for the committed BENCH_*.json trajectory.
//
// Compares two "nampc-bench/2" files by SHAPE, not by cell values: schema
// string, report name, note keys, monitor keys, section count, per-section
// titles, table headers and row counts must match; the cells themselves (which would
// carry timings if a regenerator ever grew wall-clock columns) are ignored.
// The bench-smoke CI job regenerates every table and runs this against the
// committed copy — a schema/shape drift fails the build, a timing change
// does not.
//
// Usage: bench_shape_diff COMMITTED.json REGENERATED.json
// Exit 0: same shape. Exit 1: drift (differences on stdout). Exit 2: bad
// invocation or unparseable input.
//
// Usage: bench_shape_diff --schema FILE.json
// Single-file validation. Sniffs the committed format from the first line:
//  * "nampc-bench/2" (one JSON document): must carry a name, the monitors
//    section (events/violations keys) and at least one section with headers
//    and rows. Used by the scaling-smoke CI job to hold BENCH_scaling.json
//    to the schema without needing a second file to diff against.
//  * "nampc-metrics/1" (JSONL, obs/metrics.h): every line must parse; the
//    header line must carry config/status/end_vt/sample_dvt/instances; each
//    body line needs a known "row" discriminator with that row's required
//    keys; exactly one "total" row, and it must be the last line. Used by
//    the metrics-smoke CI job to hold the committed PROF_*.jsonl dumps to
//    the schema.
//
// JSON comes from util/json_read.h (header-only), so the tool links no
// library.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "util/json_read.h"

namespace {

using nampc::JsonValue;

/// The shape of one report: everything bench-smoke locks down.
struct Shape {
  std::string schema;
  std::string name;
  std::vector<std::string> note_keys;
  std::vector<std::string> monitor_keys;  // "nampc-bench/2" monitors section
  struct Section {
    std::string title;
    std::vector<std::string> headers;
    std::size_t row_count = 0;
  };
  std::vector<Section> sections;
};

bool extract(const JsonValue& root, Shape& shape, std::string& error) {
  if (!root.is_object()) {
    error = "top-level value is not an object";
    return false;
  }
  const JsonValue* schema = root.find("schema");
  const JsonValue* name = root.find("name");
  if (!schema || !name) {
    error = "missing schema/name";
    return false;
  }
  shape.schema = schema->text;
  shape.name = name->text;
  if (const JsonValue* notes = root.find("notes")) {
    for (const auto& [k, v] : notes->members) {
      (void)v;
      shape.note_keys.push_back(k);
    }
  }
  if (const JsonValue* monitors = root.find("monitors")) {
    for (const auto& [k, v] : monitors->members) {
      (void)v;
      shape.monitor_keys.push_back(k);
    }
  }
  const JsonValue* sections = root.find("sections");
  if (!sections || !sections->is_array()) {
    error = "missing sections array";
    return false;
  }
  for (const JsonValue& s : sections->items) {
    Shape::Section sec;
    const JsonValue* title = s.find("title");
    const JsonValue* table = s.find("table");
    if (!title || !table) {
      error = "section missing title/table";
      return false;
    }
    sec.title = title->text;
    const JsonValue* headers = table->find("headers");
    const JsonValue* rows = table->find("rows");
    if (!headers || !rows) {
      error = "table missing headers/rows";
      return false;
    }
    for (const JsonValue& h : headers->items) sec.headers.push_back(h.text);
    sec.row_count = rows->items.size();
    shape.sections.push_back(std::move(sec));
  }
  return true;
}

bool load_shape(const std::string& path, Shape& shape) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "bench_shape_diff: cannot open " << path << "\n";
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  JsonValue root;
  std::string error;
  if (!nampc::json_parse(buf.str(), root, error)) {
    std::cerr << "bench_shape_diff: " << path << ": parse error: " << error
              << "\n";
    return false;
  }
  if (!extract(root, shape, error)) {
    std::cerr << "bench_shape_diff: " << path << ": " << error << "\n";
    return false;
  }
  return true;
}

std::string join(const std::vector<std::string>& v) {
  std::string out;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) out += " | ";
    out += v[i];
  }
  return out;
}

/// --schema mode, "nampc-metrics/1" branch: JSONL from obs/metrics.h.
/// `text` is the full file contents (already read for format sniffing).
int validate_metrics(const std::string& path, const std::string& text) {
  int problems = 0;
  auto problem = [&problems, &path](std::size_t line, const std::string& what) {
    ++problems;
    std::cout << "SCHEMA " << path << ":" << line + 1 << ": " << what << "\n";
  };
  // Required keys per "row" discriminator (the header line has no "row").
  const std::map<std::string, std::vector<std::string>> kRowKeys = {
      {"sample", {"vt", "events", "timers", "messages", "words", "kinds"}},
      {"dropped_samples", {"count"}},
      {"party", {"id", "events", "messages", "words"}},
      {"unattributed", {"events", "messages", "words"}},
      {"instance", {"id", "key", "kind", "events", "messages", "words"}},
      {"kind", {"kind", "tagged_copies", "events", "messages", "words"}},
      {"hist", {"name", "buckets"}},
      {"total", {"events", "timers", "messages", "words", "pool_hits",
                 "pool_misses", "samples"}},
  };
  std::istringstream lines(text);
  std::string line;
  std::size_t lineno = 0;
  std::size_t totals = 0;
  bool last_was_total = false;
  for (; std::getline(lines, line); ++lineno) {
    if (line.empty()) continue;
    JsonValue row;
    std::string error;
    if (!nampc::json_parse(line, row, error)) {
      problem(lineno, "parse error: " + error);
      continue;
    }
    if (!row.is_object()) {
      problem(lineno, "line is not a JSON object");
      continue;
    }
    last_was_total = false;
    if (lineno == 0) {
      for (const char* key :
           {"config", "status", "end_vt", "sample_dvt", "instances"}) {
        if (!row.find(key)) problem(lineno, std::string("header missing ") + key);
      }
      if (const JsonValue* config = row.find("config")) {
        for (const char* key :
             {"n", "ts", "ta", "network", "delta", "seed", "max_events"}) {
          if (!config->find(key)) {
            problem(lineno, std::string("header config missing ") + key);
          }
        }
      }
      continue;
    }
    const JsonValue* discr = row.find("row");
    if (!discr) {
      problem(lineno, "body line missing \"row\" discriminator");
      continue;
    }
    const auto it = kRowKeys.find(discr->text);
    if (it == kRowKeys.end()) {
      problem(lineno, "unknown row kind '" + discr->text + "'");
      continue;
    }
    for (const std::string& key : it->second) {
      if (!row.find(key)) {
        problem(lineno, discr->text + " row missing " + key);
      }
    }
    if (discr->text == "total") {
      ++totals;
      last_was_total = true;
    }
  }
  if (lineno == 0) problem(0, "empty file");
  if (totals != 1) {
    problem(lineno, "want exactly one total row, got " + std::to_string(totals));
  } else if (!last_was_total) {
    problem(lineno, "total row is not the last line");
  }
  if (problems == 0) {
    std::cout << "schema ok: nampc-metrics/1 (" << lineno << " rows)\n";
    return 0;
  }
  std::cout << problems << " schema problem(s) in " << path << "\n";
  return 1;
}

/// --schema mode: one file, validated against the "nampc-bench/2" contract.
int validate_schema(const std::string& path) {
  // Sniff the format: metrics dumps are JSONL whose first line declares
  // "nampc-metrics/1"; everything else goes through the bench-report path.
  {
    std::ifstream in(path);
    if (!in) {
      std::cerr << "bench_shape_diff: cannot open " << path << "\n";
      return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();
    std::string first = text.substr(0, text.find('\n'));
    JsonValue head;
    std::string error;
    if (nampc::json_parse(std::move(first), head, error) &&
        head.is_object()) {
      const JsonValue* schema = head.find("schema");
      if (schema && schema->text == "nampc-metrics/1") {
        return validate_metrics(path, text);
      }
    }
  }
  Shape s;
  if (!load_shape(path, s)) return 2;
  int problems = 0;
  auto problem = [&problems, &path](const std::string& what) {
    ++problems;
    std::cout << "SCHEMA " << path << ": " << what << "\n";
  };
  if (s.schema != "nampc-bench/2") {
    problem("schema is '" + s.schema + "', want 'nampc-bench/2'");
  }
  if (s.name.empty()) problem("empty report name");
  if (s.monitor_keys != std::vector<std::string>{"events", "violations"}) {
    problem("monitors section must carry events + violations (got: " +
            join(s.monitor_keys) + ")");
  }
  if (s.sections.empty()) problem("no sections");
  for (std::size_t i = 0; i < s.sections.size(); ++i) {
    const auto& sec = s.sections[i];
    const std::string where = "section " + std::to_string(i);
    if (sec.title.empty()) problem(where + ": empty title");
    if (sec.headers.empty()) problem(where + ": no headers");
    if (sec.row_count == 0) problem(where + ": no rows");
  }
  if (problems == 0) {
    std::cout << "schema ok: " << s.name << " (" << s.sections.size()
              << " sections)\n";
    return 0;
  }
  std::cout << problems << " schema problem(s) in " << path << "\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 3 && std::string(argv[1]) == "--schema") {
    return validate_schema(argv[2]);
  }
  if (argc != 3) {
    std::cerr << "usage: bench_shape_diff COMMITTED.json REGENERATED.json\n"
                 "       bench_shape_diff --schema FILE.json\n";
    return 2;
  }
  Shape a, b;
  if (!load_shape(argv[1], a) || !load_shape(argv[2], b)) return 2;

  int drifts = 0;
  auto drift = [&drifts](const std::string& what, const std::string& committed,
                         const std::string& regenerated) {
    ++drifts;
    std::cout << "DRIFT " << what << "\n  committed:   " << committed
              << "\n  regenerated: " << regenerated << "\n";
  };

  if (a.schema != b.schema) drift("schema", a.schema, b.schema);
  if (a.name != b.name) drift("name", a.name, b.name);
  if (a.note_keys != b.note_keys) {
    drift("note keys", join(a.note_keys), join(b.note_keys));
  }
  if (a.monitor_keys != b.monitor_keys) {
    drift("monitor keys", join(a.monitor_keys), join(b.monitor_keys));
  }
  if (a.sections.size() != b.sections.size()) {
    drift("section count", std::to_string(a.sections.size()),
          std::to_string(b.sections.size()));
  }
  const std::size_t n = std::min(a.sections.size(), b.sections.size());
  for (std::size_t i = 0; i < n; ++i) {
    const auto& sa = a.sections[i];
    const auto& sb = b.sections[i];
    const std::string where = "section " + std::to_string(i);
    if (sa.title != sb.title) drift(where + " title", sa.title, sb.title);
    if (sa.headers != sb.headers) {
      drift(where + " headers", join(sa.headers), join(sb.headers));
    }
    if (sa.row_count != sb.row_count) {
      drift(where + " row count", std::to_string(sa.row_count),
            std::to_string(sb.row_count));
    }
  }
  if (drifts == 0) {
    std::cout << "shape ok: " << a.name << " (" << a.sections.size()
              << " sections)\n";
    return 0;
  }
  std::cout << drifts << " shape drift(s) in " << a.name << "\n";
  return 1;
}
