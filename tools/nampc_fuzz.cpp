// nampc_fuzz: adversary-strategy fuzzing driver (src/fuzz).
//
//   nampc_fuzz --primitive P --campaigns N --seed S [--jobs J] [--mutants]
//       runs N seeded campaigns against primitive P ∈
//       {acast,bc,ba,wss,vss,acs,mpc,lb} and prints the deterministic
//       campaign report (byte-identical at any --jobs count). Exit 0 when
//       no campaign failed, 1 when at least one did; --expect-findings
//       inverts that convention (for regression jobs that must rediscover
//       an engineered bug).
//   nampc_fuzz ... --shrink --out DIR
//       additionally shrinks every failing case to a minimal repro and
//       writes one "nampc-fuzz-seed/1" JSON seed file per failure to DIR.
//   nampc_fuzz --replay SEED.json [--shrink]
//       re-executes a seed file and prints the canonical verdict block —
//       byte-identical to the block the original campaign printed.
//   nampc_fuzz ... --metrics DIR
//       additionally writes one "nampc-metrics/1" cost-attribution dump per
//       campaign (FUZZ_<primitive>_c<campaign>.jsonl; stalled campaigns add
//       a "nampc-flight/1" .flight.json) — inspect with tools/nampc_prof.
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "fuzz/fuzz.h"
#include "util/parse.h"
#include "util/sweep.h"

namespace {

using namespace nampc;
using namespace nampc::fuzz;

int usage() {
  std::cerr
      << "usage: nampc_fuzz --primitive {acast,bc,ba,wss,vss,acs,mpc,lb}\n"
      << "                  [--campaigns N] [--seed S] [--jobs J] [--mutants]\n"
      << "                  [--max-events M] [--shrink] [--out DIR]\n"
      << "                  [--expect-findings] [--metrics DIR]\n"
      << "       nampc_fuzz --replay SEED.json [--shrink] [--metrics DIR]\n";
  return 2;
}

bool read_file(const std::string& path, std::string& out, std::string& error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    error = "cannot open " + path;
    return false;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

int replay(const std::string& path, bool shrink,
           const std::string& metrics_dir) {
  std::string text;
  std::string error;
  if (!read_file(path, text, error)) {
    std::cerr << "nampc_fuzz: " << error << '\n';
    return 2;
  }
  FuzzCase fcase;
  if (!read_case_json(text, fcase, error)) {
    std::cerr << "nampc_fuzz: " << path << ": " << error << '\n';
    return 2;
  }
  const FuzzVerdict verdict = run_case(fcase, metrics_dir);
  std::cout << render_verdict(fcase, verdict);
  if (shrink && verdict.failed()) {
    int steps = 0;
    const FuzzCase reduced = shrink_case(fcase, &steps);
    std::cout << "shrink steps=" << steps
              << " actions=" << reduced.strategy.actions.size() << "\n";
    write_case_json(std::cout, reduced);
  }
  return verdict.failed() ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  CampaignOptions options;
  options.jobs = sweep_cli_jobs(argc, argv);
  std::string replay_path;
  std::string out_dir;
  bool shrink = false;
  bool expect_findings = false;
  bool have_primitive = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "nampc_fuzz: " << flag << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    const auto number = [&](const char* flag, auto& out) {
      if (!parse_number(next(flag), out)) {
        std::cerr << "nampc_fuzz: malformed value for " << flag << '\n';
        std::exit(2);
      }
    };
    if (arg == "--primitive") {
      options.primitive = next("--primitive");
      have_primitive = true;
    } else if (arg == "--campaigns") {
      number("--campaigns", options.campaigns);
    } else if (arg == "--seed") {
      number("--seed", options.seed);
    } else if (arg == "--max-events") {
      number("--max-events", options.max_events);
    } else if (arg == "--mutants") {
      options.mutants = true;
    } else if (arg == "--shrink") {
      shrink = true;
    } else if (arg == "--expect-findings") {
      expect_findings = true;
    } else if (arg == "--out") {
      out_dir = next("--out");
    } else if (arg == "--metrics") {
      options.metrics_dir = next("--metrics");
    } else if (arg == "--replay") {
      replay_path = next("--replay");
    } else if (arg == "--jobs" || arg == "-j") {
      (void)next(arg.c_str());  // consumed by sweep_cli_jobs
    } else if (arg.rfind("--jobs=", 0) == 0 || arg.rfind("-j", 0) == 0) {
      // consumed by sweep_cli_jobs
    } else {
      std::cerr << "nampc_fuzz: unknown argument " << arg << '\n';
      return usage();
    }
  }

  if (!replay_path.empty()) {
    return replay(replay_path, shrink, options.metrics_dir);
  }
  if (!have_primitive) return usage();
  bool known = false;
  for (const std::string& p : primitive_targets()) known |= p == options.primitive;
  if (!known) {
    std::cerr << "nampc_fuzz: unknown primitive " << options.primitive << '\n';
    return usage();
  }
  if (options.campaigns < 1) {
    std::cerr << "nampc_fuzz: --campaigns must be positive\n";
    return 2;
  }

  const CampaignReport report = run_campaigns(options);
  std::cout << report.text;

  if (!out_dir.empty()) {
    for (const CampaignResult& r : report.failing) {
      FuzzCase to_write = r.fcase;
      if (shrink) {
        int steps = 0;
        to_write = shrink_case(r.fcase, &steps);
        std::cout << "shrink campaign=" << r.fcase.campaign
                  << " steps=" << steps
                  << " actions=" << to_write.strategy.actions.size() << "\n";
      }
      const std::string path = out_dir + "/" + options.primitive + "-" +
                               std::to_string(r.fcase.campaign) + ".json";
      std::ofstream out(path, std::ios::binary);
      if (!out) {
        std::cerr << "nampc_fuzz: cannot write " << path << '\n';
        return 2;
      }
      write_case_json(out, to_write);
      std::cout << "wrote " << path << "\n";
    }
  } else if (shrink) {
    for (const CampaignResult& r : report.failing) {
      int steps = 0;
      const FuzzCase reduced = shrink_case(r.fcase, &steps);
      std::cout << "shrink campaign=" << r.fcase.campaign << " steps=" << steps
                << " actions=" << reduced.strategy.actions.size() << "\n";
      write_case_json(std::cout, reduced);
    }
  }

  const bool findings = report.failures > 0;
  if (expect_findings) return findings ? 0 : 1;
  return findings ? 1 : 0;
}
