// msim_cli: run SPICE-format netlists from the command line.
//
//   msim_cli circuit.sp [--probe node1,node2,...] [--lint-only]
//                       [--lint] [--lint-strict] [--range]
//                       [--lint-disable pass1,pass2,...]
//                       [--no-telemetry] [--tran-stats]
//
// Executes the analysis directives found in the file:
//   .op                          operating point (all node voltages)
//   .dc <vsrc> <start> <stop> <step>
//   .ac dec <pts/dec> <fstart> <fstop>
//   .tran <step> <stop>
//   .noise <out_node> <input_src> dec <pts/dec> <fstart> <fstop>
// Sweep results print as CSV on stdout (columns: sweep variable, then
// the probed nodes; default probes = every named node up to 8).
//
// Every run starts with the static pre-pass (lint + structural MNA
// analysis): warnings (floating nodes, current-source cutsets, dangling
// terminals) go to stderr, errors (duplicate device names,
// voltage-source loops, structural singularity) abort with exit code 3.
// `--lint` prints the machine-readable JSON report to stdout and exits
// (0 clean / 1 warnings / 3 errors); `--lint-only` is the historical
// human-readable equivalent.  `--lint-disable` skips named passes and
// `--lint-strict` treats warnings as fatal.  Solver failures print the
// structured SolveDiag (cause, offending node/device, homotopy stage);
// transients additionally print step-rejection telemetry.
// `--tran-stats` prints the factorization-reuse census plus the
// stamp_ns / factor_ns / solve_ns wall-time breakdown as one JSON line
// (where does solver time go: assembly, factorization, or solves).
// `--budget-ms N` runs every analysis under a shared wall-clock
// RunBudget: on expiry the analysis returns its structured partial
// result (truncated waveform / solved grid prefix) and the CLI reports
// the cut on stderr with exit code 4 instead of hanging.
// `--pss` replaces each .tran with the shooting-Newton periodic
// steady-state solve; the CSV holds exactly one coherent steady period.
// `--mc N` turns each .op into an N-sample Monte-Carlo run (1% gaussian
// resistor spread, statistics over the first probe; deterministic
// stream from `--mc-seed K`).
// `--jobs list.txt` batch mode: runs every deck file named in the list
// (one path per line, '#' comments) through ONE shared solver-cache
// registry -- repeated topologies adopt the first job's sparsity
// pattern / symbolic LU / stamp slots instead of re-deriving them, and
// exact job repeats return memoized results.  Exit code is the worst
// job's; a per-batch summary goes to stderr.
//
// An unknown option, an option missing its value, an --mc outside the
// integers [0, 1e6), an --mc-seed outside [0, 2^53), a non-finite or
// negative --budget-ms, or a second deck path prints the usage and
// exits 2.
//
// The execution core lives in src/serve/deck.cc (serve::run_deck),
// shared verbatim with the msim_serve daemon: a daemon job's bytes are
// this CLI's bytes by construction.
#include <cstdio>
#include <string>
#include <vector>

#include "serve/deck.h"
#include "serve/registry.h"

using namespace msim;

namespace {

// Job list: one deck path per line; blank lines and '#' comments skip.
bool read_job_list(const std::string& path, std::vector<std::string>& out) {
  std::string text;
  if (!serve::read_file(path, text)) return false;
  std::string cur;
  auto flush = [&] {
    while (!cur.empty() && (cur.back() == ' ' || cur.back() == '\t' ||
                            cur.back() == '\r'))
      cur.pop_back();
    std::size_t b = 0;
    while (b < cur.size() && (cur[b] == ' ' || cur[b] == '\t')) ++b;
    if (b < cur.size() && cur[b] != '#') out.push_back(cur.substr(b));
    cur.clear();
  };
  for (char c : text) {
    if (c == '\n')
      flush();
    else
      cur.push_back(c);
  }
  flush();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  serve::CliArgs args;
  if (!serve::parse_cli_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: msim_cli <netlist.sp> [--probe n1,n2,...] "
                 "[--lint] [--lint-only] [--lint-strict] [--range] "
                 "[--lint-disable p1,p2,...] [--no-telemetry] "
                 "[--tran-stats] [--budget-ms N] "
                 "[--pss] [--mc N] [--mc-seed K]\n"
                 "       msim_cli --jobs list.txt [job options]\n");
    return 2;
  }
  const serve::DeckOptions& opt = args.opt;
  const std::string& path = args.path;
  const std::string& jobs_path = args.jobs_path;

  if (!jobs_path.empty()) {
    std::vector<std::string> paths;
    if (!read_job_list(jobs_path, paths)) {
      std::fprintf(stderr, "error: cannot read job list %s\n",
                   jobs_path.c_str());
      return 2;
    }
    serve::CacheRegistry registry;
    std::string out, err;
    const serve::BatchResult b =
        serve::run_batch(paths, opt, registry, out, err);
    std::fwrite(out.data(), 1, out.size(), stdout);
    std::fwrite(err.data(), 1, err.size(), stderr);
    const serve::RegistryStats rs = registry.stats();
    std::fprintf(stderr,
                 "batch: %d jobs, %d warm, %d memoized (%ld cache hits, "
                 "%ld misses, %ld collisions)\n",
                 b.jobs, b.warm_jobs, b.cached_jobs, rs.hits, rs.misses,
                 rs.fingerprint_collisions);
    return b.exit_code;
  }

  std::string deck;
  if (!serve::read_file(path, deck)) {
    // Matches the historical parse_netlist_file failure line.
    std::fprintf(stderr, "error: cannot open netlist file: %s\n",
                 path.c_str());
    return 1;
  }
  const serve::DeckResult r = serve::run_deck(deck, opt, nullptr);
  std::fwrite(r.out.data(), 1, r.out.size(), stdout);
  std::fwrite(r.err.data(), 1, r.err.size(), stderr);
  return r.exit_code;
}
