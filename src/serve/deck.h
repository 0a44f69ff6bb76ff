// One netlist job, start to finish: parse, pre-pass, run every
// analysis directive, capture stdout/stderr byte streams.
//
// This is msim_cli's historical run() loop hoisted into the serve
// library so the one-shot CLI, the --jobs batch mode and the msim_serve
// daemon execute the exact same code path: a daemon job's captured
// output is byte-identical to the equivalent CLI invocation by
// construction, not by parallel maintenance of two printf sequences.
//
// With a CacheRegistry attached, the job adopts the registry's shared
// solver structure for its topology before the first solve (warm jobs
// pay zero symbolic analysis and zero pattern searches) and publishes
// its own structure back on the way out.  Deterministic jobs (no
// wall-clock budget) additionally go through the registry's whole-
// result memo: an exact repeat returns the stored bytes verbatim.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/budget.h"
#include "serve/registry.h"

namespace msim::serve {

// Most points (or time steps) one .dc/.ac/.noise/.tran directive may
// request, and most Monte-Carlo samples one job may ask for; every deck
// shipped with the project stays orders of magnitude below it.  A
// degenerate request would otherwise pin a worker or exhaust memory
// beyond the reach of cancel/budget checks.
constexpr double kMaxDirectivePoints = 1e6;

// Largest integer below which every double is an exact integer; an
// mc_seed must stay under it to survive a JSON number round trip.
constexpr double kMaxExactSeed = 9007199254740992.0;  // 2^53

// True when `v` is a finite, non-negative integer below `cap`.  Counts
// and seeds from outside the program (daemon requests, msim_cli
// arguments) pass this before any integer conversion.
bool count_in_range(double v, double cap);

// Mirrors msim_cli's command-line options (minus the input path; the
// deck travels as text).
struct DeckOptions {
  std::string probe_arg;
  bool lint_only = false;   // human-readable lint report, then stop
  bool lint_json = false;   // JSON lint report, then stop
  bool lint_strict = false;
  bool range_json = false;  // value-range JSON report, then stop
  bool telemetry = true;
  bool tran_stats = false;
  double budget_ms = 0.0;   // wall-clock budget (0 = unlimited)
  bool pss = false;         // .tran -> shooting periodic steady state
  // Monte-Carlo job mode: > 1 turns every .op directive into an
  // N-sample MC over the deck (each sample re-parses the deck and
  // applies a 1% gaussian spread to every resistor; sample RNG streams
  // derive from mc_seed, so the statistics are deterministic and
  // thread-count independent -- an::monte_carlo_shared underneath).
  int mc = 0;
  std::uint64_t mc_seed = 1;
  std::vector<std::string> lint_disable;
  // External budget for cooperative cancellation (the daemon arms one
  // per job so a `cancel` request can stop it mid-analysis).  When set
  // it REPLACES budget_ms; the caller owns it.
  core::RunBudget* budget = nullptr;
  // Whole-result memoization opt-out (per job; only meaningful with a
  // registry).  Budgeted or truncated jobs are never memoized.
  bool use_result_cache = true;
};

struct DeckResult {
  int exit_code = 0;
  std::string out;  // byte-exact stdout of the equivalent msim_cli run
  std::string err;  // byte-exact stderr ditto
  bool warm = false;           // adopted registry structure for its topology
  bool result_cached = false;  // whole-result memo hit (no solve ran)
};

// Runs every directive of `deck_text` and captures the output streams.
// Never throws: parse/setup errors land in the result as the CLI's
// "error: ..." line with exit code 1.
DeckResult run_deck(const std::string& deck_text, const DeckOptions& opt,
                    CacheRegistry* registry = nullptr);

// The option fields that select a job's output, flattened into a stable
// string; deck text + this signature key the whole-result memo.
// Exposed for tests.
std::string options_signature(const DeckOptions& opt);

// msim_cli --jobs: runs every deck file listed in `paths` through one
// shared registry.  Per job, `header` then the job's stdout go to
// `out`; the job's stderr goes to `err`.  Returns the maximum job exit
// code (2 for an unreadable file).
struct BatchResult {
  int exit_code = 0;
  int jobs = 0;
  int warm_jobs = 0;
  int cached_jobs = 0;
};
BatchResult run_batch(const std::vector<std::string>& paths,
                      const DeckOptions& opt, CacheRegistry& registry,
                      std::string& out, std::string& err);

// Reads a whole file; false when unreadable.
bool read_file(const std::string& path, std::string& out);

// msim_cli's command line: the job options plus either one deck path or
// a --jobs list.
struct CliArgs {
  DeckOptions opt;
  std::string path;
  std::string jobs_path;
};

// Parses argv[1..argc).  False on an unknown option, an option missing
// its value, an --mc / --mc-seed outside count_in_range (caps
// kMaxDirectivePoints / kMaxExactSeed), a non-finite or negative
// --budget-ms, a second deck path, or neither a deck nor a job list;
// msim_cli then prints its usage and exits 2 rather than reading a
// stray argument as the deck.
bool parse_cli_args(int argc, const char* const* argv, CliArgs& out);

}  // namespace msim::serve
