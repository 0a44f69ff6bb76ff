// The traced run's span recorder, kept in the benchmark: it replays a
// job's calls into the layers' public functions in serve::run_deck's
// order, timing each call from outside and reading the counters the
// calls already return.  The program itself is not instrumented.
#pragma once

#include <string>

#include "decks.h"
#include "serve/deck.h"
#include "serve/json.h"
#include "serve/registry.h"

namespace perfbench {

// Sums over replayed jobs.  Times in ms, counts as counts.
struct LayerTotals {
  long jobs = 0;
  double parent_ms = 0.0;  // run_deck wall of the same jobs (the parent)
  // Top-level spans; they do not overlap, so their sum is the part of
  // the parent the trace explains.
  double parse_ms = 0.0;    // spice::parse_netlist + assign_unknowns
  double adopt_ms = 0.0;    // CacheRegistry::adopt_into
  double lint_ms = 0.0;     // ckt::lint
  double op_ms = 0.0;       // an::solve_op, once per directive needing it
  double ac_ms = 0.0;       // an::run_ac_diag
  double noise_ms = 0.0;    // an::run_noise_diag
  double pss_ms = 0.0;      // an::run_pss_shooting
  double mc_ms = 0.0;       // Monte-Carlo .op (sample parses + solves)
  double publish_ms = 0.0;  // CacheRegistry::publish_from
  // Counters the replayed calls return.
  long op_solves = 0;
  long op_newton_iters = 0;
  long ac_points = 0;
  long noise_points = 0;
  long mc_jobs = 0;
  long pss_jobs = 0;
  double pss_periods = 0.0;
  long pss_shooting_iters = 0;
  long phi_solves = 0;
  long tran_newton_iters = 0;
  long tran_accepted_steps = 0;
  long tran_rejected_steps = 0;
  double stamp_ms = 0.0;  // FactorStats / TranTelemetry breakdown
  double factor_ms = 0.0;
  double solve_ms = 0.0;
  long factor_count = 0;
  long reuse_count = 0;

  double spans_ms() const {
    return parse_ms + adopt_ms + lint_ms + op_ms + ac_ms + noise_ms +
           pss_ms + mc_ms + publish_ms;
  }
};

// Replays `job` against `reg` (the replay's own registry, fed the same
// deck sequence as the parent's, so it is warm exactly when the parent
// was) and adds its spans and counters to `t`.  False when a replayed
// call failed.
bool replay_deck(const Job& job, msim::serve::CacheRegistry& reg,
                 LayerTotals& t);

// msim_serve submit over the daemon socket, like serve::submit_and_wait,
// that also times the submit ack.  Returns false on a transport error.
bool submit_timed(const std::string& socket_path,
                  const msim::serve::Json& submit,
                  msim::serve::DeckResult& r, double& ack_ms,
                  std::string* err);

}  // namespace perfbench
