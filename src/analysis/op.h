// DC operating-point solver: damped Newton with gmin-stepping and
// source-stepping homotopies as fallbacks.
#pragma once

#include <string>

#include "analysis/diag.h"
#include "analysis/mna.h"
#include "circuit/netlist.h"
#include "numeric/matrix.h"

namespace msim::an {

struct OpOptions {
  double temp_k = 300.15;
  double vtol = 1e-9;       // absolute unknown tolerance
  double reltol = 1e-6;     // relative unknown tolerance
  int max_iterations = 300;
  double max_step = 0.4;    // max per-unknown Newton update [V or A]
  double gmin = 1e-12;      // final junction gmin
  double gshunt = 1e-12;
  num::RealVector initial_guess;  // optional (size 0 -> zeros)
  // Pre-solve static pass (an::preflight): lint plus structural-rank
  // analysis.  Errors (duplicate device names, ideal-voltage-source
  // loops, structural singularity, stamp-contract breaches) fail fast
  // with kBadTopology before any matrix is assembled or factored.
  // lint_strict escalates warnings (floating nodes, current-source
  // cutsets, dangling terminals) to kBadTopology as well.
  bool lint = true;
  bool lint_strict = false;
  // Optional run budget / cancel hook, polled once per Newton iteration
  // (all homotopy stages).  On expiry the solve stops with a
  // kBudgetExceeded / kCancelled diag instead of running the remaining
  // iterations or homotopy stages; the budget is shared (not owned) and
  // may be polled concurrently by other analyses.  Null = unlimited.
  core::RunBudget* budget = nullptr;
};

struct OpResult {
  num::RealVector x;
  bool converged = false;
  int iterations = 0;
  std::string method;  // "newton" | "gmin" | "source"
  SolveDiag diag;      // structured failure diagnosis (ok() on success)
  // Factorization telemetry over the whole solve (all homotopy stages).
  FactorStats solver_stats;

  // Voltage of a named node; quiet NaN when the name does not exist.
  double v(const ckt::Netlist& nl, std::string_view node) const;
  double v(ckt::NodeId n) const { return n == 0 ? 0.0 : x[n - 1]; }
};

// Solves the DC operating point and, on success, calls save_op() on all
// devices so that AC / noise analyses can follow immediately.  Never
// throws on solver failure: inspect result.diag for the cause.
OpResult solve_op(ckt::Netlist& nl, const OpOptions& opt = {});

}  // namespace msim::an
