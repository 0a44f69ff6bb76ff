#include "analysis/op.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "analysis/mna.h"
#include "analysis/structural.h"

namespace msim::an {
namespace {

// Why one damped-Newton attempt stopped, with enough context to build a
// SolveDiag: the failing unknown index and the final worst update.
struct NewtonOutcome {
  bool ok = false;
  SolveStatus fail = SolveStatus::kNonConvergence;
  int bad_unknown = -1;   // zero-pivot column / worst-|dx| / first NaN
  double max_dx = 0.0;    // final worst unclamped update magnitude
};

// Buffers shared by every Newton attempt of one solve_op call: the
// matrix + factorization workspace (whose sparse symbolic analysis is
// computed once and replayed by all later factorizations) and the
// solution buffer.  Hoisting them out of newton_solve removes every
// per-iteration allocation from the hot path.
struct NewtonWorkspace {
  RealSystem sys;
  num::RealVector x_new;
};

// One damped-Newton solve at fixed homotopy parameters.  Reuses `x` as
// the starting point and leaves the final iterate in it.
bool newton_solve(const ckt::Netlist& nl, const AssembleParams& p,
                  const OpOptions& opt, NewtonWorkspace& ws,
                  num::RealVector& x, int& iters, NewtonOutcome& out) {
  out = NewtonOutcome{};
  for (int it = 0; it < opt.max_iterations; ++it) {
    if (opt.budget) {
      opt.budget->note_newton_iteration();
      const core::StopReason stop = opt.budget->stop_reason();
      if (stop != core::StopReason::kNone) {
        out.fail = stop == core::StopReason::kCancelled
                       ? SolveStatus::kCancelled
                       : SolveStatus::kBudgetExceeded;
        return false;
      }
    }
    ++iters;
    ws.sys.assemble(nl, x, p);
    if (!ws.sys.factor()) {
      out.fail = SolveStatus::kSingularMatrix;
      out.bad_unknown = ws.sys.singular_col();
      return false;
    }
    ws.sys.solve(ws.x_new);
    const num::RealVector& x_new = ws.x_new;

    // Damping: clamp each unknown's update to max_step individually.
    // Per-component clamping (rather than a global scale) keeps
    // independent subcircuits decoupled: a block taking large steps does
    // not stall another block that is already converging.
    bool converged = true;
    out.max_dx = 0.0;
    out.bad_unknown = -1;
    for (std::size_t i = 0; i < x.size(); ++i) {
      if (!std::isfinite(x_new[i])) {
        out.fail = SolveStatus::kNonFinite;
        out.bad_unknown = static_cast<int>(i);
        return false;
      }
      double dx = x_new[i] - x[i];
      if (std::abs(dx) > opt.vtol + opt.reltol * std::abs(x_new[i]))
        converged = false;
      if (std::abs(dx) > out.max_dx) {
        out.max_dx = std::abs(dx);
        out.bad_unknown = static_cast<int>(i);
      }
      if (dx > opt.max_step) dx = opt.max_step;
      if (dx < -opt.max_step) dx = -opt.max_step;
      x[i] += dx;
    }
    if (converged) {
      out.ok = true;
      return true;
    }
  }
  out.fail = SolveStatus::kNonConvergence;
  return false;
}

// One damped-Newton solve; retries internally with progressively tighter
// damping (max_step / 3, / 10) because high-loop-gain circuits can limit-
// cycle under loose damping yet converge quickly under tight damping.
bool newton_solve_damped(const ckt::Netlist& nl, const AssembleParams& p,
                         const OpOptions& opt, NewtonWorkspace& ws,
                         num::RealVector& x, int& iters,
                         NewtonOutcome& out) {
  const num::RealVector x0 = x;
  for (double factor : {1.0, 3.0, 10.0}) {
    OpOptions o = opt;
    o.max_step = opt.max_step / factor;
    o.initial_guess.clear();
    if (newton_solve(nl, p, o, ws, x, iters, out)) return true;
    // A budget stop is not a convergence problem: retrying with tighter
    // damping would only burn more of an already-exhausted budget.
    if (is_budget_stop(out.fail)) return false;
    x = x0;  // restart each attempt from the same point
  }
  return false;
}

void finalize(ckt::Netlist& nl, const OpOptions& opt, OpResult& r) {
  if (!r.converged) return;
  for (const auto& d : nl.devices()) d->save_op(r.x, opt.temp_k);
}

// Fills r.diag from the outcome of the homotopy stage that failed last.
void fill_failure_diag(const ckt::Netlist& nl, const NewtonOutcome& out,
                       const std::string& stage, OpResult& r) {
  r.diag.status = out.fail;
  r.diag.stage = stage;
  r.diag.iterations = r.iterations;
  r.diag.residual = out.max_dx;
  if (out.bad_unknown >= 0) {
    r.diag.unknown = unknown_label(nl, out.bad_unknown);
    r.diag.device = device_touching_unknown(nl, out.bad_unknown);
  }
  if (is_budget_stop(out.fail))
    r.diag.detail = "run budget exhausted mid-homotopy; partial iterate "
                    "discarded (DC has no checkpoint to keep)";
}

}  // namespace

double OpResult::v(const ckt::Netlist& nl, std::string_view node) const {
  const ckt::NodeId id = nl.find_node(node);
  if (id == ckt::kInvalidNode ||
      static_cast<std::size_t>(id) > x.size())
    return std::numeric_limits<double>::quiet_NaN();
  return v(id);
}

OpResult solve_op(ckt::Netlist& nl, const OpOptions& opt) {
  OpResult r;

  // Mandatory static pre-pass: lint + structural-rank analysis catch
  // the topologies that would otherwise surface as unexplained singular
  // matrices or garbage solutions, before any factorization runs.
  // Clean verdicts are cached on the netlist (see an::preflight), so
  // repeated solves and Monte-Carlo samples pay one hash, not one pass.
  if (opt.lint) {
    PreflightOptions pre;
    pre.strict = opt.lint_strict;
    SolveDiag diag = preflight(nl, pre);
    if (!diag.ok()) {
      r.diag = std::move(diag);
      return r;
    }
  }

  nl.assign_unknowns();
  for (const auto& d : nl.devices()) d->set_temperature(opt.temp_k);

  r.x.assign(static_cast<std::size_t>(nl.unknown_count()), 0.0);
  if (!opt.initial_guess.empty() &&
      opt.initial_guess.size() == r.x.size()) {
    r.x = opt.initial_guess;
  }

  AssembleParams p;
  p.mode = ckt::AnalysisMode::kDcOp;
  p.temp_k = opt.temp_k;
  p.gshunt = opt.gshunt;

  NewtonOutcome out;
  NewtonWorkspace ws;
  ws.sys.init(nl);
  // Copies the workspace's factorization telemetry into the result on
  // every exit path below.
  auto finish = [&]() -> OpResult& {
    r.solver_stats = ws.sys.stats();
    return r;
  };

  // 1. Plain Newton at final gmin.
  p.gmin = opt.gmin;
  num::RealVector x = r.x;
  if (newton_solve_damped(nl, p, opt, ws, x, r.iterations, out)) {
    r.x = std::move(x);
    r.converged = true;
    r.method = "newton";
    finalize(nl, opt, r);
    return finish();
  }
  // A structurally singular matrix will not be cured by homotopy: the
  // zero pivot is topological, so diagnose it immediately.  A budget
  // stop likewise: the homotopy ladder would only spend budget that is
  // already gone.
  if (out.fail == SolveStatus::kSingularMatrix ||
      is_budget_stop(out.fail)) {
    fill_failure_diag(nl, out, "newton", r);
    return finish();
  }

  // Shared helper: relax gmin from `g0` down to the target in half-decade
  // steps, continuing from the current iterate.
  auto gmin_ladder = [&](num::RealVector& xx, double g0) {
    for (double gmin = g0; gmin >= opt.gmin * 0.99;
         gmin *= 0.31622776601683794) {
      p.gmin = std::max(gmin, opt.gmin);
      if (!newton_solve_damped(nl, p, opt, ws, xx, r.iterations, out))
        return false;
    }
    p.gmin = opt.gmin;
    return newton_solve_damped(nl, p, opt, ws, xx, r.iterations, out);
  };

  // 2. gmin stepping: converge with a large junction shunt, then relax.
  x = r.x;
  p.source_scale = 1.0;
  if (gmin_ladder(x, 1e-1)) {
    r.x = std::move(x);
    r.converged = true;
    r.method = "gmin";
    finalize(nl, opt, r);
    return finish();
  }
  NewtonOutcome gmin_out = out;
  if (is_budget_stop(out.fail)) {
    fill_failure_diag(nl, out, "gmin", r);
    return finish();
  }

  // 3. Source stepping at elevated gmin, then a gmin ladder at full
  // sources.
  x.assign(x.size(), 0.0);
  p.gmin = 1e-6;
  bool ok = true;
  for (int i = 1; i <= 20; ++i) {
    p.source_scale = i / 20.0;
    if (!newton_solve_damped(nl, p, opt, ws, x, r.iterations, out)) {
      ok = false;
      break;
    }
  }
  if (ok) {
    p.source_scale = 1.0;
    if (gmin_ladder(x, 1e-6)) {
      r.x = std::move(x);
      r.converged = true;
      r.method = "source";
      finalize(nl, opt, r);
      return finish();
    }
  }

  // All homotopies exhausted.  Prefer the diagnosis from the final
  // source-stepping stage; fall back to the gmin-ladder outcome when
  // source stepping never produced one.
  fill_failure_diag(nl, out.bad_unknown >= 0 ? out : gmin_out,
                    ok ? "source+gmin" : "source", r);
  return finish();
}

}  // namespace msim::an
