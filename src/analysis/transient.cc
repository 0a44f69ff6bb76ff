#include "analysis/transient.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>

#include "analysis/mna.h"
#include "analysis/op.h"
#include "core/faultpoint.h"
#include "core/parallel.h"

namespace msim::an {
namespace {

// Outcome of one implicit-step Newton solve, with the context needed to
// diagnose a persistent failure.
struct StepOutcome {
  bool ok = false;
  SolveStatus fail = SolveStatus::kNonConvergence;
  int bad_unknown = -1;  // zero-pivot column / worst-|dx| / first NaN
  double max_dx = 0.0;
  int iterations = 0;
};

// Matrix workspace + solution buffer shared by every Newton iteration
// of every time step; the sparse symbolic analysis is computed on the
// first factorization and replayed by all later ones.  have_factor /
// factor_dt persist ACROSS time steps: they describe the numeric
// factorization currently held by `sys`, which modified Newton keeps
// reusing from one step to the next as long as dt is unchanged.
struct StepWorkspace {
  RealSystem sys;
  num::RealVector x_new;
  bool have_factor = false;
  double factor_dt = -1.0;
  // Integrator the held factorization was stamped with: a backward-
  // Euler step among trapezoidal ones (PSS first step) halves every
  // companion conductance, so an integrator switch invalidates the
  // held LU exactly like a dt change.
  bool factor_trap = true;
  // Reuse-profitability controller state (see reuse_veto): running
  // iterations-per-converged-step averages for the two policies and the
  // accepted-step counter that drives the probe schedule.
  long ctrl_step = 0;
  double ema_full = -1.0;
  double ema_stale = -1.0;
};

// A stale preconditioner trades factorizations for extra (linearly
// converging) Newton iterations, and on stamp-dominated circuits an
// iteration costs several times a factorization, so reuse can lose
// outright when the operating point moves fast (class-AB output stages
// under large swing).  The controller measures both policies on the
// live run -- a few full-Newton steps, a few stale steps, then a probe
// pair every kProbePeriod accepted steps -- and vetoes reuse while the
// stale policy costs more than kFactorWorthIters extra iterations per
// step (the measured worth of one saved factorization).  The schedule
// depends only on the accepted-step count, so runs stay deterministic.
constexpr long kProbeWidth = 4;
constexpr long kProbePeriod = 256;
constexpr double kFactorWorthIters = 0.5;

const char* reuse_veto(const StepWorkspace& ws) {
  const long s = ws.ctrl_step;
  if (s < kProbeWidth) return "probe";       // measure full Newton
  if (s < 2 * kProbeWidth) return nullptr;   // measure stale
  const long phase = s % kProbePeriod;
  if (phase == 0) return "probe";            // keep both averages live
  if (phase == 1) return nullptr;
  if (ws.ema_stale > ws.ema_full + kFactorWorthIters)
    return "not_profitable";
  return nullptr;
}

void record_step_cost(StepWorkspace& ws, bool used_stale, int iters) {
  double& ema = used_stale ? ws.ema_stale : ws.ema_full;
  ema = ema < 0.0 ? iters : 0.8 * ema + 0.2 * iters;
  ++ws.ctrl_step;
}

// The fixed-dt loop recomputes each step as `t_target - t`, so the
// nominal dt jitters by an ulp of t from step to step.  Treat those as
// the same step size: for modified Newton the factorization is only a
// preconditioner, so an ulp-stale J changes nothing about correctness.
bool same_dt(double a, double b) {
  return std::abs(a - b) <= 1e-9 * std::abs(b);
}

StepOutcome newton_step(const ckt::Netlist& nl, const AssembleParams& p,
                        const TranOptions& opt, StepWorkspace& ws,
                        num::RealVector& x) {
  StepOutcome out;
  // Dynamic devices carry integration history that changes on every
  // accepted step without showing up in AssembleParams; restamp the
  // linear base image each step.
  ws.sys.invalidate_base();
  // Budget abort inside an iteration leaves `sys` holding whatever the
  // last (possibly interrupted) factor() produced; the held numeric LU
  // must not be presented as reusable to the next step.
  auto budget_stop = [&](core::StopReason stop) {
    ws.have_factor = false;
    out.fail = stop == core::StopReason::kCancelled
                   ? SolveStatus::kCancelled
                   : SolveStatus::kBudgetExceeded;
    return out;
  };
  // Modified Newton: iterate against the factorization left behind by
  // an earlier iteration or time step while it keeps contracting.
  // `fresh_reason` doubles as the force-fresh latch: once set, the rest
  // of this step runs full Newton (every iteration factors), which is
  // exactly the historical worst-case behavior.
  const char* fresh_reason =
      opt.reuse_factorization ? reuse_veto(ws) : "full_newton";
  double prev_dx = std::numeric_limits<double>::infinity();
  int stale_iters = 0;
  for (int it = 0; it < opt.max_newton; ++it) {
    if (opt.budget) {
      opt.budget->note_newton_iteration();
      const core::StopReason stop = opt.budget->stop_reason();
      if (stop != core::StopReason::kNone) return budget_stop(stop);
    }
    ++out.iterations;
    ws.sys.assemble(nl, x, p);
    const bool use_stale = fresh_reason == nullptr && ws.have_factor &&
                           same_dt(p.dt, ws.factor_dt) &&
                           ws.factor_trap == p.use_trapezoidal;
    if (use_stale) {
      // x_new = x + J0^{-1} (rhs - A x): the residual uses the fresh
      // assembly, only the preconditioner J0 is stale.
      ws.sys.solve_modified(x, ws.x_new);
      ++stale_iters;
    } else {
      const char* reason = fresh_reason        ? fresh_reason
                           : !ws.have_factor   ? "initial"
                           : same_dt(p.dt, ws.factor_dt)
                               ? "integrator_change"
                               : "dt_change";
      if (!ws.sys.factor(reason)) {
        ws.have_factor = false;
        out.fail = SolveStatus::kSingularMatrix;
        out.bad_unknown = ws.sys.singular_col();
        return out;
      }
      ws.have_factor = true;
      ws.factor_dt = p.dt;
      ws.factor_trap = p.use_trapezoidal;
      ws.sys.solve(ws.x_new);
    }
    const num::RealVector& x_new = ws.x_new;

    double max_dx = 0.0;
    int worst = -1;
    bool converged = true;
    bool finite = true;
    for (std::size_t i = 0; i < x.size(); ++i) {
      if (!std::isfinite(x_new[i])) {
        finite = false;
        worst = static_cast<int>(i);
        break;
      }
      const double adx = std::abs(x_new[i] - x[i]);
      if (adx > max_dx) {
        max_dx = adx;
        worst = static_cast<int>(i);
      }
      if (adx > opt.vtol + opt.reltol * std::abs(x_new[i]))
        converged = false;
    }
    if (!finite) {
      if (use_stale) {
        // The stale preconditioner may be the culprit: redo this
        // candidate with a fresh factorization before rejecting the
        // step (x is unchanged, so the retry is exact full Newton).
        fresh_reason = "stale_nonfinite";
        continue;
      }
      out.fail = SolveStatus::kNonFinite;
      out.bad_unknown = worst;
      return out;
    }
    out.max_dx = max_dx;
    out.bad_unknown = worst;

    // The unclamped update already satisfies the tolerance: accept it
    // as-is.  (Requiring the step clamp to be inactive here would reject
    // a converged solution reached exactly at the clamp boundary.)
    if (converged) {
      x = x_new;
      out.ok = true;
      if (opt.reuse_factorization)
        record_step_cost(ws, stale_iters > 0, out.iterations);
      return out;
    }

    // Contraction watchdog: a stale solve that fails to halve the
    // update (or has had a generous number of cheap tries) stops paying
    // for itself -- switch to full Newton for the rest of the step.
    if (use_stale &&
        (max_dx > 0.5 * prev_dx + opt.vtol || stale_iters > 8))
      fresh_reason = "slow_convergence";

    prev_dx = max_dx;
    const double scale =
        max_dx > opt.max_step ? opt.max_step / max_dx : 1.0;
    for (std::size_t i = 0; i < x.size(); ++i)
      x[i] += scale * (x_new[i] - x[i]);
  }
  out.fail = SolveStatus::kNonConvergence;
  return out;
}

// One implicit step of a purely linear circuit: the Newton system is
// x-independent, so a single solve is exact.  The factorization is
// reused for the whole run; only dt changes (sub-step halving, a
// shortened final step) force a refactorization, and only the RHS is
// restamped in the steady constant-dt case.
StepOutcome linear_step(const ckt::Netlist& nl, const AssembleParams& p,
                        const TranOptions& opt, StepWorkspace& ws,
                        num::RealVector& x) {
  (void)opt;
  StepOutcome out;
  ++out.iterations;
  if (ws.have_factor && same_dt(p.dt, ws.factor_dt) &&
      ws.factor_trap == p.use_trapezoidal) {
    // Snap to the factored dt so the RHS companion terms stay exactly
    // consistent with the held factorization.
    AssembleParams ps = p;
    ps.dt = ws.factor_dt;
    ws.sys.assemble_rhs_only(nl, x, ps);
    ws.sys.note_reuse();
  } else {
    ws.sys.invalidate_base();
    ws.sys.assemble(nl, x, p);
    if (!ws.sys.factor(!ws.have_factor ? "initial"
                       : same_dt(p.dt, ws.factor_dt)
                           ? "integrator_change"
                           : "dt_change")) {
      ws.have_factor = false;
      out.fail = SolveStatus::kSingularMatrix;
      out.bad_unknown = ws.sys.singular_col();
      return out;
    }
    ws.have_factor = true;
    ws.factor_dt = p.dt;
    ws.factor_trap = p.use_trapezoidal;
  }
  ws.sys.solve(ws.x_new);
  for (std::size_t i = 0; i < ws.x_new.size(); ++i) {
    if (!std::isfinite(ws.x_new[i])) {
      out.fail = SolveStatus::kNonFinite;
      out.bad_unknown = static_cast<int>(i);
      return out;
    }
  }
  x = ws.x_new;
  out.ok = true;
  return out;
}

}  // namespace

std::string TranTelemetry::summary() const {
  std::ostringstream os;
  os << "transient telemetry:\n"
     << "  op method            " << (op_method.empty() ? "-" : op_method)
     << " (" << op_iterations << " iterations)\n"
     << "  accepted steps       " << accepted_steps << "\n"
     << "  rejected (newton)    " << rejected_newton << "\n"
     << "  rejected (nonfinite) " << rejected_nonfinite << "\n"
     << "  rejected (lte)       " << rejected_lte << "\n"
     << "  newton iterations    " << newton_iterations << "\n"
     << "  factorizations       " << factor_count << " (reused "
     << reuse_count << (linear_fast_path_used ? ", linear fast path" : "")
     << ")\n";
  if (!refactor_reasons.empty()) {
    os << "  refactor reasons    ";
    for (const auto& [k, v] : refactor_reasons) os << " " << k << "=" << v;
    os << "\n";
  }
  if (stamp_ns + factor_ns + solve_ns > 0) {
    os << "  solver time          stamp " << stamp_ns / 1000000.0
       << " ms, factor " << factor_ns / 1000000.0 << " ms, solve "
       << solve_ns / 1000000.0 << " ms\n";
  }
  os << "  min dt attempted     " << min_dt_used << " s\n";
  if (refine_count > 0)
    os << "  iterative refinement " << refine_count << " rounds\n";
  if (budget_truncated)
    os << "  budget truncated     yes (" << budget_stop << ")\n";
  return os.str();
}

std::string TranTelemetry::reuse_stats_json() const {
  std::ostringstream os;
  os << "{\"factor_count\": " << factor_count
     << ", \"reuse_count\": " << reuse_count
     << ", \"newton_iterations\": " << newton_iterations
     << ", \"accepted_steps\": " << accepted_steps
     << ", \"linear_fast_path\": "
     << (linear_fast_path_used ? "true" : "false")
     << ", \"stamp_ns\": " << stamp_ns << ", \"factor_ns\": " << factor_ns
     << ", \"solve_ns\": " << solve_ns
     << ", \"refine_count\": " << refine_count
     << ", \"budget_truncated\": " << (budget_truncated ? "true" : "false")
     << ", \"budget_stop\": \"" << budget_stop << "\""
     << ", \"refactor_reasons\": {";
  bool first = true;
  for (const auto& [k, v] : refactor_reasons) {
    if (!first) os << ", ";
    first = false;
    os << "\"" << k << "\": " << v;
  }
  os << "}}";
  return os.str();
}

std::vector<double> TranResult::node_wave(ckt::NodeId n) const {
  std::vector<double> w;
  w.reserve(x.size());
  for (const auto& sol : x)
    w.push_back(n == ckt::kGround ? 0.0 : sol[n - 1]);
  return w;
}

std::vector<double> TranResult::diff_wave(ckt::NodeId p,
                                          ckt::NodeId n) const {
  std::vector<double> w;
  w.reserve(x.size());
  for (const auto& sol : x) {
    const double vp = p == ckt::kGround ? 0.0 : sol[p - 1];
    const double vn = n == ckt::kGround ? 0.0 : sol[n - 1];
    w.push_back(vp - vn);
  }
  return w;
}

namespace {

// Divided-difference LTE estimate for the trapezoidal rule:
// LTE ~ h^3 x''' / 12 with x''' ~ 6 * DD3 over the last four points.
double lte_estimate(const std::vector<double>& ts,
                    const std::vector<num::RealVector>& xs, double t_new,
                    const num::RealVector& x_new, double h) {
  const std::size_t n = ts.size();
  if (n < 3) return 0.0;  // not enough history: accept
  const double t0 = ts[n - 3], t1 = ts[n - 2], t2 = ts[n - 1];
  double worst = 0.0;
  for (std::size_t i = 0; i < x_new.size(); ++i) {
    const double d01 = (xs[n - 2][i] - xs[n - 3][i]) / (t1 - t0);
    const double d12 = (xs[n - 1][i] - xs[n - 2][i]) / (t2 - t1);
    const double d23 = (x_new[i] - xs[n - 1][i]) / (t_new - t2);
    const double dd012 = (d12 - d01) / (t2 - t0);
    const double dd123 = (d23 - d12) / (t_new - t1);
    const double ddd = (dd123 - dd012) / (t_new - t0);  // ~ x'''/6
    worst = std::max(worst, std::abs(h * h * h * ddd * 0.5));
  }
  return worst;
}

// Fills a kNonConvergence/kSingular/kNonFinite diag for a step that the
// recovery logic could not push past even at the smallest dt.
void fill_step_diag(const ckt::Netlist& nl, const StepOutcome& out,
                    double t, double dt, TranResult& r) {
  r.diag.status = out.fail;
  r.diag.stage = "tran";
  r.diag.residual = out.max_dx;
  r.diag.iterations = out.iterations;
  if (out.bad_unknown >= 0) {
    r.diag.unknown = unknown_label(nl, out.bad_unknown);
    r.diag.device = device_touching_unknown(nl, out.bad_unknown);
  }
  std::ostringstream os;
  os << "step rejected at t = " << t << " s, dt = " << dt << " s";
  r.diag.detail = os.str();
}

// Body of run_transient; the workspace lives in the caller so the
// factorization stats reach the telemetry on every return path.  A
// non-null `op_seed` starts the initial OP's Newton from that state
// (OpOptions::initial_guess); a non-null `op_x` receives the converged
// OP (left empty when the OP failed or initial_state skipped it).
TranResult run_transient_inner(ckt::Netlist& nl, const TranOptions& opt,
                               StepWorkspace& ws,
                               const num::RealVector* op_seed,
                               num::RealVector* op_x) {
  TranResult r;

  num::RealVector x0;
  if (opt.initial_state) {
    // Periodic restart: the caller supplies x(0) from an earlier run
    // (PSS shooting update, budget checkpoint); no DC solve.
    nl.assign_unknowns();  // idempotent; solve_op normally does this
    x0 = *opt.initial_state;
    r.telemetry.op_method = "initial_state";
  } else {
    OpOptions op_opt;
    op_opt.temp_k = opt.temp_k;
    op_opt.gmin = opt.gmin;
    op_opt.gshunt = opt.gshunt;
    op_opt.lint = opt.lint;
    op_opt.lint_strict = opt.lint_strict;
    op_opt.budget = opt.budget;
    if (op_seed) op_opt.initial_guess = *op_seed;
    const OpResult op = solve_op(nl, op_opt);
    if (!op.converged) {
      r.diag = op.diag;
      r.diag.stage = "op:" + (op.diag.stage.empty() ? std::string("newton")
                                                    : op.diag.stage);
      if (is_budget_stop(op.diag.status) && opt.budget) {
        r.telemetry.budget_truncated = true;
        r.telemetry.budget_stop = core::to_string(opt.budget->stop_reason());
      }
      return r;
    }
    r.telemetry.op_method = op.method;
    r.telemetry.op_iterations = op.iterations;
    x0 = op.x;
    if (op_x) *op_x = op.x;
  }

  for (const auto& d : nl.devices()) d->begin_transient(x0);

  AssembleParams p;
  p.mode = ckt::AnalysisMode::kTransient;
  p.temp_k = opt.temp_k;
  p.gmin = opt.gmin;
  p.gshunt = opt.gshunt;
  p.use_trapezoidal = opt.use_trapezoidal;

  ws.sys.init(nl);
  // Linear fast path: no nonlinear devices means the implicit step is a
  // single exact solve, and the factorization survives the whole
  // constant-dt run (fixed-step mode only; adaptive runs change dt on
  // nearly every step, which is what the factorization is keyed on).
  const bool linear =
      opt.linear_fast_path && !opt.adaptive && ws.sys.all_linear();
  r.telemetry.linear_fast_path_used = linear;

  num::RealVector x = std::move(x0);
  double t = 0.0;
  if (opt.record && opt.record_after <= 0.0) {
    r.time.push_back(0.0);
    r.x.push_back(x);
  }

  auto& tel = r.telemetry;
  auto note_dt = [&tel](double dt) {
    if (tel.min_dt_used == 0.0 || dt < tel.min_dt_used)
      tel.min_dt_used = dt;
  };
  auto note_reject = [&tel](const StepOutcome& out) {
    if (out.fail == SolveStatus::kNonFinite)
      ++tel.rejected_nonfinite;
    else
      ++tel.rejected_newton;
  };
  // Partial-result exit for budget expiry / cancellation: keep the
  // waveform recorded so far, expose the last-accepted state as a
  // restart checkpoint, and diagnose the cut instead of throwing.
  auto truncate = [&](core::StopReason reason) -> TranResult& {
    r.truncated = true;
    r.t_checkpoint = t;
    r.x_checkpoint = x;
    tel.budget_truncated = true;
    tel.budget_stop = core::to_string(reason);
    std::ostringstream os;
    os << "truncated at t = " << t << " s after " << tel.accepted_steps
       << " accepted steps (" << core::to_string(reason) << ")";
    r.diag = budget_stop_diag(reason, "tran", os.str());
    return r;
  };
  // Deterministic wall-clock skew injection: lets tests drive the
  // deadline path without sleeping (see docs/robustness.md).
  auto skew_faultpoint = [&]() {
    if (opt.budget && MSIM_FAULTPOINT("slow_step_skew"))
      opt.budget->add_skew_ms(opt.budget->max_wall_ms + 1.0);
  };

  if (!opt.adaptive) {
    // Fixed base step (exactly reproducible sampling for FFT work);
    // Newton failures trigger transparent sub-stepping to the boundary,
    // restarting each retry from the last accepted checkpoint `x`.
    while (t < opt.t_stop - 0.5 * opt.dt) {
      if (opt.budget) {
        skew_faultpoint();
        const core::StopReason stop = opt.budget->stop_reason();
        if (stop != core::StopReason::kNone) return truncate(stop);
      }
      double dt = opt.dt;
      const double t_target = std::min(t + opt.dt, opt.t_stop);
      int halvings = 0;
      while (t < t_target - 1e-18) {
        dt = std::min(dt, t_target - t);
        note_dt(dt);
        num::RealVector x_try = x;
        p.time = t + dt;
        p.dt = dt;
        // PSS restart: stamp backward-Euler until the first accepted
        // step re-anchors the capacitor current history (see
        // TranOptions::first_step_backward_euler).
        p.use_trapezoidal =
            opt.use_trapezoidal && !(opt.first_step_backward_euler &&
                                     tel.accepted_steps == 0);
        const StepOutcome out = linear
                                    ? linear_step(nl, p, opt, ws, x_try)
                                    : newton_step(nl, p, opt, ws, x_try);
        tel.newton_iterations += out.iterations;
        if (out.ok) {
          if (opt.step_hook)
            opt.step_hook->on_accepted(nl, ws.sys, p, x, x_try);
          for (const auto& d : nl.devices())
            d->accept_step(x_try, dt, p.use_trapezoidal);
          x = std::move(x_try);
          t += dt;
          ++tel.accepted_steps;
          if (opt.budget) opt.budget->note_step();
        } else if (is_budget_stop(out.fail)) {
          // The budget ran out mid-step; the candidate is discarded and
          // the last accepted state becomes the checkpoint.
          return truncate(opt.budget ? opt.budget->stop_reason()
                                     : core::StopReason::kDeadline);
        } else {
          note_reject(out);
          if (++halvings > opt.max_halvings ||
              0.5 * dt < opt.dt_min) {
            fill_step_diag(nl, out, t, dt, r);
            return r;
          }
          dt *= 0.5;
        }
      }
      if (opt.record && t >= opt.record_after) {
        r.time.push_back(t);
        r.x.push_back(x);
      }
    }
    r.ok = true;
    r.t_final = t;
    r.x_final = x;
    return r;
  }

  // Adaptive stepping with LTE control.  A short accepted-point history
  // feeds the divided-difference estimator (kept separate from the
  // recorded output so record_after still works).
  const double dt_max = opt.dt_max > 0.0 ? opt.dt_max : 50.0 * opt.dt;
  std::vector<double> hist_t{t};
  std::vector<num::RealVector> hist_x{x};
  double dt = opt.dt;
  int rejections = 0;
  while (t < opt.t_stop * (1.0 - 1e-12)) {
    if (opt.budget) {
      skew_faultpoint();
      const core::StopReason stop = opt.budget->stop_reason();
      if (stop != core::StopReason::kNone) return truncate(stop);
    }
    dt = std::min(dt, opt.t_stop - t);
    note_dt(dt);
    num::RealVector x_try = x;
    p.time = t + dt;
    p.dt = dt;
    const StepOutcome out = newton_step(nl, p, opt, ws, x_try);
    tel.newton_iterations += out.iterations;
    if (is_budget_stop(out.fail))
      return truncate(opt.budget ? opt.budget->stop_reason()
                                 : core::StopReason::kDeadline);
    double err = 0.0;
    if (out.ok) err = lte_estimate(hist_t, hist_x, t + dt, x_try, dt);
    if (!out.ok || (err > opt.lte_tol && dt > opt.dt_min * 1.01)) {
      if (out.ok)
        ++tel.rejected_lte;
      else
        note_reject(out);
      dt = std::max(0.5 * dt, opt.dt_min);
      if (++rejections > 60 + opt.max_halvings * 8) {
        fill_step_diag(nl, out, t, dt, r);
        if (out.ok) {  // the limiter was LTE, not Newton
          r.diag.status = SolveStatus::kNonConvergence;
          r.diag.detail += " (LTE above tolerance at dt_min)";
        }
        return r;
      }
      continue;
    }
    rejections = 0;
    for (const auto& d : nl.devices())
      d->accept_step(x_try, dt, p.use_trapezoidal);
    x = std::move(x_try);
    t += dt;
    ++tel.accepted_steps;
    if (opt.budget) opt.budget->note_step();
    hist_t.push_back(t);
    hist_x.push_back(x);
    if (hist_t.size() > 4) {
      hist_t.erase(hist_t.begin());
      hist_x.erase(hist_x.begin());
    }
    if (opt.record && t >= opt.record_after) {
      r.time.push_back(t);
      r.x.push_back(x);
    }
    // Step-size controller: grow gently when the error leaves margin.
    if (err < 0.25 * opt.lte_tol)
      dt = std::min(dt * 1.5, dt_max);
    else if (err < 0.7 * opt.lte_tol)
      dt = std::min(dt * 1.1, dt_max);
  }
  r.ok = true;
  r.t_final = t;
  r.x_final = x;
  return r;
}

TranResult run_transient_seeded(ckt::Netlist& nl, const TranOptions& opt,
                                const num::RealVector* op_seed,
                                num::RealVector* op_x) {
  StepWorkspace ws;
  TranResult r = run_transient_inner(nl, opt, ws, op_seed, op_x);
  const FactorStats& fs = ws.sys.stats();
  r.telemetry.factor_count = fs.factor_count;
  r.telemetry.reuse_count = fs.reuse_count;
  r.telemetry.refactor_reasons = fs.refactor_reasons;
  r.telemetry.stamp_ns = fs.stamp_ns;
  r.telemetry.factor_ns = fs.factor_ns;
  r.telemetry.solve_ns = fs.solve_ns;
  r.telemetry.refine_count = fs.refine_count;
  return r;
}

}  // namespace

TranResult run_transient(ckt::Netlist& nl, const TranOptions& opt) {
  return run_transient_seeded(nl, opt, nullptr, nullptr);
}

std::vector<TranResult> run_transient_sweep(
    std::size_t n,
    const std::function<void(std::size_t, ckt::Netlist&, TranOptions&)>&
        configure,
    const TranSweepOptions& opt) {
  std::vector<TranResult> results(n);
  // Pre-fill every slot with a "case not run" marker: when the shared
  // budget expires, workers stop claiming cases and the untouched slots
  // must still read as structured budget diags, not empty successes.
  if (opt.budget) {
    for (auto& r : results)
      r.diag = budget_stop_diag(core::StopReason::kNone, "tran_sweep",
                                "case not run: sweep budget exhausted "
                                "before this case started");
  }
  // Hoisted structural sharing: case 0 runs serially and primes the
  // pattern / symbolic LU / stamp slots; every later case with the same
  // topology fingerprint adopts that cache instead of re-analyzing, and
  // starts its OP Newton from case 0's converged OP (cold when case 0's
  // OP failed or the topology differs).  The adopted cache and the seed are always case 0's
  // regardless of scheduling, so the thread-count determinism contract
  // is preserved.
  if (opt.share_structure && n > 1) {
    ckt::Netlist nl0;
    TranOptions topt0;
    configure(0, nl0, topt0);
    topt0.budget = opt.budget;
    num::RealVector op0;
    if (!opt.budget || !opt.budget->exhausted())
      results[0] = run_transient_seeded(nl0, topt0, nullptr, &op0);
    const num::RealVector* seed = op0.empty() ? nullptr : &op0;
    const std::uint64_t fp0 = nl0.topology_fingerprint();
    core::parallel_for_chunked(
        opt.threads, n - 1, opt.chunk,
        [&](std::size_t j) {
          const std::size_t i = j + 1;
          ckt::Netlist nl;
          TranOptions topt;
          configure(i, nl, topt);
          topt.budget = opt.budget;
          const bool same = nl.topology_fingerprint() == fp0;
          if (same) nl.adopt_solver_cache(nl0);
          results[i] =
              run_transient_seeded(nl, topt, same ? seed : nullptr, nullptr);
        },
        opt.budget);
    return results;
  }
  // Each case owns its netlist, workspace and result slot; the chunked
  // schedule only decides when a case runs, never what it computes, so
  // the output is bit-identical for any thread count / chunk size.
  core::parallel_for_chunked(
      opt.threads, n, opt.chunk,
      [&](std::size_t i) {
        ckt::Netlist nl;
        TranOptions topt;
        configure(i, nl, topt);
        topt.budget = opt.budget;
        results[i] = run_transient(nl, topt);
      },
      opt.budget);
  return results;
}

}  // namespace msim::an
