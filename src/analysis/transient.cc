#include "analysis/transient.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
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
  if (ensemble_lanes > 0) {
    os << "  ensemble             " << ensemble_lanes << " lanes, "
       << ensemble_cohort_splits << " cohort splits, "
       << ensemble_cohort_rejoins << " rejoins";
    if (ensemble_samples_per_sec > 0.0)
      os << ", " << ensemble_samples_per_sec << " samples/s";
    os << "\n";
  }
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
     << ", \"ensemble_lanes\": " << ensemble_lanes
     << ", \"ensemble_cohort_splits\": " << ensemble_cohort_splits
     << ", \"ensemble_cohort_rejoins\": " << ensemble_cohort_rejoins
     << ", \"ensemble_samples_per_sec\": " << ensemble_samples_per_sec
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
// factorization stats reach the telemetry on every return path.
TranResult run_transient_inner(ckt::Netlist& nl, const TranOptions& opt,
                               StepWorkspace& ws) {
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

}  // namespace

TranResult run_transient(ckt::Netlist& nl, const TranOptions& opt) {
  StepWorkspace ws;
  TranResult r = run_transient_inner(nl, opt, ws);
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
  // topology fingerprint adopts that cache instead of re-analyzing.
  // The adopted cache is always case 0's regardless of scheduling, so
  // the thread-count determinism contract is preserved.
  if (opt.share_structure && n > 1) {
    ckt::Netlist nl0;
    TranOptions topt0;
    configure(0, nl0, topt0);
    topt0.budget = opt.budget;
    if (!opt.budget || !opt.budget->exhausted())
      results[0] = run_transient(nl0, topt0);
    const std::uint64_t fp0 = nl0.topology_fingerprint();
    core::parallel_for_chunked(
        opt.threads, n - 1, opt.chunk,
        [&](std::size_t j) {
          const std::size_t i = j + 1;
          ckt::Netlist nl;
          TranOptions topt;
          configure(i, nl, topt);
          topt.budget = opt.budget;
          if (nl.topology_fingerprint() == fp0) nl.adopt_solver_cache(nl0);
          results[i] = run_transient(nl, topt);
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

// ---------------------------------------------------------------- ensemble

namespace {

// Field-wise equality of the stepping-relevant TranOptions.  The budget
// pointer is excluded: the ensemble driver overwrites it uniformly.
bool same_tran_options(const TranOptions& a, const TranOptions& b) {
  return a.t_stop == b.t_stop && a.dt == b.dt && a.temp_k == b.temp_k &&
         a.vtol == b.vtol && a.reltol == b.reltol &&
         a.max_newton == b.max_newton && a.max_step == b.max_step &&
         a.gmin == b.gmin && a.gshunt == b.gshunt &&
         a.use_trapezoidal == b.use_trapezoidal && a.lint == b.lint &&
         a.lint_strict == b.lint_strict &&
         a.max_halvings == b.max_halvings && a.record == b.record &&
         a.record_after == b.record_after && a.adaptive == b.adaptive &&
         a.dt_min == b.dt_min && a.dt_max == b.dt_max &&
         a.lte_tol == b.lte_tol &&
         a.reuse_factorization == b.reuse_factorization &&
         a.linear_fast_path == b.linear_fast_path &&
         a.initial_state == b.initial_state &&
         a.first_step_backward_euler == b.first_step_backward_euler &&
         a.step_hook == b.step_hook;
}

// A dt cohort: the lanes of one block that still agree on position and
// step ladder.  Splits (a rejected subset halving off) and rejoins (a
// slow cohort catching up at a base-step boundary) keep per-sample step
// control exact while the common case stays one lockstep group.
struct Cohort {
  std::vector<int> mem;  // block-local lane ids, ascending
  double t = 0.0;
  double t_target = 0.0;  // end of the current base interval
  double dt = 0.0;        // current sub-step ladder value
  int halvings = 0;
};

// Everything one lockstep block owns.  Blocks are the deterministic
// scheduling unit: serial inside, parallel across, so results are
// bit-identical for any thread count.
struct EnsembleBlock {
  EnsembleSystem sys;
  const TranOptions* opt = nullptr;       // shared (validated equal)
  core::RunBudget* budget = nullptr;
  const num::RealVector* nominal_x = nullptr;  // warm start for lane OPs
  std::vector<ckt::Netlist*> lanes;
  std::vector<TranResult*> results;       // global slots, lane-indexed
  bool fell_back = false;                 // sys.init refused -> per-sample

  // Per-lane persistent state.
  std::vector<num::RealVector> x;    // last accepted state
  std::vector<char> have_factor;
  std::vector<double> factor_dt;
  // Per-iteration scratch (lane-indexed / active-indexed).
  std::vector<num::RealVector> xs;   // Newton candidates
  std::vector<num::RealVector> xn;   // Newton updates
  std::vector<int> active, next_active;
  std::unique_ptr<bool[]> fresh, okv;
  std::vector<const char*> reasons;

  long splits = 0, rejoins = 0;
  int max_cohorts = 0;
};

// One lockstep implicit sub-step for a cohort.  Mirrors newton_step()
// per lane -- modified Newton with the stale-nonfinite retry, the
// contraction watchdog and update damping -- over a shared iteration
// loop so every active lane's Jacobian is assembled by one slot replay.
// One deliberate difference from the per-sample path: there is no
// reuse-profitability probe controller (lanes would disagree on the
// probe phase and break lockstep), so reuse is simply on whenever
// opt.reuse_factorization is set and dt matches the held factorization.
// Returns false on budget expiry (the caller truncates every lane).
bool cohort_newton(EnsembleBlock& b, const Cohort& co,
                   const AssembleParams& p, std::vector<StepOutcome>& out) {
  const TranOptions& opt = *b.opt;
  const int nl = static_cast<int>(b.lanes.size());
  out.assign(nl, StepOutcome{});
  b.sys.invalidate_lanes(co.mem.data(), static_cast<int>(co.mem.size()));

  std::vector<const char*> fresh_reason(
      nl, opt.reuse_factorization ? nullptr : "full_newton");
  std::vector<double> prev_dx(nl,
                              std::numeric_limits<double>::infinity());
  std::vector<int> stale_iters(nl, 0);
  for (int k : co.mem) b.xs[k] = b.x[k];
  b.active = co.mem;

  for (int it = 0; it < opt.max_newton && !b.active.empty(); ++it) {
    if (b.budget) {
      // Budget parity with the per-sample path: one Newton-iteration
      // note per lane per lockstep iteration.
      for (std::size_t z = 0; z < b.active.size(); ++z)
        b.budget->note_newton_iteration();
      if (b.budget->stop_reason() != core::StopReason::kNone) return false;
    }
    for (int k : b.active) ++out[k].iterations;
    const int na = static_cast<int>(b.active.size());
    b.sys.assemble(b.active.data(), na, b.xs, p);
    for (int i = 0; i < na; ++i) {
      const int k = b.active[i];
      const bool use_stale = fresh_reason[k] == nullptr &&
                             b.have_factor[k] &&
                             same_dt(p.dt, b.factor_dt[k]);
      b.fresh[i] = !use_stale;
      b.reasons[i] = fresh_reason[k]      ? fresh_reason[k]
                     : !b.have_factor[k] ? "initial"
                                         : "dt_change";
      b.okv[i] = true;
    }
    b.sys.update(b.active.data(), na, b.fresh.get(), b.reasons.data(),
                 b.xs, b.xn, b.okv.get());
    b.next_active.clear();
    for (int i = 0; i < na; ++i) {
      const int k = b.active[i];
      if (!b.okv[i]) {
        b.have_factor[k] = 0;
        out[k].fail = SolveStatus::kSingularMatrix;
        out[k].bad_unknown = b.sys.lane_singular_col(k);
        continue;  // lane drops out; cohort partition rejects it
      }
      const bool was_stale = !b.fresh[i];
      if (!was_stale) {
        b.have_factor[k] = 1;
        b.factor_dt[k] = p.dt;
      } else {
        ++stale_iters[k];
      }
      const num::RealVector& xk = b.xs[k];
      const num::RealVector& xnk = b.xn[k];
      double max_dx = 0.0;
      int worst = -1;
      bool converged = true;
      bool finite = true;
      for (std::size_t u = 0; u < xk.size(); ++u) {
        if (!std::isfinite(xnk[u])) {
          finite = false;
          worst = static_cast<int>(u);
          break;
        }
        const double adx = std::abs(xnk[u] - xk[u]);
        if (adx > max_dx) {
          max_dx = adx;
          worst = static_cast<int>(u);
        }
        if (adx > opt.vtol + opt.reltol * std::abs(xnk[u]))
          converged = false;
      }
      if (!finite) {
        if (was_stale) {
          // Retry the same candidate with a fresh factorization before
          // rejecting (exactly the per-sample stale_nonfinite path).
          fresh_reason[k] = "stale_nonfinite";
          b.next_active.push_back(k);
          continue;
        }
        out[k].fail = SolveStatus::kNonFinite;
        out[k].bad_unknown = worst;
        continue;
      }
      out[k].max_dx = max_dx;
      out[k].bad_unknown = worst;
      if (converged) {
        b.xs[k] = xnk;  // accepted candidate for this sub-step
        out[k].ok = true;
        continue;
      }
      if (was_stale &&
          (max_dx > 0.5 * prev_dx[k] + opt.vtol || stale_iters[k] > 8))
        fresh_reason[k] = "slow_convergence";
      prev_dx[k] = max_dx;
      const double scale =
          max_dx > opt.max_step ? opt.max_step / max_dx : 1.0;
      num::RealVector& xw = b.xs[k];
      for (std::size_t u = 0; u < xw.size(); ++u)
        xw[u] += scale * (xnk[u] - xw[u]);
      b.next_active.push_back(k);
    }
    b.active.swap(b.next_active);
  }
  // Lanes still active after max_newton keep the default
  // kNonConvergence outcome.
  return true;
}

// Runs one lockstep block to completion (or budget truncation).
void run_ensemble_block(EnsembleBlock& b) {
  const TranOptions& opt = *b.opt;
  const std::size_t nl = b.lanes.size();

  if (!b.sys.init(b.lanes)) {
    // Structure disagreement inside the block (should not happen after
    // the driver's fingerprint gate, but stays a soft failure): run the
    // block's lanes through the per-sample path.
    b.fell_back = true;
    for (std::size_t k = 0; k < nl; ++k)
      *b.results[k] = run_transient(*b.lanes[k], opt);
    return;
  }

  b.x.resize(nl);
  b.have_factor.assign(nl, 0);
  b.factor_dt.assign(nl, -1.0);
  b.xs.resize(nl);
  b.xn.resize(nl);
  b.fresh.reset(new bool[nl]);
  b.okv.reset(new bool[nl]);
  b.reasons.resize(nl);

  // Per-lane operating point, warm-started from the nominal OP: the
  // perturbed samples sit within millivolts of the nominal solution, so
  // plain Newton from the nominal x converges in a few iterations and
  // skips the whole homotopy ladder that dominates cold-start OP cost.
  OpOptions op_opt;
  op_opt.temp_k = opt.temp_k;
  op_opt.vtol = opt.vtol;
  op_opt.reltol = opt.reltol;
  op_opt.gmin = opt.gmin;
  op_opt.gshunt = opt.gshunt;
  op_opt.lint = opt.lint;
  op_opt.lint_strict = opt.lint_strict;
  op_opt.budget = b.budget;
  op_opt.initial_guess = *b.nominal_x;

  std::vector<char> running(nl, 0);
  for (std::size_t k = 0; k < nl; ++k) {
    TranResult& r = *b.results[k];
    r = TranResult{};  // clear any "case not run" pre-fill marker
    const OpResult op = solve_op(*b.lanes[k], op_opt);
    if (!op.converged) {
      r.diag = op.diag;
      r.diag.stage =
          "op:" + (op.diag.stage.empty() ? std::string("newton")
                                         : op.diag.stage);
      if (is_budget_stop(op.diag.status) && b.budget) {
        r.telemetry.budget_truncated = true;
        r.telemetry.budget_stop =
            core::to_string(b.budget->stop_reason());
      }
      continue;
    }
    r.telemetry.op_method = op.method;
    r.telemetry.op_iterations = op.iterations;
    for (const auto& d : b.lanes[k]->devices()) d->begin_transient(op.x);
    b.x[k] = op.x;
    running[k] = 1;
    if (opt.record && opt.record_after <= 0.0) {
      r.time.push_back(0.0);
      r.x.push_back(op.x);
    }
  }

  AssembleParams p;
  p.mode = ckt::AnalysisMode::kTransient;
  p.temp_k = opt.temp_k;
  p.gmin = opt.gmin;
  p.gshunt = opt.gshunt;
  p.use_trapezoidal = opt.use_trapezoidal;

  std::vector<Cohort> cohorts;
  {
    Cohort c0;
    for (std::size_t k = 0; k < nl; ++k)
      if (running[k]) c0.mem.push_back(static_cast<int>(k));
    if (c0.mem.empty()) return;
    if (!(0.0 < opt.t_stop - 0.5 * opt.dt)) {
      // Degenerate horizon: the per-sample loop body never runs.
      for (int k : c0.mem) b.results[k]->ok = true;
      return;
    }
    c0.t = 0.0;
    c0.dt = opt.dt;
    c0.t_target = std::min(opt.dt, opt.t_stop);
    cohorts.push_back(std::move(c0));
  }

  auto truncate_all = [&](core::StopReason reason) {
    for (const Cohort& co : cohorts) {
      for (int k : co.mem) {
        TranResult& r = *b.results[k];
        r.truncated = true;
        r.t_checkpoint = co.t;
        r.x_checkpoint = b.x[k];
        r.telemetry.budget_truncated = true;
        r.telemetry.budget_stop = core::to_string(reason);
        std::ostringstream os;
        os << "truncated at t = " << co.t << " s after "
           << r.telemetry.accepted_steps << " accepted steps ("
           << core::to_string(reason) << ")";
        r.diag = budget_stop_diag(reason, "tran_ensemble", os.str());
      }
    }
    cohorts.clear();
  };

  // A cohort that reaches its base-step boundary records its members'
  // points, finishes lanes past t_stop, and otherwise rejoins any
  // cohort already waiting on the same fresh interval (bitwise-equal t
  // thanks to the boundary snap) or starts the next interval itself.
  auto arrive_boundary = [&](Cohort ca) {
    if (opt.record && ca.t >= opt.record_after) {
      for (int k : ca.mem) {
        b.results[k]->time.push_back(ca.t);
        b.results[k]->x.push_back(b.x[k]);
      }
    }
    if (!(ca.t < opt.t_stop - 0.5 * opt.dt)) {
      for (int k : ca.mem) b.results[k]->ok = true;
      return;
    }
    const double next_target = std::min(ca.t + opt.dt, opt.t_stop);
    for (Cohort& d : cohorts) {
      if (d.t == ca.t && d.halvings == 0 && d.dt == opt.dt &&
          d.t_target == next_target) {
        d.mem.insert(d.mem.end(), ca.mem.begin(), ca.mem.end());
        std::sort(d.mem.begin(), d.mem.end());
        ++b.rejoins;
        return;
      }
    }
    ca.dt = opt.dt;
    ca.halvings = 0;
    ca.t_target = next_target;
    cohorts.push_back(std::move(ca));
  };

  std::vector<StepOutcome> out;
  while (!cohorts.empty()) {
    b.max_cohorts =
        std::max(b.max_cohorts, static_cast<int>(cohorts.size()));
    // Deterministic schedule: smallest t first (ties broken by lowest
    // first lane), so a boundary-waiting cohort is never stepped before
    // every straggler of the previous interval has had the chance to
    // arrive and rejoin it.
    std::size_t ci = 0;
    for (std::size_t j = 1; j < cohorts.size(); ++j) {
      if (cohorts[j].t < cohorts[ci].t ||
          (cohorts[j].t == cohorts[ci].t &&
           cohorts[j].mem[0] < cohorts[ci].mem[0]))
        ci = j;
    }
    if (b.budget) {
      if (MSIM_FAULTPOINT("slow_step_skew"))
        b.budget->add_skew_ms(b.budget->max_wall_ms + 1.0);
      const core::StopReason stop = b.budget->stop_reason();
      if (stop != core::StopReason::kNone) {
        truncate_all(stop);
        return;
      }
    }
    Cohort co = std::move(cohorts[ci]);
    cohorts.erase(cohorts.begin() + static_cast<std::ptrdiff_t>(ci));

    const double dt = std::min(co.dt, co.t_target - co.t);
    for (int k : co.mem) {
      TranTelemetry& tel = b.results[k]->telemetry;
      if (tel.min_dt_used == 0.0 || dt < tel.min_dt_used)
        tel.min_dt_used = dt;
    }
    p.time = co.t + dt;
    p.dt = dt;

    if (!cohort_newton(b, co, p, out)) {
      cohorts.push_back(std::move(co));  // restore for checkpointing
      truncate_all(b.budget->stop_reason());
      return;
    }
    for (int k : co.mem)
      b.results[k]->telemetry.newton_iterations += out[k].iterations;

    std::vector<int> acc, rej;
    for (int k : co.mem) (out[k].ok ? acc : rej).push_back(k);
    if (!acc.empty() && !rej.empty()) ++b.splits;

    if (!acc.empty()) {
      for (int k : acc) {
        for (const auto& d : b.lanes[k]->devices())
          d->accept_step(b.xs[k], dt, p.use_trapezoidal);
        b.x[k] = b.xs[k];
        ++b.results[k]->telemetry.accepted_steps;
        if (b.budget) b.budget->note_step();
      }
      Cohort ca;
      ca.mem = std::move(acc);
      ca.t = co.t + dt;
      ca.t_target = co.t_target;
      ca.dt = co.dt;
      ca.halvings = co.halvings;
      if (ca.t >= ca.t_target - 1e-18) {
        ca.t = ca.t_target;  // snap: boundary times merge bit-exactly
        arrive_boundary(std::move(ca));
      } else {
        cohorts.push_back(std::move(ca));
      }
    }
    if (!rej.empty()) {
      for (int k : rej) {
        TranTelemetry& tel = b.results[k]->telemetry;
        if (out[k].fail == SolveStatus::kNonFinite)
          ++tel.rejected_nonfinite;
        else
          ++tel.rejected_newton;
      }
      if (co.halvings + 1 > opt.max_halvings || 0.5 * dt < opt.dt_min) {
        for (int k : rej)
          fill_step_diag(*b.lanes[k], out[k], co.t, dt, *b.results[k]);
      } else {
        Cohort cr;
        cr.mem = std::move(rej);
        cr.t = co.t;
        cr.t_target = co.t_target;
        cr.dt = 0.5 * dt;
        cr.halvings = co.halvings + 1;
        cohorts.push_back(std::move(cr));
      }
    }
  }

  for (std::size_t k = 0; k < nl; ++k) {
    TranTelemetry& tel = b.results[k]->telemetry;
    tel.ensemble_lanes = static_cast<int>(nl);
    tel.ensemble_cohort_splits = b.splits;
    tel.ensemble_cohort_rejoins = b.rejoins;
  }
}

}  // namespace

TranEnsembleResult run_transient_ensemble(
    std::size_t n,
    const std::function<void(std::size_t, ckt::Netlist&, TranOptions&)>&
        configure,
    const TranEnsembleOptions& opt) {
  TranEnsembleResult er;
  er.results.resize(n);
  TranEnsembleTelemetry& et = er.ensemble;
  et.samples = n;
  et.lane_width = std::max(1, opt.lane_width);
  const auto t0 = std::chrono::steady_clock::now();
  auto finalize = [&] {
    et.wall_ms = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
    if (et.wall_ms > 0.0)
      et.samples_per_sec =
          static_cast<double>(n) / (et.wall_ms / 1000.0);
    for (auto& r : er.results)
      r.telemetry.ensemble_samples_per_sec = et.samples_per_sec;
  };
  if (n == 0) {
    finalize();
    return er;
  }

  // Build every sample up front (serially: configure's determinism
  // contract is per-index, but the builds are cheap and this keeps the
  // nominal-cache adoption trivially ordered).
  std::vector<std::unique_ptr<ckt::Netlist>> nls;
  std::vector<TranOptions> topts(n);
  nls.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    nls.push_back(std::make_unique<ckt::Netlist>());
    configure(i, *nls[i], topts[i]);
    topts[i].budget = opt.budget;
  }

  // Whole-run per-sample fallback, with the hoisted cache share: when
  // the topologies agree, sample 0 runs first and every later sample
  // adopts its structural cache before running.
  auto per_sample = [&](const char* why) {
    et.used_ensemble = false;
    et.fallback_reason = why;
    et.fallback_lanes = static_cast<int>(n);
    if (opt.budget) {
      for (auto& r : er.results)
        r.diag = budget_stop_diag(core::StopReason::kNone, "tran_ensemble",
                                  "case not run: ensemble budget "
                                  "exhausted before this case started");
    }
    std::size_t start = 0;
    if (n > 1) {
      const std::uint64_t fp0 = nls[0]->topology_fingerprint();
      bool shared = true;
      for (std::size_t i = 1; i < n && shared; ++i)
        shared = nls[i]->topology_fingerprint() == fp0;
      if (shared) {
        if (!opt.budget || !opt.budget->exhausted())
          er.results[0] = run_transient(*nls[0], topts[0]);
        for (std::size_t i = 1; i < n; ++i)
          nls[i]->adopt_solver_cache(*nls[0]);
        start = 1;
      }
    }
    core::parallel_for_chunked(
        opt.threads, n - start, 0,
        [&](std::size_t j) {
          const std::size_t i = start + j;
          er.results[i] = run_transient(*nls[i], topts[i]);
        },
        opt.budget);
  };

  // Lockstep preconditions.  Any miss routes the whole run through the
  // per-sample path with the reason recorded in the telemetry.
  const TranOptions& base = topts[0];
  const char* why = nullptr;
  if (opt.force_per_sample) {
    why = "forced";
  } else if (n == 1) {
    why = "single_sample";  // bit-identity contract with run_transient
  } else if (base.adaptive) {
    why = "adaptive";  // per-lane LTE dt controllers diverge immediately
  } else if (base.initial_state || base.step_hook ||
             base.first_step_backward_euler) {
    why = "pss_restart";  // lockstep lanes share one DC warm start
  } else {
    for (std::size_t i = 1; i < n && !why; ++i) {
      if (!same_tran_options(topts[i], base)) why = "options_differ";
    }
  }
  if (!why) {
    const std::uint64_t fp0 = nls[0]->topology_fingerprint();
    for (std::size_t i = 1; i < n && !why; ++i)
      if (nls[i]->topology_fingerprint() != fp0) why = "topology_differs";
  }
  OpResult nominal;
  if (!why) {
    // One nominal OP (full homotopy ladder) primes sample 0's solver
    // cache and provides the warm start every lane's OP reuses.
    OpOptions op0;
    op0.temp_k = base.temp_k;
    op0.vtol = base.vtol;
    op0.reltol = base.reltol;
    op0.gmin = base.gmin;
    op0.gshunt = base.gshunt;
    op0.lint = base.lint;
    op0.lint_strict = base.lint_strict;
    op0.budget = opt.budget;
    nominal = solve_op(*nls[0], op0);
    if (!nominal.converged) why = "nominal_op_failed";
  }
  if (why) {
    per_sample(why);
    finalize();
    return er;
  }

  // Hoisted cache share: every sample adopts the nominal structural
  // cache (pattern, symbolic LU, stamp slots) exactly once, outside any
  // per-trial work.
  for (std::size_t i = 1; i < n; ++i)
    nls[i]->adopt_solver_cache(*nls[0]);

  const std::vector<core::IndexBlock> blocks = core::partition_blocks(
      n, static_cast<std::size_t>(et.lane_width));
  et.blocks = static_cast<int>(blocks.size());
  if (opt.budget) {
    for (auto& r : er.results)
      r.diag = budget_stop_diag(core::StopReason::kNone, "tran_ensemble",
                                "case not run: ensemble budget exhausted "
                                "before this sample's block started");
  }

  std::vector<EnsembleBlock> ctxs(blocks.size());
  for (std::size_t bi = 0; bi < blocks.size(); ++bi) {
    EnsembleBlock& b = ctxs[bi];
    b.opt = &base;
    b.budget = opt.budget;
    b.nominal_x = &nominal.x;
    for (std::size_t i = blocks[bi].begin; i < blocks[bi].end; ++i) {
      b.lanes.push_back(nls[i].get());
      b.results.push_back(&er.results[i]);
    }
  }
  core::parallel_for(
      opt.threads, blocks.size(),
      [&](std::size_t bi) { run_ensemble_block(ctxs[bi]); }, opt.budget);

  for (const EnsembleBlock& b : ctxs) {
    if (b.fell_back) {
      et.fallback_lanes += static_cast<int>(b.lanes.size());
      if (et.fallback_reason.empty())
        et.fallback_reason = "block_init_refused";
      continue;
    }
    et.cohort_splits += b.splits;
    et.cohort_rejoins += b.rejoins;
    et.max_cohorts = std::max(et.max_cohorts, b.max_cohorts);
    const FactorStats& fs = b.sys.stats();
    et.factor_count += fs.factor_count;
    et.reuse_count += fs.reuse_count;
    et.stamp_ns += fs.stamp_ns;
    et.factor_ns += fs.factor_ns;
    et.solve_ns += fs.solve_ns;
  }
  et.used_ensemble = et.fallback_lanes < static_cast<int>(n);
  finalize();
  return er;
}

}  // namespace msim::an
