#include "analysis/pss.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <sstream>
#include <utility>

#include "devices/sources.h"
#include "numeric/lu.h"

namespace msim::an {

namespace {

// ------------------------------------------------------------ Phi ride-along
//
// TranStepHook propagating the period-map sensitivity Phi = dx(t)/dx(0)
// through the transient loop's own LUs.  Derivation (capacitor shown;
// the inductor current history follows the same shape):
//
// The step-k MNA system is J_k x_k = b_k where the only x0-dependent
// part of b_k is the integration history: per cap, the companion
// current ieq_k = geq * v_{k-1} + i_{k-1} (trapezoidal) or
// geq * v_{k-1} (backward Euler).  The geq * v_prev part of
// db_k/dx0 is exactly s_k * M * Phi_{k-1}, where M is the history
// Jacobian at the base step (M entries scale as 1/dt, hence the scale
// s_k = dt_base / dt_k for sub-halved retries, and the BE companion is
// half the trapezoidal one).  The i_prev part is the history-current
// sensitivity I_{k-1}, advanced by differentiating accept_step.  With
// R_k = M * Phi_k cached, one accepted step advances
//
//   trapezoidal:  W = s*R_{k-1} + I_{k-1};  Phi_k = J_k^{-1} W
//                 I_k = s*R_k - W
//   backwd Euler: W = 0.5*s*R_{k-1};        Phi_k = J_k^{-1} W
//                 I_k = 0.5*s*R_k - W
//
// with exact initial data Phi_0 = identity restricted to the dynamic
// columns and I_0 = 0 (begin_transient zeroes the current history).
// J_k^{-1} is whatever factorization the step left held -- possibly a
// stale modified-Newton one, which only perturbs the shooting
// convergence RATE (the periodicity residual uses actually-integrated
// states and stays exact).
class PhiPropagator final : public TranStepHook {
 public:
  explicit PhiPropagator(double dt_base) : dt_base_(dt_base) {}

  // Arms the hook for one period integration, resetting Phi to the
  // identity.  The M build itself is lazy (first accepted step).
  void begin_run() {
    active_ = true;
    if (built_) reset_columns();
  }
  void end_run() { active_ = false; }

  int unknowns() const { return n_; }
  int dynamic_unknowns() const { return static_cast<int>(dyn_.size()); }
  const std::vector<int>& dynamic_cols() const { return dyn_; }
  // Full n-vector column of Phi for dynamic unknown dynamic_cols()[j].
  const num::RealVector& column(std::size_t j) const { return phi_[j]; }
  long solve_count() const { return solves_; }
  long phi_ns() const { return ns_; }

  void on_accepted(const ckt::Netlist& nl, RealSystem& sys,
                   const AssembleParams& p, const num::RealVector& x_prev,
                   const num::RealVector& x_new) override {
    (void)x_prev;
    if (!active_) return;
    const auto t0 = std::chrono::steady_clock::now();
    if (!built_) build(nl, x_new, p);
    const std::size_t m = dyn_.size();
    const std::size_t n = static_cast<std::size_t>(n_);
    if (m != 0) {
      const double s = dt_base_ / p.dt;
      const bool trap = p.use_trapezoidal;
      const double cr = trap ? s : 0.5 * s;  // I_k = cr*R_k - W
      for (std::size_t j = 0; j < m; ++j) {
        const num::RealVector& rj = r_[j];
        num::RealVector& ij = ihist_[j];
        w_.resize(n);
        if (trap) {
          for (std::size_t i = 0; i < n; ++i) w_[i] = s * rj[i] + ij[i];
        } else {
          for (std::size_t i = 0; i < n; ++i) w_[i] = 0.5 * s * rj[i];
        }
        sys.solve_held(w_, phi_[j]);
        ++solves_;
        m_.multiply(phi_[j], rnew_);
        for (std::size_t i = 0; i < n; ++i) ij[i] = cr * rnew_[i] - w_[i];
        std::swap(r_[j], rnew_);
      }
    }
    ns_ += std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - t0)
               .count();
  }

 private:
  // Extracts M as the difference of two same-x assemblies at dt and
  // dt/2: every dt-independent stamp (resistive, nonlinear, gshunt,
  // source) cancels bit-exactly, leaving geq(dt/2) - geq(dt) = geq(dt)
  // on the cap pattern (and -2L/dt on inductor branch diagonals) --
  // i.e. M itself, with no per-device sensitivity code anywhere.  Both
  // assemblies run through a RealSystem over the netlist's cached
  // skeleton and stamp-slot tables (the transient loop has recorded the
  // transient passes by the first accepted step), so a warm job builds
  // M without a single pattern search.
  void build(const ckt::Netlist& nl, const num::RealVector& x,
             const AssembleParams& p) {
    RealSystem sys;
    sys.init(nl);
    AssembleParams pa = p;
    pa.dt = dt_base_;
    pa.use_trapezoidal = true;
    sys.assemble(nl, x, pa);
    m_ = sys.sparse_jac();
    AssembleParams pb = pa;
    pb.dt = 0.5 * dt_base_;
    sys.assemble(nl, x, pb);
    auto& mv = m_.values();
    const auto& bv = sys.sparse_jac().values();
    for (std::size_t k = 0; k < mv.size(); ++k) mv[k] = bv[k] - mv[k];
    n_ = m_.rows();

    // Dynamic unknowns = structural nonzero columns of M: the only
    // channels through which x0 reaches the next period.
    std::vector<int> col_of(static_cast<std::size_t>(n_), -1);
    const auto& rp = m_.row_ptr();
    const auto& cols = m_.cols();
    for (int r = 0; r < n_; ++r)
      for (int k = rp[static_cast<std::size_t>(r)];
           k < rp[static_cast<std::size_t>(r) + 1]; ++k)
        if (mv[static_cast<std::size_t>(k)] != 0.0)
          col_of[static_cast<std::size_t>(cols[static_cast<std::size_t>(k)])] =
              0;
    for (int c = 0; c < n_; ++c)
      if (col_of[static_cast<std::size_t>(c)] == 0) {
        col_of[static_cast<std::size_t>(c)] = static_cast<int>(dyn_.size());
        dyn_.push_back(c);
      }

    // Dense restriction of M to the dynamic columns: the R_0 seed of
    // every run (R_0 column j = M * e_dyn[j]).
    m_dyn_.assign(dyn_.size(),
                  num::RealVector(static_cast<std::size_t>(n_), 0.0));
    for (int r = 0; r < n_; ++r)
      for (int k = rp[static_cast<std::size_t>(r)];
           k < rp[static_cast<std::size_t>(r) + 1]; ++k) {
        const int j = col_of[static_cast<std::size_t>(
            cols[static_cast<std::size_t>(k)])];
        if (j >= 0)
          m_dyn_[static_cast<std::size_t>(j)][static_cast<std::size_t>(r)] +=
              mv[static_cast<std::size_t>(k)];
      }

    built_ = true;
    reset_columns();
  }

  void reset_columns() {
    const std::size_t m = dyn_.size();
    const std::size_t n = static_cast<std::size_t>(n_);
    phi_.assign(m, num::RealVector(n, 0.0));
    ihist_.assign(m, num::RealVector(n, 0.0));
    r_ = m_dyn_;
    for (std::size_t j = 0; j < m; ++j)
      phi_[j][static_cast<std::size_t>(dyn_[j])] = 1.0;
  }

  double dt_base_;
  bool active_ = false;
  bool built_ = false;
  int n_ = 0;
  num::RealSparseMatrix m_;          // history Jacobian M at dt_base
  std::vector<int> dyn_;             // dynamic (structural M) columns
  std::vector<num::RealVector> m_dyn_;   // M restricted to dyn_ columns
  std::vector<num::RealVector> phi_;     // Phi columns (full n-vectors)
  std::vector<num::RealVector> r_;       // R = M * Phi per column
  std::vector<num::RealVector> ihist_;   // history-current sensitivity I
  num::RealVector w_, rnew_;             // per-step scratch
  long solves_ = 0;
  long ns_ = 0;
};

void merge_tran(TranTelemetry& a, const TranTelemetry& b) {
  a.accepted_steps += b.accepted_steps;
  a.rejected_newton += b.rejected_newton;
  a.rejected_nonfinite += b.rejected_nonfinite;
  a.rejected_lte += b.rejected_lte;
  a.newton_iterations += b.newton_iterations;
  if (a.min_dt_used == 0.0 ||
      (b.min_dt_used != 0.0 && b.min_dt_used < a.min_dt_used))
    a.min_dt_used = b.min_dt_used;
  if (a.op_method.empty()) {
    a.op_method = b.op_method;
    a.op_iterations = b.op_iterations;
  }
  a.factor_count += b.factor_count;
  a.reuse_count += b.reuse_count;
  for (const auto& [k, v] : b.refactor_reasons) a.refactor_reasons[k] += v;
  a.linear_fast_path_used |= b.linear_fast_path_used;
  a.stamp_ns += b.stamp_ns;
  a.factor_ns += b.factor_ns;
  a.solve_ns += b.solve_ns;
  a.budget_truncated |= b.budget_truncated;
  if (!b.budget_stop.empty()) a.budget_stop = b.budget_stop;
  a.refine_count += b.refine_count;
}

// Propagates a failed/truncated integration into the PSS result,
// prefixing the analysis phase onto whatever stage the engine reported.
PssResult& fail_from(PssResult& res, TranResult&& tr, const char* stage) {
  res.diag = std::move(tr.diag);
  res.diag.stage = res.diag.stage.empty()
                       ? std::string(stage)
                       : std::string(stage) + ":" + res.diag.stage;
  if (tr.truncated) {
    res.truncated = true;
    res.t_checkpoint = tr.t_checkpoint;
    res.x_checkpoint = std::move(tr.x_checkpoint);
  }
  return res;
}

}  // namespace

double single_tone_hz(const ckt::Netlist& nl) {
  double f = 0.0;
  for (const auto& d : nl.devices()) {
    const dev::Waveform* w = nullptr;
    if (const auto* v = dynamic_cast<const dev::VSource*>(d.get()))
      w = &v->waveform();
    else if (const auto* i = dynamic_cast<const dev::ISource*>(d.get()))
      w = &i->waveform();
    if (!w) continue;
    switch (w->kind()) {
      case dev::Waveform::Kind::kDc:
        break;
      case dev::Waveform::Kind::kSin:
        if (w->sine_ampl() == 0.0) break;  // degenerate DC
        // Damping and delay make value(t) non-periodic on [0, T).
        if (w->sine_damping() != 0.0 || w->sine_delay() != 0.0) return 0.0;
        if (f > 0.0 && f != w->sine_freq()) return 0.0;
        f = w->sine_freq();
        break;
      default:
        return 0.0;  // pulse / PWL forcing: not a single tone
    }
  }
  return f;
}

std::string PssTelemetry::summary() const {
  std::ostringstream os;
  os << "pss: " << shooting_iterations << " shooting update(s), "
     << periods_integrated << " period(s) integrated, residual " << residual
     << "\n";
  os << "pss: " << dynamic_unknowns << "/" << unknowns
     << " dynamic unknown(s), " << phi_solve_count << " Phi solve(s), "
     << static_cast<double>(phi_ns) / 1e6 << " ms Phi ride-along\n";
  os << tran.summary();
  return os.str();
}

std::string PssTelemetry::json() const {
  std::ostringstream os;
  os << "{\"shooting_iterations\":" << shooting_iterations
     << ",\"periods_integrated\":" << periods_integrated
     << ",\"residual\":" << residual
     << ",\"dynamic_unknowns\":" << dynamic_unknowns
     << ",\"unknowns\":" << unknowns
     << ",\"phi_solve_count\":" << phi_solve_count
     << ",\"phi_ms\":" << static_cast<double>(phi_ns) / 1e6 << "}";
  return os.str();
}

std::vector<double> PssResult::node_wave(ckt::NodeId n) const {
  std::vector<double> w(x.size());
  for (std::size_t i = 0; i < x.size(); ++i)
    w[i] = n == ckt::kGround ? 0.0 : x[i][static_cast<std::size_t>(n - 1)];
  return w;
}

std::vector<double> PssResult::diff_wave(ckt::NodeId p, ckt::NodeId n) const {
  auto v = [](const num::RealVector& xs, ckt::NodeId nd) {
    return nd == ckt::kGround ? 0.0 : xs[static_cast<std::size_t>(nd - 1)];
  };
  std::vector<double> w(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) w[i] = v(x[i], p) - v(x[i], n);
  return w;
}

sig::HarmonicAnalysis PssResult::harmonics(const std::vector<double>& wave,
                                           int n_harmonics) const {
  return sig::measure_harmonics(wave, dt, f0_hz, n_harmonics);
}

PssResult run_pss_shooting(ckt::Netlist& nl, const PssOptions& opt) {
  PssResult res;
  const double f0 = opt.f0_hz > 0.0 ? opt.f0_hz : single_tone_hz(nl);
  res.f0_hz = f0;
  if (f0 <= 0.0) {
    res.diag.status = SolveStatus::kBadTopology;
    res.diag.stage = "pss";
    res.diag.detail =
        "no single periodic tone detected; set PssOptions::f0_hz";
    return res;
  }
  const double period = 1.0 / f0;
  int spp = opt.samples_per_period;
  if (spp <= 0)
    spp = sig::plan_coherent_capture(f0, opt.tran.dt).samples_per_period;
  const double dt = period / spp;
  res.dt = dt;

  TranOptions base = opt.tran;
  base.adaptive = false;  // the step hook rides the fixed-step loop
  base.dt = dt;
  base.record = false;
  base.record_after = 0.0;
  base.budget = opt.budget ? opt.budget : opt.tran.budget;
  base.initial_state = nullptr;
  base.first_step_backward_euler = false;
  base.step_hook = nullptr;

  PssTelemetry& tel = res.telemetry;

  // Warm start: either the caller's boundary state, or a short settle
  // prefix from the DC operating point to land inside Newton's basin.
  num::RealVector x0;
  if (opt.x_warm) {
    x0 = *opt.x_warm;
  } else {
    TranOptions pre = base;
    const double pp = opt.prefix_periods > 0.0 ? opt.prefix_periods : 1.0;
    pre.t_stop = pp * period;
    TranResult tr = run_transient(nl, pre);
    merge_tran(tel.tran, tr.telemetry);
    if (!tr.ok) {
      tel.periods_integrated += tr.t_checkpoint / period;
      return fail_from(res, std::move(tr), "pss_prefix");
    }
    tel.periods_integrated += pp;
    x0 = std::move(tr.x_final);
  }
  tel.unknowns = static_cast<int>(x0.size());

  PhiPropagator phi(dt);
  TranOptions shot = base;
  shot.t_stop = period;
  shot.record = true;
  shot.initial_state = &x0;
  shot.first_step_backward_euler = true;
  shot.step_hook = &phi;

  num::RealVector delta(x0.size());
  for (int iter = 0;; ++iter) {
    phi.begin_run();
    TranResult tr = run_transient(nl, shot);
    phi.end_run();
    merge_tran(tel.tran, tr.telemetry);
    tel.phi_solve_count = phi.solve_count();
    tel.phi_ns = phi.phi_ns();
    tel.dynamic_unknowns = phi.dynamic_unknowns();
    if (!tr.ok) {
      tel.periods_integrated += tr.t_checkpoint / period;
      // The best boundary state so far doubles as the restart handle
      // when the engine didn't get far enough to leave its own.
      if (tr.truncated && tr.x_checkpoint.empty()) tr.x_checkpoint = x0;
      return fail_from(res, std::move(tr), "pss_period");
    }
    tel.periods_integrated += 1.0;

    double resid = 0.0, xmax = 0.0;
    std::size_t worst = 0;
    for (std::size_t i = 0; i < x0.size(); ++i) {
      const double d = std::abs(tr.x_final[i] - x0[i]);
      if (d > resid) {
        resid = d;
        worst = i;
      }
      xmax = std::max(xmax, std::abs(tr.x_final[i]));
    }
    tel.residual = resid;
    tel.residual_history.push_back(resid);

    if (resid <= opt.ptol_abs + opt.ptol_rel * xmax) {
      res.ok = true;
      res.x0 = x0;
      // Drop the duplicate t = T endpoint: the remaining samples cover
      // exactly one period, coherently.
      const std::size_t keep = tr.time.size() - 1;
      res.time.assign(tr.time.begin(),
                      tr.time.begin() + static_cast<std::ptrdiff_t>(keep));
      res.x.assign(tr.x.begin(),
                   tr.x.begin() + static_cast<std::ptrdiff_t>(keep));
      return res;
    }
    if (iter >= opt.max_shooting) {
      res.diag.status = SolveStatus::kNonConvergence;
      res.diag.stage = "pss_shooting";
      res.diag.residual = resid;
      res.diag.iterations = iter;
      res.diag.unknown = unknown_label(nl, static_cast<int>(worst));
      std::ostringstream os;
      os << "periodicity residual " << resid << " after " << iter
         << " boundary update(s)";
      res.diag.detail = os.str();
      return res;
    }

    // Newton on the boundary map: (I - Phi_DD) dx_D = delta_D on the
    // dynamic unknowns, then dx = delta + Phi_D dx_D everywhere (Phi
    // columns outside D are structurally zero).  m = 0 degenerates to
    // plain fixed-point iteration x0 <- x(T).
    for (std::size_t i = 0; i < x0.size(); ++i)
      delta[i] = tr.x_final[i] - x0[i];
    const int m = phi.dynamic_unknowns();
    if (m > 0) {
      const auto& dyn = phi.dynamic_cols();
      num::RealMatrix bmat(static_cast<std::size_t>(m),
                           static_cast<std::size_t>(m));
      for (int i = 0; i < m; ++i)
        for (int j = 0; j < m; ++j)
          bmat(static_cast<std::size_t>(i), static_cast<std::size_t>(j)) =
              (i == j ? 1.0 : 0.0) -
              phi.column(static_cast<std::size_t>(j))
                  [static_cast<std::size_t>(dyn[static_cast<std::size_t>(i)])];
      num::RealLu blu;
      blu.factor(bmat);
      if (blu.singular()) {
        res.diag.status = SolveStatus::kSingularMatrix;
        res.diag.stage = "pss_boundary";
        res.diag.unknown = unknown_label(
            nl, dyn[static_cast<std::size_t>(blu.singular_col())]);
        res.diag.detail = "(I - Phi) boundary system singular";
        return res;
      }
      num::RealVector dd(static_cast<std::size_t>(m));
      for (int i = 0; i < m; ++i)
        dd[static_cast<std::size_t>(i)] =
            delta[static_cast<std::size_t>(dyn[static_cast<std::size_t>(i)])];
      num::RealVector sol(static_cast<std::size_t>(m));
      blu.solve(dd, sol);
      for (int j = 0; j < m; ++j) {
        const double a = sol[static_cast<std::size_t>(j)];
        if (a == 0.0) continue;
        const auto& col = phi.column(static_cast<std::size_t>(j));
        for (std::size_t i = 0; i < delta.size(); ++i)
          delta[i] += a * col[i];
      }
    }
    for (std::size_t i = 0; i < x0.size(); ++i) x0[i] += delta[i];
    tel.shooting_iterations = iter + 1;
  }
}

}  // namespace msim::an
