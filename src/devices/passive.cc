#include "devices/passive.h"

#include <cmath>

#include "circuit/range.h"

#include "numeric/units.h"

namespace msim::dev {

using ckt::kGround;

// ---------------------------------------------------------------- Resistor

Resistor::Resistor(std::string name, ckt::NodeId p, ckt::NodeId n,
                   double ohms)
    : Device(std::move(name), {p, n}), r_nom_(ohms), r_eff_(ohms) {}

void Resistor::set_resistance(double ohms) {
  r_nom_ = ohms;
  update();
}

void Resistor::set_tc(double tc1, double tc2) {
  tc1_ = tc1;
  tc2_ = tc2;
  update();
}

void Resistor::set_temperature(double temp_k) {
  temp_k_ = temp_k;
  update();
}

void Resistor::update() {
  const double dt = temp_k_ - tnom_k_;
  r_eff_ = r_nom_ * mismatch_ * (1.0 + tc1_ * dt + tc2_ * dt * dt);
}

void Resistor::stamp(ckt::StampContext& ctx) const {
  ctx.add_conductance(nodes_[0], nodes_[1], 1.0 / r_eff_);
}

void Resistor::stamp_ac(ckt::AcStampContext& ctx) const {
  ctx.add_admittance(nodes_[0], nodes_[1], 1.0 / r_eff_);
}

void Resistor::save_op(const num::RealVector& x, double /*temp_k*/) {
  auto v = [&](ckt::NodeId nd) {
    return nd == ckt::kGround ? 0.0 : x[nd - 1];
  };
  i_dc_ = (v(nodes_[0]) - v(nodes_[1])) / r_eff_;
}

void Resistor::append_noise_sources(std::vector<ckt::NoiseSource>& out,
                                    double temp_k) const {
  if (noiseless_) return;
  const double psd = 4.0 * num::kBoltzmann * temp_k / r_eff_;  // A^2/Hz
  out.push_back({name_ + ".thermal", nodes_[0], nodes_[1],
                 [psd](double) { return psd; }});
  if (kf_excess_ > 0.0 && i_dc_ != 0.0) {
    const double k = kf_excess_ * i_dc_ * i_dc_;
    out.push_back({name_ + ".excess", nodes_[0], nodes_[1],
                   [k](double f) { return k / f; }});
  }
}

// --------------------------------------------------------------- Capacitor

Capacitor::Capacitor(std::string name, ckt::NodeId p, ckt::NodeId n,
                     double farads)
    : Device(std::move(name), {p, n}), c_(farads) {}

double Capacitor::branch_voltage(const num::RealVector& x) const {
  auto v = [&](ckt::NodeId nd) { return nd == kGround ? 0.0 : x[nd - 1]; };
  return v(nodes_[0]) - v(nodes_[1]);
}

void Capacitor::stamp(ckt::StampContext& ctx) const {
  if (ctx.mode() == ckt::AnalysisMode::kDcOp) return;  // open in DC
  // Companion model: i = geq * v - ieq, current flowing p -> n.
  double geq, ieq;
  if (ctx.use_trapezoidal) {
    geq = 2.0 * c_ / ctx.dt;
    ieq = geq * v_prev_ + i_prev_;
  } else {  // backward Euler
    geq = c_ / ctx.dt;
    ieq = geq * v_prev_;
  }
  ctx.add_conductance(nodes_[0], nodes_[1], geq);
  ctx.add_current_into(nodes_[0], ieq);
  ctx.add_current_into(nodes_[1], -ieq);
}

void Capacitor::stamp_ac(ckt::AcStampContext& ctx) const {
  ctx.add_admittance(nodes_[0], nodes_[1], {0.0, ctx.omega() * c_});
}

void Capacitor::begin_transient(const num::RealVector& x_op) {
  v_prev_ = branch_voltage(x_op);
  i_prev_ = 0.0;
}

void Capacitor::accept_step(const num::RealVector& x, double dt,
                            bool trapezoidal) {
  const double v_new = branch_voltage(x);
  // History update consistent with the stamp that produced `x`: the
  // trapezoidal identity recovers i from the companion ieq; a backward-
  // Euler step defines i = (C/dt) * dv directly (and never reads
  // i_prev_, so a BE step among trapezoidal ones re-anchors the current
  // history instead of propagating it -- the PSS period map relies on
  // this to be a pure function of the starting state).
  const double i_new = trapezoidal
                           ? (2.0 * c_ / dt) * (v_new - v_prev_) - i_prev_
                           : (c_ / dt) * (v_new - v_prev_);
  v_prev_ = v_new;
  i_prev_ = i_new;
}

// ---------------------------------------------------------------- Inductor

Inductor::Inductor(std::string name, ckt::NodeId p, ckt::NodeId n,
                   double henries)
    : Device(std::move(name), {p, n}), l_(henries) {}

void Inductor::stamp(ckt::StampContext& ctx) const {
  const int ib = branch_base_;
  // KCL coupling: branch current flows p -> n.
  ctx.add_node_jac(nodes_[0], ib, 1.0);
  ctx.add_node_jac(nodes_[1], ib, -1.0);
  // Branch equation row.
  ctx.add_branch_jac(ib, nodes_[0], 1.0);
  ctx.add_branch_jac(ib, nodes_[1], -1.0);
  if (ctx.mode() == ckt::AnalysisMode::kDcOp) {
    // v_p - v_n = 0 (ideal short).
    return;
  }
  // Trapezoidal companion: v - (2L/dt) i = -(v_prev + (2L/dt) i_prev).
  // Trapezoidal: v - req*i = -(req*i_prev + v_prev) with req = 2L/dt.
  // Backward Euler: v - req*i = -req*i_prev with req = L/dt.
  const double req = ctx.use_trapezoidal ? 2.0 * l_ / ctx.dt : l_ / ctx.dt;
  ctx.add_jac(ib, ib, -req);
  if (ctx.use_trapezoidal)
    ctx.add_rhs(ib, -(req * i_prev_ + v_prev_));
  else
    ctx.add_rhs(ib, -req * i_prev_);
}

void Inductor::stamp_ac(ckt::AcStampContext& ctx) const {
  const int ib = branch_base_;
  ctx.add_node_jac(nodes_[0], ib, {1.0, 0.0});
  ctx.add_node_jac(nodes_[1], ib, {-1.0, 0.0});
  ctx.add_branch_jac(ib, nodes_[0], {1.0, 0.0});
  ctx.add_branch_jac(ib, nodes_[1], {-1.0, 0.0});
  ctx.add_jac(ib, ib, {0.0, -ctx.omega() * l_});
}

void Inductor::begin_transient(const num::RealVector& x_op) {
  i_prev_ = branch_base_ >= 0 ? x_op[branch_base_] : 0.0;
  v_prev_ = 0.0;
}

void Inductor::accept_step(const num::RealVector& x, double dt,
                           bool trapezoidal) {
  auto v = [&](ckt::NodeId nd) { return nd == kGround ? 0.0 : x[nd - 1]; };
  i_prev_ = x[branch_base_];
  v_prev_ = v(nodes_[0]) - v(nodes_[1]);
  (void)dt;
  (void)trapezoidal;  // plain state sampling, integrator-agnostic
}


void Resistor::stamp_batch(const ckt::Device* const* devs, std::size_t n,
                           ckt::StampContext& ctx) {
  // Every element of the run is a Resistor (RealSystem segments by
  // concrete class), so the qualified call devirtualizes the loop.
  for (std::size_t i = 0; i < n; ++i)
    static_cast<const Resistor*>(devs[i])->Resistor::stamp(ctx);
}

void Capacitor::stamp_batch(const ckt::Device* const* devs, std::size_t n,
                            ckt::StampContext& ctx) {
  // Every element of the run is a Capacitor (RealSystem segments by
  // concrete class), so the qualified call devirtualizes the loop.
  for (std::size_t i = 0; i < n; ++i)
    static_cast<const Capacitor*>(devs[i])->Capacitor::stamp(ctx);
}

void Inductor::stamp_batch(const ckt::Device* const* devs, std::size_t n,
                           ckt::StampContext& ctx) {
  // Every element of the run is an Inductor (RealSystem segments by
  // concrete class), so the qualified call devirtualizes the loop.
  for (std::size_t i = 0; i < n; ++i)
    static_cast<const Inductor*>(devs[i])->Inductor::stamp(ctx);
}


void Resistor::range_eval(ckt::RangeContext& ctx) const {
  const ckt::NodeId p = nodes_[0], n = nodes_[1];
  ctx.declare_branch(this, p, n);
  if (ctx.verdict_pass() && r_eff_ > 0.0) {
    const num::Interval dv = ctx.v(p) - ctx.v(n);
    if (dv.bounded()) ctx.note_current(this, num::scale(dv, 1.0 / r_eff_));
  }
}

void Capacitor::range_eval(ckt::RangeContext& ctx) const {
  // Open in the DC abstraction: neither plate sinks DC current.
  ctx.declare_no_dc_current(this, nodes_[0]);
  ctx.declare_no_dc_current(this, nodes_[1]);
}

void Inductor::range_eval(ckt::RangeContext& ctx) const {
  // DC short: both terminals share one potential, and the winding
  // conducts (hull-rule edge).
  const ckt::NodeId p = nodes_[0], n = nodes_[1];
  ctx.declare_branch(this, p, n);
  ctx.meet_v(p, ctx.v(n));
  ctx.meet_v(n, ctx.v(p));
}

}  // namespace msim::dev
