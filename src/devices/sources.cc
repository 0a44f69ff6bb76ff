#include "devices/sources.h"

#include <cmath>
#include <complex>

#include "circuit/range.h"

namespace msim::dev {
namespace {

// AC excitation phasor.  A negative magnitude is legal (an inverting
// drive, `ac -0.5`), which std::polar forbids (rho >= 0 is a checked
// precondition under _GLIBCXX_ASSERTIONS); this is the same formula
// without the precondition, so the value is bit-identical.
std::complex<double> ac_phasor(double mag, double phase) {
  return {mag * std::cos(phase), mag * std::sin(phase)};
}

}  // namespace

// ----------------------------------------------------------------- VSource

VSource::VSource(std::string name, ckt::NodeId p, ckt::NodeId n, Waveform w)
    : Device(std::move(name), {p, n}), wave_(std::move(w)) {}

VSource::VSource(std::string name, ckt::NodeId p, ckt::NodeId n,
                 double dc_volts)
    : VSource(std::move(name), p, n, Waveform::dc(dc_volts)) {}

void VSource::stamp(ckt::StampContext& ctx) const {
  const int ib = branch_base_;
  ctx.add_node_jac(nodes_[0], ib, 1.0);
  ctx.add_node_jac(nodes_[1], ib, -1.0);
  ctx.add_branch_jac(ib, nodes_[0], 1.0);
  ctx.add_branch_jac(ib, nodes_[1], -1.0);
  const double v = (ctx.mode() == ckt::AnalysisMode::kDcOp)
                       ? wave_.dc_value() * ctx.source_scale
                       : wave_.value(ctx.time);
  ctx.add_rhs(ib, v);
}

void VSource::stamp_ac(ckt::AcStampContext& ctx) const {
  const int ib = branch_base_;
  ctx.add_node_jac(nodes_[0], ib, {1.0, 0.0});
  ctx.add_node_jac(nodes_[1], ib, {-1.0, 0.0});
  ctx.add_branch_jac(ib, nodes_[0], {1.0, 0.0});
  ctx.add_branch_jac(ib, nodes_[1], {-1.0, 0.0});
  if (wave_.ac_mag() != 0.0) {
    ctx.add_rhs(ib, ac_phasor(wave_.ac_mag(), wave_.ac_phase()));
  }
}

// ----------------------------------------------------------------- ISource

ISource::ISource(std::string name, ckt::NodeId p, ckt::NodeId n, Waveform w)
    : Device(std::move(name), {p, n}), wave_(std::move(w)) {}

ISource::ISource(std::string name, ckt::NodeId p, ckt::NodeId n,
                 double dc_amps)
    : ISource(std::move(name), p, n, Waveform::dc(dc_amps)) {}

void ISource::stamp(ckt::StampContext& ctx) const {
  const double i = (ctx.mode() == ckt::AnalysisMode::kDcOp)
                       ? wave_.dc_value() * ctx.source_scale
                       : wave_.value(ctx.time);
  // Current i leaves node p and enters node n.
  ctx.add_current_into(nodes_[0], -i);
  ctx.add_current_into(nodes_[1], i);
}

void ISource::stamp_ac(ckt::AcStampContext& ctx) const {
  if (wave_.ac_mag() == 0.0) return;
  const std::complex<double> i = ac_phasor(wave_.ac_mag(), wave_.ac_phase());
  ctx.add_current_into(nodes_[0], -i);
  ctx.add_current_into(nodes_[1], i);
}


void VSource::stamp_batch(const ckt::Device* const* devs, std::size_t n,
                          ckt::StampContext& ctx) {
  // Every element of the run is a VSource (RealSystem segments by
  // concrete class), so the qualified call devirtualizes the loop.
  for (std::size_t i = 0; i < n; ++i)
    static_cast<const VSource*>(devs[i])->VSource::stamp(ctx);
}

void ISource::stamp_batch(const ckt::Device* const* devs, std::size_t n,
                          ckt::StampContext& ctx) {
  // Every element of the run is an ISource (RealSystem segments by
  // concrete class), so the qualified call devirtualizes the loop.
  for (std::size_t i = 0; i < n; ++i)
    static_cast<const ISource*>(devs[i])->ISource::stamp(ctx);
}


void VSource::range_eval(ckt::RangeContext& ctx) const {
  // v(p) - v(n) = V(t) at every time point, so the waveform hull
  // transfers bounds in both directions.  This is what seeds exact
  // supply intervals before any other narrowing can happen.
  const ckt::NodeId p = nodes_[0], n = nodes_[1];
  const num::Interval w = wave_.range();
  ctx.meet_v(p, ctx.v(n) + w);
  ctx.meet_v(n, ctx.v(p) - w);
}

void ISource::range_eval(ckt::RangeContext& ctx) const {
  const ckt::NodeId p = nodes_[0], n = nodes_[1];
  const num::Interval w = wave_.range();
  if (w.lo == 0.0 && w.hi == 0.0) {
    // An identically-zero source (probe / placeholder idiom) injects
    // nothing, so its terminals stay hull-rule eligible.
    ctx.declare_no_dc_current(this, p);
    ctx.declare_no_dc_current(this, n);
  }
  if (ctx.verdict_pass()) ctx.note_current(this, w);
}

}  // namespace msim::dev
