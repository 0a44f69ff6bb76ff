// Reference engines for the production MNA assembly and solvers.
//
// Production runs one engine: an::RealSystem / an::ComplexSystem over a
// sparse LU, with slot-replayed, batched stamping and the G + jwC
// small-signal split.  The references here take the plainest route to
// the same numbers -- dense LU, per-device virtual stamping, binary-
// searched sparse writes -- and share none of the engine's caches, so
// the engine tests have something independent to agree with.
// Header-only; nothing outside tests/ uses it.
#pragma once

#include <algorithm>
#include <cmath>
#include <complex>
#include <limits>
#include <vector>

#include "analysis/mna.h"
#include "analysis/noise.h"
#include "circuit/netlist.h"
#include "numeric/lu.h"
#include "numeric/matrix.h"
#include "numeric/sparse.h"

namespace msim::oracle {

// Searched sparse assembly of the Newton system: every write binary-
// searches its CSR row (no stamp slots, no batched loops).  Stamps in
// RealSystem's order -- linear devices, the gshunt diagonal, then the
// nonlinear devices -- so on identical device state its image is bit-
// identical to RealSystem::assemble's.  `jac` must be built from
// an::mna_pattern(nl).
inline void assemble_real_searched(const ckt::Netlist& nl,
                                   const num::RealVector& x,
                                   const an::AssembleParams& p,
                                   num::RealSparseMatrix& jac,
                                   num::RealVector& rhs) {
  jac.clear_values();
  rhs.assign(static_cast<std::size_t>(nl.unknown_count()), 0.0);
  ckt::StampContext ctx(p.mode, x, jac, rhs);
  ctx.time = p.time;
  ctx.dt = p.dt;
  ctx.temp_k = p.temp_k;
  ctx.gmin = p.gmin;
  ctx.use_trapezoidal = p.use_trapezoidal;
  ctx.source_scale = p.source_scale;
  for (const auto& d : nl.devices())
    if (!d->is_nonlinear()) d->stamp(ctx);
  const int nodes = nl.node_count() - 1;
  for (int i = 0; i < nodes; ++i) jac.add(i, i, p.gshunt);
  for (const auto& d : nl.devices())
    if (d->is_nonlinear()) d->stamp(ctx);
}

// Dense complex small-signal system at angular frequency omega, by a
// direct stamp_ac pass over every device plus the gshunt diagonal.
// Devices must have a saved operating point (save_op()).
inline void assemble_ac(const ckt::Netlist& nl, double omega, double gshunt,
                        num::ComplexMatrix& jac, num::ComplexVector& rhs) {
  const std::size_t n = static_cast<std::size_t>(nl.unknown_count());
  jac.resize(n, n);  // zero-fills
  rhs.assign(n, {0.0, 0.0});
  ckt::AcStampContext ctx(omega, jac, rhs);
  for (const auto& d : nl.devices()) d->stamp_ac(ctx);
  const int nodes = nl.node_count() - 1;
  for (int i = 0; i < nodes; ++i) jac(i, i) += gshunt;
}

// Dense-LU Newton fixed-point check: assembles the dense Newton system
// linearized at `x`, solves it, and returns max_i |x_next[i] - x[i]|.
// A converged operating point is a fixed point (the step sits at
// rounding level); +inf when the dense matrix is singular, NaN when the
// step is not finite.
inline double dense_newton_step(const ckt::Netlist& nl,
                                const num::RealVector& x,
                                const an::AssembleParams& p = {}) {
  num::RealMatrix jac;
  num::RealVector rhs;
  an::assemble_real(nl, x, p, jac, rhs);
  const num::RealLu lu(jac);
  if (lu.singular()) return std::numeric_limits<double>::infinity();
  num::RealVector next;
  lu.solve(rhs, next);
  double step = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double d = std::abs(next[i] - x[i]);
    if (!std::isfinite(d)) return std::numeric_limits<double>::quiet_NaN();
    step = std::max(step, d);
  }
  return step;
}

// Dense AC solution at `freq_hz` (empty when the matrix is singular).
inline num::ComplexVector dense_ac_solve(const ckt::Netlist& nl,
                                         double freq_hz,
                                         double gshunt = 1e-12) {
  num::ComplexMatrix a;
  num::ComplexVector rhs, x;
  assemble_ac(nl, 2.0 * M_PI * freq_hz, gshunt, a, rhs);
  const num::ComplexLu lu(a);
  if (!lu.singular()) lu.solve(rhs, x);
  return x;
}

// Dense adjoint noise point at `freq_hz`: the forward solve gives the
// gain |v(out_p) - v(out_n)| (when `input_referred`), the adjoint solve
// A^T y = e_out gives every source's transfer, and the output PSD sums
// |y(p) - y(n)|^2 * psd(f) over append_noise_sources -- the textbook
// route to one of an::run_noise's points.
inline an::NoisePoint dense_noise_point(const ckt::Netlist& nl,
                                        double freq_hz, ckt::NodeId out_p,
                                        ckt::NodeId out_n,
                                        bool input_referred,
                                        double temp_k = 300.15,
                                        double gshunt = 1e-12) {
  const std::size_t n = static_cast<std::size_t>(nl.unknown_count());
  num::ComplexMatrix a;
  num::ComplexVector rhs;
  assemble_ac(nl, 2.0 * M_PI * freq_hz, gshunt, a, rhs);
  const num::ComplexLu lu(a);
  an::NoisePoint pt;
  pt.freq_hz = freq_hz;
  if (lu.singular()) return pt;
  const auto at = [](const num::ComplexVector& v, ckt::NodeId nd) {
    return nd == ckt::kGround ? std::complex<double>{} : v[nd - 1];
  };
  if (input_referred) {
    num::ComplexVector x;
    lu.solve(rhs, x);
    pt.gain_mag = std::abs(at(x, out_p) - at(x, out_n));
  }
  num::ComplexVector e(n, {0.0, 0.0}), y;
  if (out_p != ckt::kGround) e[out_p - 1] += 1.0;
  if (out_n != ckt::kGround) e[out_n - 1] -= 1.0;
  lu.solve_transpose(e, y);
  std::vector<ckt::NoiseSource> sources;
  for (const auto& d : nl.devices()) d->append_noise_sources(sources, temp_k);
  for (const auto& src : sources)
    pt.s_out += std::norm(at(y, src.p) - at(y, src.n)) * src.psd(freq_hz);
  if (pt.gain_mag > 0.0) pt.s_in = pt.s_out / (pt.gain_mag * pt.gain_mag);
  return pt;
}

}  // namespace msim::oracle
