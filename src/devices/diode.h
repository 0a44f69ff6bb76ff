// Junction diode with SPICE temperature dependence, shot and flicker
// noise.  Used in tests and as a compact stand-in for diode-connected
// junctions.
#pragma once

#include "circuit/device.h"

namespace msim::dev {

struct DiodeParams {
  double is = 1e-15;   // saturation current [A]
  double n = 1.0;      // emission coefficient
  double xti = 3.0;
  double eg = 1.11;    // [eV]
  double kf = 0.0;     // flicker coefficient on I_D
  double af = 1.0;
  double tnom_k = 300.15;
  double area = 1.0;
};

class Diode : public ckt::Device {
 public:
  Diode(std::string name, ckt::NodeId anode, ckt::NodeId cathode,
        DiodeParams params);

  std::string_view type() const override { return "diode"; }

  double current() const { return id_op_; }

  void stamp(ckt::StampContext& ctx) const final;
  // Stamps a run of devices that are all of this concrete class
  // (one devirtualized loop; see RealSystem batched assembly).
  static void stamp_batch(const ckt::Device* const* devs,
                          std::size_t n, ckt::StampContext& ctx);
  // Interval transfer: monotone junction I(V) bounds via limited_exp,
  // plus the never-forward-biased dead verdict.
  void range_eval(ckt::RangeContext& ctx) const override;
  void save_op(const num::RealVector& x, double temp_k) override;
  void stamp_ac(ckt::AcStampContext& ctx) const override;
  bool is_nonlinear() const override { return true; }
  void append_noise_sources(std::vector<ckt::NoiseSource>& out,
                            double temp_k) const override;
  void set_temperature(double temp_k) override;

 private:
  DiodeParams p_;
  double temp_k_ = 300.15;
  double is_eff_;
  mutable double v_prev_ = 0.6;
  double id_op_ = 0.0, gd_op_ = 0.0;
};

}  // namespace msim::dev
