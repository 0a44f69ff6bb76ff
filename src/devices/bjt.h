// Bipolar junction transistor: Ebers-Moll with Early effect, full SPICE
// temperature dependence of I_S and beta, shot and flicker noise.
//
// The paper's bandgap and bias cells use CMOS-compatible *vertical* PNP
// devices (emitter = p+ diffusion, base = n-well, collector = substrate).
// Electrically those are ordinary low-beta PNPs, which this model covers;
// the temperature-true I_S(T) is what produces the CTAT V_BE slope
// (~ -2 mV/K) that the bandgap experiment depends on.
#pragma once

#include "circuit/device.h"

namespace msim::dev {

enum class BjtPolarity { kNpn, kPnp };

struct BjtParams {
  BjtPolarity polarity = BjtPolarity::kNpn;
  double is = 1e-16;    // saturation current [A]
  double beta_f = 100;  // forward beta
  double beta_r = 1.0;  // reverse beta
  double vaf = 60.0;    // forward Early voltage [V]
  double xti = 3.0;     // I_S temperature exponent
  double xtb = 1.5;     // beta temperature exponent
  double eg = 1.11;     // bandgap energy [eV]
  double kf = 1e-12;    // flicker coefficient on I_B [A^(2-af)]
  double af = 1.0;
  double tnom_k = 300.15;
  // Area multiplier (emitter area ratio m in bandgap cores).
  double area = 1.0;
};

struct BjtOp {
  double ic = 0.0, ib = 0.0;  // into collector / base terminals
  double gm = 0.0;            // d ic / d vbe
  double gpi = 0.0;           // d ib / d vbe
  double gmu = 0.0;           // d ib / d vbc
  double go = 0.0;            // -d ic / d vbc (output conductance)
  double vbe = 0.0;
};

class Bjt : public ckt::Device {
 public:
  Bjt(std::string name, ckt::NodeId c, ckt::NodeId b, ckt::NodeId e,
      BjtParams params);

  std::string_view type() const override { return "bjt"; }

  const BjtParams& params() const { return p_; }
  const BjtOp& op() const { return op_; }

  void stamp(ckt::StampContext& ctx) const final;
  // Stamps a run of devices that are all of this concrete class
  // (one devirtualized loop; see RealSystem batched assembly).
  static void stamp_batch(const ckt::Device* const* devs,
                          std::size_t n, ckt::StampContext& ctx);
  // Interval transfer: collector-current bounds from corner evaluation
  // (Ebers-Moll is monotone up in vbe, down in vbc) and a dead verdict
  // when both junctions are provably reverse-biased.
  void range_eval(ckt::RangeContext& ctx) const override;
  void save_op(const num::RealVector& x, double temp_k) override;
  void stamp_ac(ckt::AcStampContext& ctx) const override;
  bool is_nonlinear() const override { return true; }
  void append_noise_sources(std::vector<ckt::NoiseSource>& out,
                            double temp_k) const override;
  void set_temperature(double temp_k) override;

 private:
  struct Eval {
    double ic, ib;                // canonical-frame terminal currents
    double dic_dvbe, dic_dvbc;
    double dib_dvbe, dib_dvbc;
  };
  Eval evaluate_canonical(double vbe, double vbc) const;

  BjtParams p_;
  double temp_k_ = 300.15;
  double is_eff_, beta_f_eff_, beta_r_eff_;
  // Previous canonical junction voltages for SPICE pnjlim limiting.
  mutable double vbe_prev_ = 0.6, vbc_prev_ = -1.0;
  BjtOp op_;
};

}  // namespace msim::dev
