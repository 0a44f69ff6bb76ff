// Linear passive elements: resistor (with thermal noise and temperature
// coefficients), capacitor and inductor (trapezoidal / backward-Euler
// companion models for transient).
#pragma once

#include "circuit/device.h"

namespace msim::dev {

class Resistor : public ckt::Device {
 public:
  Resistor(std::string name, ckt::NodeId p, ckt::NodeId n, double ohms);

  std::string_view type() const override { return "resistor"; }

  double resistance() const { return r_eff_; }
  double nominal_resistance() const { return r_nom_; }
  void set_resistance(double ohms);  // sets the nominal value
  // Linear and quadratic temperature coefficients (1/K, 1/K^2).
  void set_tc(double tc1, double tc2 = 0.0);
  // Scales the nominal value (used by Monte-Carlo mismatch sampling).
  void apply_relative_error(double rel) { mismatch_ = 1.0 + rel; update(); }
  // Disables the 4kT/R noise source (for ideal test fixtures).
  void set_noiseless(bool v) { noiseless_ = v; }
  // Excess (1/f) noise of real resistors: S_i = kf * Idc^2 / f.  Poly
  // resistors exhibit this under DC bias; zero (default) disables it.
  void set_excess_noise_kf(double kf) { kf_excess_ = kf; }

  void stamp(ckt::StampContext& ctx) const final;
  // Stamps a run of devices that are all of this concrete class
  // (one devirtualized loop; see RealSystem batched assembly).
  static void stamp_batch(const ckt::Device* const* devs,
                          std::size_t n, ckt::StampContext& ctx);
  // Interval transfer: conductive branch (hull-rule edge) plus Ohm's-law
  // branch-current bounds on the verdict pass.
  void range_eval(ckt::RangeContext& ctx) const override;
  void stamp_ac(ckt::AcStampContext& ctx) const override;
  void save_op(const num::RealVector& x, double temp_k) override;
  void append_noise_sources(std::vector<ckt::NoiseSource>& out,
                            double temp_k) const override;
  void set_temperature(double temp_k) override;
  std::vector<std::pair<std::string, double>> param_values() const override {
    return {{"resistance", r_nom_}};
  }

 private:
  void update();

  double r_nom_;
  double tc1_ = 0.0, tc2_ = 0.0;
  double temp_k_ = 300.15, tnom_k_ = 300.15;
  double mismatch_ = 1.0;
  double r_eff_;
  bool noiseless_ = false;
  double kf_excess_ = 0.0;
  double i_dc_ = 0.0;  // saved operating-point current
};

class Capacitor : public ckt::Device {
 public:
  Capacitor(std::string name, ckt::NodeId p, ckt::NodeId n, double farads);

  std::string_view type() const override { return "capacitor"; }

  double capacitance() const { return c_; }
  void set_capacitance(double f) { c_ = f; }

  void stamp(ckt::StampContext& ctx) const final;
  // Stamps a run of devices that are all of this concrete class
  // (one devirtualized loop; see RealSystem batched assembly).
  static void stamp_batch(const ckt::Device* const* devs,
                          std::size_t n, ckt::StampContext& ctx);
  // Interval transfer: open in the DC abstraction (no DC current at
  // either plate).
  void range_eval(ckt::RangeContext& ctx) const override;
  void stamp_ac(ckt::AcStampContext& ctx) const override;
  void begin_transient(const num::RealVector& x_op) override;
  void accept_step(const num::RealVector& x, double dt,
                   bool trapezoidal) override;
  std::vector<std::pair<std::string, double>> param_values() const override {
    return {{"capacitance", c_}};
  }

 private:
  double branch_voltage(const num::RealVector& x) const;

  double c_;
  double v_prev_ = 0.0;  // accepted voltage across the cap
  double i_prev_ = 0.0;  // accepted current through the cap
};

class Inductor : public ckt::Device {
 public:
  Inductor(std::string name, ckt::NodeId p, ckt::NodeId n, double henries);

  std::string_view type() const override { return "inductor"; }
  int branch_count() const override { return 1; }

  double inductance() const { return l_; }

  void stamp(ckt::StampContext& ctx) const final;
  // Stamps a run of devices that are all of this concrete class
  // (one devirtualized loop; see RealSystem batched assembly).
  static void stamp_batch(const ckt::Device* const* devs,
                          std::size_t n, ckt::StampContext& ctx);
  // Interval transfer: DC short (terminal voltages equal) and a
  // conductive hull-rule edge.
  void range_eval(ckt::RangeContext& ctx) const override;
  void stamp_ac(ckt::AcStampContext& ctx) const override;
  void begin_transient(const num::RealVector& x_op) override;
  void accept_step(const num::RealVector& x, double dt,
                   bool trapezoidal) override;
  std::vector<std::pair<std::string, double>> param_values() const override {
    return {{"inductance", l_}};
  }

 private:
  double l_;
  double i_prev_ = 0.0;
  double v_prev_ = 0.0;
};

}  // namespace msim::dev
