// Independent voltage and current sources.
//
// Positive source current follows the SPICE convention: it flows from the
// `p` terminal through the source to the `n` terminal.  A voltage source
// contributes one branch-current unknown; x[branch_base()] after a solve
// is the current entering the source at `p` (so a supply sourcing current
// into the circuit reads a negative value, as in SPICE).
#pragma once

#include "circuit/device.h"
#include "devices/waveform.h"

namespace msim::dev {

class VSource : public ckt::Device {
 public:
  VSource(std::string name, ckt::NodeId p, ckt::NodeId n, Waveform w);
  VSource(std::string name, ckt::NodeId p, ckt::NodeId n, double dc_volts);

  std::string_view type() const override { return "vsource"; }
  int branch_count() const override { return 1; }

  const Waveform& waveform() const { return wave_; }
  void set_waveform(Waveform w) { wave_ = std::move(w); }

  // Branch current from the solution vector of any real analysis.
  double current(const num::RealVector& x) const { return x[branch_base_]; }

  void stamp(ckt::StampContext& ctx) const final;
  // Stamps a run of devices that are all of this concrete class
  // (one devirtualized loop; see RealSystem batched assembly).
  static void stamp_batch(const ckt::Device* const* devs,
                          std::size_t n, ckt::StampContext& ctx);
  // Interval transfer: v(p) = v(n) + waveform hull, propagated both
  // directions (this is what seeds exact supply intervals).
  void range_eval(ckt::RangeContext& ctx) const override;
  void stamp_ac(ckt::AcStampContext& ctx) const override;
  std::vector<std::pair<std::string, double>> param_values() const override {
    return {{"dc", wave_.dc_value()}, {"ac_mag", wave_.ac_mag()}};
  }

 private:
  Waveform wave_;
};

class ISource : public ckt::Device {
 public:
  ISource(std::string name, ckt::NodeId p, ckt::NodeId n, Waveform w);
  ISource(std::string name, ckt::NodeId p, ckt::NodeId n, double dc_amps);

  std::string_view type() const override { return "isource"; }

  const Waveform& waveform() const { return wave_; }
  void set_waveform(Waveform w) { wave_ = std::move(w); }

  void stamp(ckt::StampContext& ctx) const final;
  // Stamps a run of devices that are all of this concrete class
  // (one devirtualized loop; see RealSystem batched assembly).
  static void stamp_batch(const ckt::Device* const* devs,
                          std::size_t n, ckt::StampContext& ctx);
  // Interval transfer: a known current injection (identically-zero
  // sources additionally qualify as zero-DC-current terminals).
  void range_eval(ckt::RangeContext& ctx) const override;
  void stamp_ac(ckt::AcStampContext& ctx) const override;
  std::vector<std::pair<std::string, double>> param_values() const override {
    return {{"dc", wave_.dc_value()}, {"ac_mag", wave_.ac_mag()}};
  }

 private:
  Waveform wave_;
};

}  // namespace msim::dev
