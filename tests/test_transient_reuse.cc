// Transient factorization-reuse tests: modified Newton vs. full Newton
// on the class-AB buffer, the linear fast path's one-factorization
// contract, the determinism of run_transient_sweep across thread
// counts, and the structure-shared Monte-Carlo sweep (cache adopted and
// OP seeded from case 0).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/transient.h"
#include "bench_util.h"
#include "circuit/netlist.h"
#include "core/mic_amp.h"
#include "devices/passive.h"
#include "devices/sources.h"
#include "numeric/rng.h"
#include "process/process.h"

namespace {

using namespace msim;

// Modified Newton only preconditions the update with a stale
// factorization -- the residual is always freshly assembled -- so the
// converged waveform must match full Newton to solver tolerance, while
// factoring far less often.
TEST(TransientReuse, ModifiedNewtonMatchesFullNewtonOnClassAbBuffer) {
  const double vp = 0.3, f0 = 1e3;

  auto full = bench::make_drv_rig();
  full->vsp->set_waveform(dev::Waveform::sine(0.0, vp, f0));
  full->vsn->set_waveform(dev::Waveform::sine(0.0, -vp, f0));
  an::TranOptions t;
  t.t_stop = 1e-3;
  t.dt = 2e-6;
  t.reuse_factorization = false;
  const auto rf = an::run_transient(full->nl, t);
  ASSERT_TRUE(rf.ok);
  const auto wf = rf.diff_wave(full->drv.outp, full->drv.outn);

  auto mod = bench::make_drv_rig();
  mod->vsp->set_waveform(dev::Waveform::sine(0.0, vp, f0));
  mod->vsn->set_waveform(dev::Waveform::sine(0.0, -vp, f0));
  t.reuse_factorization = true;
  const auto rm = an::run_transient(mod->nl, t);
  ASSERT_TRUE(rm.ok);
  const auto wm = rm.diff_wave(mod->drv.outp, mod->drv.outn);

  ASSERT_EQ(wf.size(), wm.size());
  for (std::size_t i = 0; i < wf.size(); ++i)
    EXPECT_NEAR(wm[i], wf[i], 1e-5) << "t = " << rm.time[i];

  // The policy must actually reuse: fewer factorizations than Newton
  // iterations, and a non-trivial reuse count.
  EXPECT_GT(rm.telemetry.reuse_count, 0);
  EXPECT_LT(rm.telemetry.factor_count, rm.telemetry.newton_iterations);
  // Full Newton factors on every iteration and reuses never.
  EXPECT_EQ(rf.telemetry.reuse_count, 0);
  EXPECT_EQ(rf.telemetry.factor_count, rf.telemetry.newton_iterations);
  // The JSON view must mention both counters.
  const auto js = rm.telemetry.reuse_stats_json();
  EXPECT_NE(js.find("\"factor_count\""), std::string::npos);
  EXPECT_NE(js.find("\"reuse_count\""), std::string::npos);
}

// A purely linear circuit at constant dt needs exactly one numeric
// factorization for the whole run; every step after the first is an
// RHS restamp plus a back-substitution.
TEST(TransientReuse, LinearFastPathFactorsExactlyOnce) {
  auto build = [](ckt::Netlist& nl) {
    const auto in = nl.node("in");
    const auto out = nl.node("out");
    nl.add<dev::VSource>("V1", in, ckt::kGround,
                         dev::Waveform::sine(0.0, 1.0, 1e3));
    nl.add<dev::Resistor>("R1", in, out, 1e3);
    nl.add<dev::Capacitor>("C1", out, ckt::kGround, 100e-9);
    return out;
  };

  ckt::Netlist nl;
  const auto out = build(nl);
  an::TranOptions t;
  t.t_stop = 2e-3;
  t.dt = 1e-6;
  const auto r = an::run_transient(nl, t);
  ASSERT_TRUE(r.ok);
  EXPECT_TRUE(r.telemetry.linear_fast_path_used);
  // One factorization for the transient loop (the initial OP solve
  // keeps its own counter inside OpResult, not here).
  EXPECT_EQ(r.telemetry.factor_count, 1);
  EXPECT_EQ(r.telemetry.reuse_count, r.telemetry.accepted_steps - 1);

  // The fast path must agree with the general Newton path exactly to
  // solver tolerance on the same circuit.
  ckt::Netlist nl2;
  const auto out2 = build(nl2);
  an::TranOptions t2 = t;
  t2.linear_fast_path = false;
  t2.reuse_factorization = false;
  const auto r2 = an::run_transient(nl2, t2);
  ASSERT_TRUE(r2.ok);
  EXPECT_FALSE(r2.telemetry.linear_fast_path_used);
  const auto w = r.node_wave(out);
  const auto w2 = r2.node_wave(out2);
  ASSERT_EQ(w.size(), w2.size());
  for (std::size_t i = 0; i < w.size(); ++i)
    EXPECT_NEAR(w[i], w2[i], 1e-9) << "t = " << r.time[i];
}

// Sweep determinism contract: case i depends only on i, so the batched
// executor must return bit-identical waveforms at any thread count and
// chunk size.
TEST(TransientReuse, SweepBitIdenticalAcrossThreadCounts) {
  constexpr std::size_t kCases = 6;
  auto configure = [](std::size_t i, ckt::Netlist& nl,
                      an::TranOptions& t) {
    const auto in = nl.node("in");
    const auto out = nl.node("out");
    nl.add<dev::VSource>(
        "V1", in, ckt::kGround,
        dev::Waveform::sine(0.0, 0.25 * static_cast<double>(i + 1), 1e3));
    nl.add<dev::Resistor>("R1", in, out,
                          1e3 * static_cast<double>(i + 1));
    nl.add<dev::Capacitor>("C1", out, ckt::kGround, 100e-9);
    t.t_stop = 1e-3;
    t.dt = 2e-6;
  };

  an::TranSweepOptions serial;
  serial.threads = 1;
  const auto base = an::run_transient_sweep(kCases, configure, serial);
  ASSERT_EQ(base.size(), kCases);
  for (const auto& r : base) ASSERT_TRUE(r.ok);

  for (int threads : {2, 8}) {
    an::TranSweepOptions par;
    par.threads = threads;
    par.chunk = 1;  // force per-case scheduling across workers
    const auto got = an::run_transient_sweep(kCases, configure, par);
    ASSERT_EQ(got.size(), kCases);
    for (std::size_t i = 0; i < kCases; ++i) {
      ASSERT_TRUE(got[i].ok) << "threads=" << threads << " case " << i;
      ASSERT_EQ(got[i].time.size(), base[i].time.size());
      ASSERT_EQ(got[i].x.size(), base[i].x.size());
      for (std::size_t k = 0; k < base[i].x.size(); ++k)
        for (std::size_t u = 0; u < base[i].x[k].size(); ++u)
          EXPECT_EQ(got[i].x[k][u], base[i].x[k][u])
              << "threads=" << threads << " case " << i << " step " << k;
    }
  }
}

// Mic-amp tone rig, Monte-Carlo style: sample i perturbs both resistor
// strings with the process mismatch sigma from a per-sample RNG stream
// pre-derived from the index (configure must depend only on i).
an::TranOptions mic_tran_options() {
  an::TranOptions t;
  t.t_stop = 0.2e-3;
  t.dt = 2e-6;
  return t;
}

void configure_mic_sample(std::size_t i, ckt::Netlist& nl,
                          an::TranOptions& t) {
  const auto pm = proc::ProcessModel::cmos12();
  const auto nvdd = nl.node("vdd");
  const auto nvss = nl.node("vss");
  const auto inp = nl.node("inp");
  const auto inn = nl.node("inn");
  nl.add<dev::VSource>("Vdd", nvdd, ckt::kGround, 1.3);
  nl.add<dev::VSource>("Vss", nvss, ckt::kGround, -1.3);
  nl.add<dev::VSource>("Vinp", inp, ckt::kGround,
                       dev::Waveform::sine(0.0, 1e-3, 1e3));
  nl.add<dev::VSource>("Vinn", inn, ckt::kGround,
                       dev::Waveform::sine(0.0, -1e-3, 1e3));
  auto mic = core::build_mic_amp(nl, pm, {}, nvdd, nvss, ckt::kGround,
                                 inp, inn);
  num::Rng srng(1000 + 17 * static_cast<std::uint64_t>(i));
  for (auto* seg : mic.string_segments_p)
    seg->apply_relative_error(pm.sample_resistor_mismatch(srng));
  for (auto* seg : mic.string_segments_n)
    seg->apply_relative_error(pm.sample_resistor_mismatch(srng));
  mic.set_gain_code(5);
  t = mic_tran_options();
}

void expect_bit_identical(const an::TranResult& a, const an::TranResult& b,
                          const std::string& what) {
  ASSERT_EQ(a.ok, b.ok) << what;
  ASSERT_EQ(a.time.size(), b.time.size()) << what;
  ASSERT_EQ(a.x.size(), b.x.size()) << what;
  for (std::size_t k = 0; k < a.x.size(); ++k) {
    EXPECT_EQ(a.time[k], b.time[k]) << what << " step " << k;
    ASSERT_EQ(a.x[k].size(), b.x[k].size());
    for (std::size_t u = 0; u < a.x[k].size(); ++u)
      EXPECT_EQ(a.x[k][u], b.x[k][u])
          << what << " step " << k << " unknown " << u;
  }
}

// The sweep-level structural-sharing hoist: share_structure must keep
// the thread-determinism contract and agree with the unshared sweep to
// solver tolerance (the shared pivot order was chosen on case 0).
TEST(TransientReuse, SweepShareStructureMatchesUnshared) {
  constexpr std::size_t kCases = 4;
  an::TranSweepOptions plain;
  plain.threads = 1;
  const auto base =
      an::run_transient_sweep(kCases, configure_mic_sample, plain);

  an::TranSweepOptions shared;
  shared.threads = 1;
  shared.share_structure = true;
  const auto got =
      an::run_transient_sweep(kCases, configure_mic_sample, shared);
  ASSERT_EQ(got.size(), kCases);
  for (std::size_t i = 0; i < kCases; ++i) {
    ASSERT_TRUE(base[i].ok);
    ASSERT_TRUE(got[i].ok) << got[i].diag.message();
    ASSERT_EQ(got[i].x.size(), base[i].x.size());
    for (std::size_t k = 0; k < base[i].x.size(); ++k)
      for (std::size_t u = 0; u < base[i].x[k].size(); ++u)
        EXPECT_NEAR(got[i].x[k][u], base[i].x[k][u], 1e-6)
            << "case " << i << " step " << k;
  }

  // Determinism across thread counts with sharing on.
  an::TranSweepOptions shared8 = shared;
  shared8.threads = 8;
  shared8.chunk = 1;
  const auto got8 =
      an::run_transient_sweep(kCases, configure_mic_sample, shared8);
  for (std::size_t i = 0; i < kCases; ++i)
    expect_bit_identical(got8[i], got[i],
                         "shared sweep case " + std::to_string(i));
}

// Full-chip Monte-Carlo transient sample: every resistor takes the
// process mismatch from a per-sample RNG stream pre-derived from the
// index, with a 1 mV differential tone at the microphone inputs.
void configure_chip_sample(std::size_t i, ckt::Netlist& nl,
                           an::TranOptions& t) {
  const auto pm = proc::ProcessModel::cmos12();
  auto parts = bench::build_chip_into(nl);
  num::Rng srng(2000 + 31 * static_cast<std::uint64_t>(i));
  for (const auto& d : nl.devices())
    if (auto* res = dynamic_cast<dev::Resistor*>(d.get()))
      res->apply_relative_error(pm.sample_resistor_mismatch(srng));
  parts.vinp->set_waveform(dev::Waveform::sine(0.0, 1e-3, 1e3));
  parts.vinn->set_waveform(dev::Waveform::sine(0.0, -1e-3, 1e3));
  t.t_stop = 0.1e-3;
  t.dt = 2e-6;
}

// The shared sweep starts every later case's OP Newton from case 0's
// converged OP: a perturbed chip sample converges in a few iterations
// where case 0 (and every unshared case) climbs the full homotopy
// ladder.  The seed is case 0's at any thread count, so results stay
// bit-identical across thread counts, and every converged waveform
// agrees with the cold, unshared sweep to solver tolerance.
TEST(TransientReuse, SharedSweepSeedsChipOperatingPointsFromCaseZero) {
  constexpr std::size_t kCases = 4;
  an::TranSweepOptions plain;
  plain.threads = 1;
  const auto base =
      an::run_transient_sweep(kCases, configure_chip_sample, plain);

  an::TranSweepOptions shared;
  shared.threads = 1;
  shared.share_structure = true;
  const auto got =
      an::run_transient_sweep(kCases, configure_chip_sample, shared);
  ASSERT_EQ(got.size(), kCases);
  EXPECT_GT(got[0].telemetry.op_iterations, 100);
  EXPECT_EQ(got[0].telemetry.op_iterations, base[0].telemetry.op_iterations);
  for (std::size_t i = 0; i < kCases; ++i) {
    ASSERT_TRUE(base[i].ok) << base[i].diag.message();
    ASSERT_TRUE(got[i].ok) << got[i].diag.message();
    ASSERT_FALSE(got[i].x_final.empty()) << "case " << i;
    EXPECT_EQ(got[i].t_final, base[i].t_final) << "case " << i;
    if (i > 0) {
      EXPECT_LE(got[i].telemetry.op_iterations, 10) << "case " << i;
      EXPECT_GT(base[i].telemetry.op_iterations, 100) << "case " << i;
    }
    ASSERT_EQ(got[i].x.size(), base[i].x.size());
    for (std::size_t k = 0; k < base[i].x.size(); ++k)
      for (std::size_t u = 0; u < base[i].x[k].size(); ++u)
        EXPECT_NEAR(got[i].x[k][u], base[i].x[k][u], 1e-6)
            << "case " << i << " step " << k << " unknown " << u;
  }

  for (int threads : {2, 8}) {
    an::TranSweepOptions par = shared;
    par.threads = threads;
    par.chunk = 1;
    const auto again =
        an::run_transient_sweep(kCases, configure_chip_sample, par);
    for (std::size_t i = 0; i < kCases; ++i) {
      const std::string what =
          "threads=" + std::to_string(threads) + " case " + std::to_string(i);
      expect_bit_identical(again[i], got[i], what);
      EXPECT_EQ(again[i].x_final, got[i].x_final) << what;
      EXPECT_EQ(again[i].telemetry.op_iterations,
                got[i].telemetry.op_iterations)
          << what;
    }
  }
}

}  // namespace
