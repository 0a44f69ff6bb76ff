// Operating-point solver robustness: homotopy fallbacks, pathological
// circuits, initial-guess reuse, and structured failure diagnostics
// (SolveDiag) exercised through the fault-injection netlists under
// tests/faults/.
#include <gtest/gtest.h>

#include "analysis/ac.h"
#include "analysis/montecarlo.h"
#include "analysis/noise.h"
#include "analysis/op.h"
#include "analysis/sweep.h"
#include "analysis/transient.h"
#include "bench_util.h"
#include "core/bias.h"
#include "circuit/lint.h"
#include "circuit/netlist.h"
#include "devices/bjt.h"
#include "devices/diode.h"
#include "devices/mosfet.h"
#include "devices/passive.h"
#include "devices/sources.h"
#include "numeric/rng.h"
#include "numeric/units.h"
#include "process/process.h"
#include "spicefmt/parser.h"

namespace {

using namespace msim;

std::string fault_path(const char* name) {
  return std::string(MSIM_TEST_DIR) + "/faults/" + name;
}

TEST(OpRobustness, DiodeStackFromColdStart) {
  // Six series diodes across 4 V: strongly nonlinear, needs limiting.
  ckt::Netlist nl;
  const auto top = nl.node("n0");
  nl.add<dev::VSource>("V1", top, ckt::kGround, 4.0);
  ckt::NodeId prev = top;
  for (int i = 0; i < 6; ++i) {
    const auto next = (i == 5) ? ckt::kGround
                               : nl.node("n" + std::to_string(i + 1));
    nl.add<dev::Diode>("D" + std::to_string(i), prev, next,
                       dev::DiodeParams{});
    prev = next;
  }
  const auto op = an::solve_op(nl);
  ASSERT_TRUE(op.converged);
  // Each diode drops ~0.66 V at the resulting small current.
  EXPECT_NEAR(op.v(nl, "n3"), 4.0 / 2.0, 0.4);
}

TEST(OpRobustness, CmosLatchHasStableSolution) {
  // Cross-coupled inverters (bistable): the solver must settle into one
  // of the valid states, not oscillate forever.
  ckt::Netlist nl;
  const auto vdd = nl.node("vdd");
  const auto a = nl.node("a");
  const auto b = nl.node("b");
  const auto pm = proc::ProcessModel::cmos12();
  nl.add<dev::VSource>("Vdd", vdd, ckt::kGround, 3.0);
  auto inv = [&](const char* n, ckt::NodeId in, ckt::NodeId out) {
    nl.add<dev::Mosfet>(std::string("MP") + n, out, in, vdd, vdd,
                        pm.pmos(), 20e-6, 2e-6);
    nl.add<dev::Mosfet>(std::string("MN") + n, out, in, ckt::kGround,
                        ckt::kGround, pm.nmos(), 10e-6, 2e-6);
  };
  inv("1", a, b);
  inv("2", b, a);
  // Small asymmetry to pick a state.
  nl.add<dev::Resistor>("Rk", vdd, a, 10e6);
  const auto op = an::solve_op(nl);
  ASSERT_TRUE(op.converged);
  const double va = op.v(a), vb = op.v(b);
  // One side high, other low (or the metastable point; exclude it).
  EXPECT_GT(std::abs(va - vb), 2.0);
}

TEST(OpRobustness, InitialGuessAcceleratesResolve) {
  ckt::Netlist nl;
  const auto vdd = nl.node("vdd");
  const auto g = nl.node("g");
  const auto d = nl.node("d");
  const auto pm = proc::ProcessModel::cmos12();
  nl.add<dev::VSource>("Vdd", vdd, ckt::kGround, 3.0);
  nl.add<dev::VSource>("Vg", g, ckt::kGround, 1.0);
  nl.add<dev::Resistor>("RL", vdd, d, 10e3);
  nl.add<dev::Mosfet>("M1", d, g, ckt::kGround, ckt::kGround, pm.nmos(),
                      50e-6, 2e-6);
  const auto op1 = an::solve_op(nl);
  ASSERT_TRUE(op1.converged);
  an::OpOptions warm;
  warm.initial_guess = op1.x;
  const auto op2 = an::solve_op(nl, warm);
  ASSERT_TRUE(op2.converged);
  EXPECT_LE(op2.iterations, op1.iterations);
  EXPECT_LE(op2.iterations, 3);
}

// A full-chip Monte-Carlo sample: fresh rig, every resistor moved by a
// 1% gaussian spread drawn from `seed`.
std::unique_ptr<bench::ChipRig> perturbed_chip(std::uint64_t seed) {
  auto chip = bench::make_chip_rig();
  num::Rng rng(seed);
  for (const auto& dv : chip->nl.devices())
    if (auto* r = dynamic_cast<dev::Resistor*>(dv.get()))
      r->set_resistance(r->nominal_resistance() *
                        (1.0 + 0.01 * rng.normal()));
  return chip;
}

TEST(OpRobustness, PerturbedChipSeededFromNominalConvergesByNewton) {
  // The full chip's cold operating point needs the homotopy ladder;
  // a Monte-Carlo sample started from an already-solved sample's x is
  // a few plain-Newton steps from its own solution, and lands on the
  // same solution a cold solve finds.
  auto nominal = bench::make_chip_rig();
  const auto cold = an::solve_op(nominal->nl);
  ASSERT_TRUE(cold.converged) << cold.diag.message();
  EXPECT_NE(cold.method, "newton");

  auto sample = perturbed_chip(11);
  an::OpOptions seeded;
  seeded.initial_guess = cold.x;
  const auto op = an::solve_op(sample->nl, seeded);
  ASSERT_TRUE(op.converged) << op.diag.message();
  EXPECT_EQ(op.method, "newton");
  EXPECT_LE(op.iterations, 5);

  auto oracle_nl = perturbed_chip(11);
  const auto oracle = an::solve_op(oracle_nl->nl);
  ASSERT_TRUE(oracle.converged) << oracle.diag.message();
  ASSERT_EQ(op.x.size(), oracle.x.size());
  for (std::size_t i = 0; i < op.x.size(); ++i)
    EXPECT_NEAR(op.x[i], oracle.x[i],
                1e-6 * std::max(1.0, std::abs(oracle.x[i])))
        << "unknown " << i;
}

TEST(OpRobustness, SeededMonteCarloIsThreadCountIndependent) {
  // The sample-0 seed is safe to share because monte_carlo_shared
  // measures sample 0 serially before any other sample starts: every
  // later sample reads the same finished x at any thread count.
  auto run = [](int threads) {
    num::Rng rng(3);
    num::RealVector seed_x;
    const ckt::Netlist* primer = nullptr;
    an::McOptions mo;
    mo.threads = threads;
    mo.chunk = 1;
    return an::monte_carlo_shared(
        4, rng,
        [&](num::Rng& r, ckt::Netlist& snl) {
          auto chip = perturbed_chip(r.derive_seed());
          snl = std::move(chip->nl);
          snl.assign_unknowns();
          if (!primer) primer = &snl;
        },
        [&](ckt::Netlist& snl) {
          an::OpOptions o;
          if (&snl != primer) o.initial_guess = seed_x;
          const auto op = an::solve_op(snl, o);
          if (&snl == primer && op.converged) seed_x = op.x;
          if (!op.converged) return an::McTrial::failed(op.diag);
          return an::McTrial::of(op.v(snl, "chip.bg.vref_p"));
        },
        mo);
  };
  const auto serial = run(1);
  const auto parallel = run(4);
  ASSERT_EQ(serial.failures, 0);
  ASSERT_EQ(serial.samples.size(), 4u);
  EXPECT_EQ(parallel.samples, serial.samples);  // bit-identical
}

TEST(OpRobustness, ContinuationTracksSteepTransferCurve) {
  // CMOS inverter VTC: the high-gain transition needs continuation.
  ckt::Netlist nl;
  const auto vdd = nl.node("vdd");
  const auto in = nl.node("in");
  const auto out = nl.node("out");
  const auto pm = proc::ProcessModel::cmos12();
  nl.add<dev::VSource>("Vdd", vdd, ckt::kGround, 3.0);
  auto* vin = nl.add<dev::VSource>("Vin", in, ckt::kGround, 0.0);
  nl.add<dev::Mosfet>("MP", out, in, vdd, vdd, pm.pmos(), 20e-6, 1.2e-6);
  nl.add<dev::Mosfet>("MN", out, in, ckt::kGround, ckt::kGround,
                      pm.nmos(), 10e-6, 1.2e-6);
  const auto sweep = an::dc_sweep(
      nl, an::linspace(0.0, 3.0, 61),
      [&](double v) { vin->set_waveform(dev::Waveform::dc(v)); },
      an::OpOptions{});
  double prev = 3.0;
  for (const auto& pt : sweep) {
    ASSERT_TRUE(pt.op.converged) << "vin=" << pt.value;
    const double vo = pt.op.v(out);
    EXPECT_LE(vo, prev + 1e-6);  // monotone falling VTC
    prev = vo;
  }
  EXPECT_GT(sweep.front().op.v(out), 2.9);
  EXPECT_LT(sweep.back().op.v(out), 0.1);
}

// ---- fault injection: structured diagnostics ------------------------

TEST(FaultInjection, ParallelVsourcesSingularMatrixNamesUnknown) {
  auto parsed = spice::parse_netlist_file(fault_path("vloop.sp"));
  an::OpOptions opt;
  opt.lint = false;  // reach the matrix to exercise the LU diagnosis
  const auto op = an::solve_op(*parsed.netlist, opt);
  EXPECT_FALSE(op.converged);
  EXPECT_EQ(op.diag.status, an::SolveStatus::kSingularMatrix);
  EXPECT_EQ(op.diag.unknown, "i(v2)");
  EXPECT_EQ(op.diag.device, "v2");
  EXPECT_EQ(op.diag.stage, "newton");
}

TEST(FaultInjection, ParallelVsourcesCaughtByLintBeforeAssembly) {
  auto parsed = spice::parse_netlist_file(fault_path("vloop.sp"));
  const auto issues = ckt::lint(*parsed.netlist);
  ASSERT_TRUE(ckt::lint_has_errors(issues));
  EXPECT_EQ(issues.front().kind, ckt::LintKind::kVoltageLoop);
  EXPECT_EQ(issues.front().device, "v2");

  const auto op = an::solve_op(*parsed.netlist);  // lint on by default
  EXPECT_FALSE(op.converged);
  EXPECT_EQ(op.diag.status, an::SolveStatus::kBadTopology);
  EXPECT_EQ(op.diag.stage, "lint");
  EXPECT_NE(op.diag.detail.find("voltage_loop"), std::string::npos);
}

TEST(FaultInjection, FloatingNodeNamedByLintAndByNonConvergence) {
  auto parsed = spice::parse_netlist_file(fault_path("floating_node.sp"));
  const auto issues = ckt::lint(*parsed.netlist);
  ASSERT_FALSE(ckt::lint_has_errors(issues));  // warning, not error
  bool found = false;
  for (const auto& i : issues)
    if (i.kind == ckt::LintKind::kFloatingNode && i.node == "float")
      found = true;
  EXPECT_TRUE(found);

  // Strict lint escalates the warning to a structured topology failure.
  an::OpOptions strict;
  strict.lint_strict = true;
  const auto op_strict = an::solve_op(*parsed.netlist, strict);
  EXPECT_FALSE(op_strict.converged);
  EXPECT_EQ(op_strict.diag.status, an::SolveStatus::kBadTopology);
  EXPECT_NE(op_strict.diag.detail.find("float"), std::string::npos);

  // Default (permissive) solve fails to converge chasing the
  // gshunt-regularized megavolt node, and names exactly that node.
  const auto op = an::solve_op(*parsed.netlist);
  EXPECT_FALSE(op.converged);
  EXPECT_EQ(op.diag.status, an::SolveStatus::kNonConvergence);
  EXPECT_EQ(op.diag.unknown, "v(float)");
  EXPECT_GT(op.diag.residual, 0.0);
  EXPECT_GT(op.diag.iterations, 0);
}

TEST(FaultInjection, ZeroOhmResistorProducesNonFiniteDiag) {
  auto parsed = spice::parse_netlist_file(fault_path("nan_resistor.sp"));
  const auto op = an::solve_op(*parsed.netlist);
  EXPECT_FALSE(op.converged);
  EXPECT_EQ(op.diag.status, an::SolveStatus::kNonFinite);
  EXPECT_EQ(op.diag.unknown, "v(a)");
  EXPECT_FALSE(op.diag.device.empty());
}

TEST(FaultInjection, DuplicateDeviceNamesAreATopologyError) {
  auto parsed =
      spice::parse_netlist_file(fault_path("duplicate_names.sp"));
  const auto op = an::solve_op(*parsed.netlist);
  EXPECT_FALSE(op.converged);
  EXPECT_EQ(op.diag.status, an::SolveStatus::kBadTopology);
  EXPECT_EQ(op.diag.device, "r1");
  EXPECT_NE(op.diag.detail.find("duplicate_name"), std::string::npos);
}

TEST(FaultInjection, DanglingTerminalWarnsButStillSolves) {
  auto parsed =
      spice::parse_netlist_file(fault_path("dangling_terminal.sp"));
  const auto issues = ckt::lint(*parsed.netlist);
  ASSERT_FALSE(ckt::lint_has_errors(issues));
  bool found = false;
  for (const auto& i : issues)
    if (i.kind == ckt::LintKind::kDanglingTerminal && i.node == "stub")
      found = true;
  EXPECT_TRUE(found);

  const auto op = an::solve_op(*parsed.netlist);
  ASSERT_TRUE(op.converged);
  EXPECT_NEAR(op.v(*parsed.netlist, "stub"), 1.0, 1e-6);
}

TEST(FaultInjection, AcSingularMatrixReportsDiagInsteadOfThrow) {
  ckt::Netlist nl;
  const auto a = nl.node("a");
  nl.add<dev::VSource>("V1", a, ckt::kGround,
                       dev::Waveform::dc(1.0).with_ac(1.0));
  nl.add<dev::VSource>("V2", a, ckt::kGround, 1.0);
  nl.add<dev::Resistor>("R1", a, ckt::kGround, 1e3);

  // Default path: the static pre-pass rejects the V-loop before any
  // complex system is assembled.
  const auto pre = an::run_ac_diag(nl, {1e3});
  EXPECT_FALSE(pre.ok());
  EXPECT_EQ(pre.diag.status, an::SolveStatus::kBadTopology);
  EXPECT_EQ(pre.diag.stage, "lint");

  // With the pre-pass off, the factorization itself still produces the
  // structured zero-pivot diagnosis (LU-diagnosis coverage).
  an::AcOptions no_lint;
  no_lint.lint = false;
  const auto ac = an::run_ac_diag(nl, {1e3}, no_lint);
  EXPECT_FALSE(ac.ok());
  EXPECT_EQ(ac.diag.status, an::SolveStatus::kSingularMatrix);
  EXPECT_EQ(ac.diag.unknown, "i(V2)");
  EXPECT_EQ(ac.diag.stage, "ac");
  // The historical API still throws, carrying the structured message.
  EXPECT_THROW(an::run_ac(nl, {1e3}), std::runtime_error);
}

TEST(FaultInjection, NoiseWithoutOutputNodeIsBadTopology) {
  ckt::Netlist nl;
  nl.add<dev::Resistor>("R1", nl.node("a"), ckt::kGround, 1e3);
  const auto res = an::run_noise_diag(nl, {1e3}, an::NoiseOptions{});
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(res.diag.status, an::SolveStatus::kBadTopology);
}

TEST(FaultInjection, MonteCarloCollectsPerSampleDiagnostics) {
  num::Rng rng(7);
  int k = 0;
  const auto stats =
      an::monte_carlo_diag(6, rng, [&](num::Rng&) -> an::McTrial {
        if (++k % 2 == 0) {
          an::SolveDiag d;
          d.status = an::SolveStatus::kNonConvergence;
          d.unknown = "v(x)";
          return an::McTrial::failed(d);
        }
        return an::McTrial::of(1.0);
      });
  EXPECT_EQ(stats.samples.size(), 3u);
  EXPECT_EQ(stats.failures, 3);
  ASSERT_EQ(stats.failure_diags.size(), 3u);
  EXPECT_EQ(stats.failure_diags[0].sample, 1);
  EXPECT_EQ(stats.failure_diags[0].diag.unknown, "v(x)");
  const auto causes = stats.failure_causes();
  EXPECT_EQ(causes.at("non_convergence"), 3);
}

// ---- transient step rejection and recovery --------------------------

TEST(TranRecovery, AdaptiveRunRejectsThenRecovers) {
  // RC driven by a fast sine, started with a deliberately huge dt: the
  // LTE controller must reject, shrink, and still finish the run.
  ckt::Netlist nl;
  const auto in = nl.node("in");
  const auto out = nl.node("out");
  nl.add<dev::VSource>("Vin", in, ckt::kGround,
                       dev::Waveform::sine(0.0, 1.0, 10e3));
  nl.add<dev::Resistor>("R1", in, out, 1e3);
  nl.add<dev::Capacitor>("C1", out, ckt::kGround, 10e-9);
  an::TranOptions t;
  t.adaptive = true;
  t.t_stop = 200e-6;
  t.dt = 50e-6;  // far above what the 10 kHz sine tolerates
  t.dt_min = 1e-9;
  t.lte_tol = 20e-6;
  const auto r = an::run_transient(nl, t);
  ASSERT_TRUE(r.ok) << r.diag.message();
  EXPECT_GT(r.telemetry.rejected_lte, 0);
  EXPECT_GT(r.telemetry.accepted_steps, 0);
  EXPECT_GT(r.telemetry.newton_iterations, 0);
  EXPECT_LT(r.telemetry.min_dt_used, t.dt);
  EXPECT_EQ(r.telemetry.op_method, "newton");
  EXPECT_NEAR(r.time.back(), t.t_stop, 1e-9);
}

TEST(TranRecovery, FixedStepHalvesThroughNewtonFailure) {
  // Diode rectifier with a starved Newton budget: full-dt steps across
  // the steep conduction edge fail, the halving recovery must finish
  // the run anyway and account for every rejection.
  ckt::Netlist nl;
  const auto in = nl.node("in");
  const auto out = nl.node("out");
  nl.add<dev::VSource>("Vin", in, ckt::kGround,
                       dev::Waveform::sine(0.0, 2.0, 1e3));
  nl.add<dev::Diode>("D1", in, out, dev::DiodeParams{});
  nl.add<dev::Resistor>("RL", out, ckt::kGround, 1e4);
  nl.add<dev::Capacitor>("CL", out, ckt::kGround, 1e-9);
  an::TranOptions t;
  t.t_stop = 1e-3;
  t.dt = 25e-6;
  t.max_newton = 4;     // starve Newton at full dt
  t.max_step = 0.05;
  const auto r = an::run_transient(nl, t);
  ASSERT_TRUE(r.ok) << r.diag.message();
  EXPECT_GT(r.telemetry.rejected_newton, 0);
  EXPECT_LT(r.telemetry.min_dt_used, t.dt);
  // The recorded grid still lands on the fixed base step boundaries.
  EXPECT_NEAR(r.time.back(), t.t_stop, 1e-12);
}

TEST(TranRecovery, UnrecoverableStepReportsStructuredDiag) {
  // A pulse edge too steep for the starved Newton budget at any dt:
  // recovery must give up with a kNonConvergence diag at stage "tran",
  // not crash or silently truncate.
  ckt::Netlist nl;
  const auto in = nl.node("in");
  const auto out = nl.node("out");
  nl.add<dev::VSource>("Vin", in, ckt::kGround,
                       dev::Waveform::pulse(0.0, 3.0, 10e-6, 1e-12,
                                            1e-12, 50e-6, 100e-6));
  nl.add<dev::Resistor>("R1", in, out, 1e3);
  nl.add<dev::Capacitor>("C1", out, ckt::kGround, 1e-9);
  an::TranOptions t;
  t.t_stop = 100e-6;
  t.dt = 5e-6;
  t.max_newton = 1;    // cannot absorb the 3 V jump with max_step 0.01
  t.max_step = 0.01;
  t.max_halvings = 4;
  // This RC netlist is linear, and the linear fast path would solve the
  // pulse edge exactly in one step; force the damped-Newton path, whose
  // give-up diagnostics are under test here.
  t.linear_fast_path = false;
  const auto r = an::run_transient(nl, t);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.diag.status, an::SolveStatus::kNonConvergence);
  EXPECT_EQ(r.diag.stage, "tran");
  EXPECT_FALSE(r.diag.unknown.empty());
  EXPECT_NE(r.diag.detail.find("step rejected"), std::string::npos);
  EXPECT_GT(r.telemetry.rejected_newton, 0);
}

TEST(OpRobustness, ReportsFailureNotCrashOnOpenCurrentSource) {
  // A current source driving only a capacitor has no physical DC
  // solution (the gshunt-regularized voltage is ~1e9 V, far outside any
  // reachable range).  The contract is graceful failure: converged =
  // false, no crash, no exception.
  ckt::Netlist nl;
  const auto a = nl.node("a");
  nl.add<dev::ISource>("I1", ckt::kGround, a, 1e-3);
  nl.add<dev::Capacitor>("C1", a, ckt::kGround, 1e-9);
  const auto op = an::solve_op(nl);
  EXPECT_FALSE(op.converged);
  // And adding a sane DC path fixes it.
  nl.add<dev::Resistor>("Rfix", a, ckt::kGround, 1e3);
  const auto op2 = an::solve_op(nl);
  ASSERT_TRUE(op2.converged);
  EXPECT_NEAR(op2.v(a), 1.0, 1e-6);
}

TEST(OpRobustness, TemperatureExtremes) {
  // The full bias cell must solve from -40 C to +125 C.
  ckt::Netlist nl;
  const auto vdd = nl.node("vdd");
  const auto vss = nl.node("vss");
  nl.add<dev::VSource>("Vdd", vdd, ckt::kGround, 1.3);
  nl.add<dev::VSource>("Vss", vss, ckt::kGround, -1.3);
  const auto pm = proc::ProcessModel::cmos12();
  core::BiasCircuit bc =
      core::build_bias(nl, pm, core::BiasDesign{}, vdd, vss);
  for (double tc : {-40.0, -20.0, 25.0, 85.0, 125.0}) {
    an::OpOptions opt;
    opt.temp_k = num::celsius_to_kelvin(tc);
    const auto op = an::solve_op(nl, opt);
    ASSERT_TRUE(op.converged) << tc;
    EXPECT_GT(bc.i_probe->current(op.x), 5e-6) << tc;
  }
}

}  // namespace
