// Assembly-engine tests: the stamp-slot cache (zero pattern searches
// after warm-up, for the real dcop/transient passes, the complex AC
// split, and Monte-Carlo cache adoption), slot invalidation on
// topology edits, bit-identity of the production assembly with the
// searched per-device oracle (tests/dense_oracle.h), the omega-affine
// stamp_ac contract behind the G + jwC split, and the
// stamp/factor/solve telemetry breakdown.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstring>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "analysis/mna.h"
#include "analysis/op.h"
#include "analysis/op_report.h"
#include "analysis/transient.h"
#include "bench_util.h"
#include "analysis/structural.h"
#include "circuit/lint.h"
#include "circuit/netlist.h"
#include "dense_oracle.h"
#include "devices/passive.h"
#include "devices/sources.h"
#include "devices/tanh_vccs.h"
#include "numeric/sparse.h"
#include "spicefmt/parser.h"

namespace {

using namespace msim;

// Bitwise comparison that treats NaN == NaN (fault netlists stamp NaN
// conductances; "bit-for-bit" must still hold through them).
void expect_bits_equal(const std::vector<double>& a,
                       const std::vector<double>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  if (!a.empty()) {
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)),
              0)
        << what;
  }
}

// ---- zero searches after warm-up ------------------------------------

TEST(AssemblySlots, RealSystemReplaysWithZeroSearches) {
  auto rig = bench::make_mic_rig();
  rig->mic.set_gain_code(5);
  const auto op = an::solve_op(rig->nl);
  ASSERT_TRUE(op.converged);

  an::RealSystem sys;
  sys.init(rig->nl);
  for (const auto mode :
       {ckt::AnalysisMode::kDcOp, ckt::AnalysisMode::kTransient}) {
    an::AssembleParams p;
    p.mode = mode;
    p.dt = 1e-6;
    // Warm-up records the slot tables for this (pass, mode) pair.
    sys.invalidate_base();
    sys.assemble(rig->nl, op.x, p);
    // Replay: a full re-assembly (base restamp included, as in the
    // transient hot loop) must not touch the pattern binary search.
    sys.invalidate_base();
    const long s0 = num::sparse_search_count();
    sys.assemble(rig->nl, op.x, p);
    EXPECT_EQ(num::sparse_search_count() - s0, 0)
        << "mode " << static_cast<int>(mode);
  }
}

TEST(AssemblySlots, ComplexSystemReplaysAcrossFrequencies) {
  auto rig = bench::make_mic_rig();
  const auto op = an::solve_op(rig->nl);
  ASSERT_TRUE(op.converged);  // save_op ran: stamp_ac is well-defined

  // The first split records the stamp_ac slot pass into the netlist
  // cache; a second split replays it, and frequency points never stamp.
  const an::AcSplit first = an::split_ac(rig->nl, 1e-12);
  const long s0 = num::sparse_search_count();
  const an::AcSplit split = an::split_ac(rig->nl, 1e-12);
  an::ComplexSystem sys;
  sys.init(split);
  for (const double f : {1e3, 1e4, 1e5}) sys.assemble(2.0 * M_PI * f);
  EXPECT_EQ(num::sparse_search_count() - s0, 0);
  expect_bits_equal(first.g, split.g, "replayed G");
  expect_bits_equal(first.c, split.c, "replayed C");
}

TEST(AssemblySlots, AdoptedCacheReplaysFromTheFirstAssembly) {
  // Monte-Carlo idiom: the nominal build resolves the slot tables once;
  // a sample that adopts its solver cache must replay immediately --
  // zero pattern searches even on its very first assembly.
  auto nominal = bench::make_mic_rig();
  const auto op = an::solve_op(nominal->nl);
  ASSERT_TRUE(op.converged);

  auto sample = bench::make_mic_rig();
  sample->nl.adopt_solver_cache(nominal->nl);
  sample->nl.assign_unknowns();
  an::RealSystem sys;
  sys.init(sample->nl);

  an::AssembleParams p;  // kDcOp: the pass the nominal solve recorded
  const num::RealVector x0(op.x.size(), 0.0);
  const long s0 = num::sparse_search_count();
  sys.assemble(sample->nl, x0, p);
  EXPECT_EQ(num::sparse_search_count() - s0, 0);
}

// ---- invalidation on topology edits ---------------------------------

TEST(AssemblySlots, TopologyEditInvalidatesSlotsAndMatchesFreshBuild) {
  // Solve once (caches pattern, symbolic, and slot tables), then edit
  // the topology.  The next init must notice the structure-revision
  // bump, rebuild everything, and stamp exactly what a from-scratch
  // netlist of the edited topology stamps.
  auto edited = bench::make_mic_rig();
  ASSERT_TRUE(an::solve_op(edited->nl).converged);
  const auto rev_before = edited->nl.structure_revision();

  auto grow = [](bench::MicRig& r) {
    r.nl.add<dev::Resistor>("Rextra", r.nl.node("inp"), ckt::kGround,
                            1e6);
    r.nl.assign_unknowns();
  };
  grow(*edited);
  EXPECT_NE(edited->nl.structure_revision(), rev_before);

  auto fresh = bench::make_mic_rig();  // never solved: no stale cache
  grow(*fresh);

  an::AssembleParams p;
  p.mode = ckt::AnalysisMode::kTransient;
  p.dt = 1e-6;
  const num::RealVector x0(
      static_cast<std::size_t>(edited->nl.unknown_count()), 0.0);

  an::RealSystem se, sf;
  se.init(edited->nl);
  sf.init(fresh->nl);
  se.assemble(edited->nl, x0, p);
  sf.assemble(fresh->nl, x0, p);

  expect_bits_equal(se.sparse_jac().values(), sf.sparse_jac().values(),
                    "jac after topology edit");
  ASSERT_EQ(se.rhs().size(), sf.rhs().size());
  for (std::size_t i = 0; i < se.rhs().size(); ++i)
    EXPECT_EQ(se.rhs()[i], sf.rhs()[i]) << "rhs " << i;

  // The rebuilt tables are re-keyed to the edited netlist's revision
  // and replay cleanly again.
  EXPECT_EQ(edited->nl.solver_cache().structure_rev,
            edited->nl.structure_revision());
  se.invalidate_base();
  const long s0 = num::sparse_search_count();
  se.assemble(edited->nl, x0, p);
  EXPECT_EQ(num::sparse_search_count() - s0, 0);
}

// ---- production vs searched-oracle bit-identity ---------------------

// Assembles one freshly built rig -- through the production RealSystem
// or the searched oracle -- after an identical solve history, so
// device-internal limiting state matches exactly across the two and
// the stamped images are comparable bit-for-bit.
struct Snapshot {
  std::vector<double> vals;
  num::RealVector rhs;
};

template <typename MakeRig>
Snapshot assemble_fresh(const MakeRig& make, bool production,
                        ckt::AnalysisMode mode) {
  auto rig = make();
  const auto op = an::solve_op(rig->nl);
  EXPECT_TRUE(op.converged);
  an::AssembleParams p;
  p.mode = mode;
  p.dt = 1e-6;
  if (production) {
    an::RealSystem sys;
    sys.init(rig->nl);
    sys.assemble(rig->nl, op.x, p);
    return {sys.sparse_jac().values(), sys.rhs()};
  }
  num::RealSparseMatrix jac(an::mna_pattern(rig->nl));
  num::RealVector rhs;
  oracle::assemble_real_searched(rig->nl, op.x, p, jac, rhs);
  return {jac.values(), rhs};
}

template <typename MakeRig>
void expect_matches_oracle(const MakeRig& make, ckt::AnalysisMode mode,
                           const char* what) {
  const auto searched = assemble_fresh(make, false, mode);
  const auto batched = assemble_fresh(make, true, mode);
  expect_bits_equal(searched.vals, batched.vals, what);
  expect_bits_equal(searched.rhs, batched.rhs, what);
}

TEST(AssemblyBatching, MicAmpBitIdenticalToSearchedOracle) {
  const auto make = [] {
    auto r = bench::make_mic_rig();
    r->mic.set_gain_code(5);
    return r;
  };
  expect_matches_oracle(make, ckt::AnalysisMode::kDcOp, "mic dcop");
  expect_matches_oracle(make, ckt::AnalysisMode::kTransient, "mic tran");
}

TEST(AssemblyBatching, ChipBitIdenticalToSearchedOracle) {
  const auto make = [] { return bench::make_chip_rig(); };
  expect_matches_oracle(make, ckt::AnalysisMode::kDcOp, "chip dcop");
  expect_matches_oracle(make, ckt::AnalysisMode::kTransient, "chip tran");
}

TEST(AssemblyBatching, OracleSearchesWhileProductionDoesNot) {
  // The oracle must actually be the searched path -- otherwise the
  // bit-identity checks above would compare the replay with itself --
  // while a production re-assembly pays no pattern lookup at all.
  auto rig = bench::make_mic_rig();
  const auto op = an::solve_op(rig->nl);
  ASSERT_TRUE(op.converged);
  an::AssembleParams p;

  num::RealSparseMatrix jac(an::mna_pattern(rig->nl));
  num::RealVector rhs;
  long s0 = num::sparse_search_count();
  oracle::assemble_real_searched(rig->nl, op.x, p, jac, rhs);
  EXPECT_GT(num::sparse_search_count() - s0, 0);

  an::RealSystem sys;
  sys.init(rig->nl);
  sys.assemble(rig->nl, op.x, p);
  sys.invalidate_base();
  s0 = num::sparse_search_count();
  sys.assemble(rig->nl, op.x, p);
  EXPECT_EQ(num::sparse_search_count() - s0, 0);
}

// ---- the omega-affine stamp_ac contract ------------------------------
//
// AC and noise sweeps form every frequency point as G + jwC from one
// split per analysis (an::split_ac), never from a device pass.  That is
// exact only while every stamp_ac writes a real constant or j*omega
// times a real constant, and an omega-independent rhs; these tests
// compare a direct dense assembly at three frequencies against the
// split for every device class and every lint-clean sample deck, so a
// device breaking the contract fails here instead of in AC output.

void expect_split_matches_direct(ckt::Netlist& nl, const std::string& what) {
  nl.assign_unknowns();
  an::solve_op(nl);  // save_op; the contract holds at any saved OP
  constexpr double kGshunt = 1e-12;
  const an::AcSplit split = an::split_ac(nl, kGshunt);
  const auto n = static_cast<std::size_t>(nl.unknown_count());
  const auto& rp = split.skeleton->row_ptr();
  const auto& cols = split.skeleton->cols();
  ASSERT_EQ(split.g.size(), split.skeleton->values().size()) << what;
  for (const double f : {0.37, 1.3e3, 7.7e6}) {
    const double w = 2.0 * M_PI * f;
    num::ComplexMatrix direct;
    num::ComplexVector rhs;
    oracle::assemble_ac(nl, w, kGshunt, direct, rhs);
    num::ComplexMatrix formed(n, n);
    for (std::size_t r = 0; r < n; ++r)
      for (int k = rp[r]; k < rp[r + 1]; ++k) {
        const auto kk = static_cast<std::size_t>(k);
        formed(r, static_cast<std::size_t>(cols[kk])) = {split.g[kk],
                                                         w * split.c[kk]};
      }
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t c = 0; c < n; ++c) {
        const std::complex<double> d = direct(r, c), s = formed(r, c);
        EXPECT_LE(std::abs(d - s),
                  1e-12 * std::max(std::abs(d), std::abs(s)))
            << what << ": A(" << r << "," << c << ") at f = " << f
            << " Hz, direct " << d << ", split " << s;
      }
    ASSERT_EQ(rhs.size(), split.rhs.size()) << what;
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_EQ(rhs[i], split.rhs[i]) << what << ": rhs " << i;
  }
}

TEST(AcSplitContract, EveryDeviceClassIsAffineInOmega) {
  // One small deck per concrete device class (TanhVccs has no card and
  // is added programmatically below).
  const std::pair<const char*, const char*> decks[] = {
      {"resistor", "v1 a 0 dc 1 ac 1\nr1 a 0 1k\n"},
      {"capacitor", "v1 a 0 dc 1 ac 1\nr1 a b 1k\nc1 b 0 1n\n"},
      {"inductor", "v1 a 0 dc 1 ac 1\nr1 a b 1k\nl1 b 0 1m\n"},
      {"isource", "i1 0 a dc 1m ac 1 45\nr1 a 0 1k\n"},
      {"vcvs", "v1 a 0 ac 1\nr1 a 0 1k\ne1 b 0 a 0 2\nr2 b 0 1k\n"},
      {"vccs", "v1 a 0 ac 1\nr1 a 0 1k\ng1 b 0 a 0 1m\nr2 b 0 1k\n"},
      {"cccs", "v1 a 0 ac 1\nr1 a 0 1k\nf1 b 0 v1 3\nr2 b 0 1k\n"},
      {"ccvs", "v1 a 0 ac 1\nr1 a 0 1k\nh1 b 0 v1 50\nr2 b 0 1k\n"},
      {"diode",
       ".model dm d is=1e-14\nv1 a 0 dc 1 ac 1\nr1 a b 1k\nd1 b 0 dm\n"},
      {"bjt",
       ".model qn npn is=1e-16 bf=100\nvcc c 0 dc 3\nvb i 0 dc 0.7 ac 1\n"
       "rb i b 10k\nrc c o 2k\nq1 o b 0 qn\n"},
      {"mosfet",
       ".model mn nmos vto=0.7 kp=100u lambda=0.01\nvdd d 0 dc 3\n"
       "vg g 0 dc 1.2 ac 1\nrd d o 10k\nm1 o g 0 0 mn w=10u l=1u\n"},
      {"switch",
       ".model sw1 sw ron=80 roff=1e12\nv1 a 0 dc 1 ac 1\ns1 a b sw1 on\n"
       "r1 b 0 1k\n"},
  };
  for (const auto& [what, body] : decks) {
    auto parsed = spice::parse_netlist(std::string("* ") + what + "\n" +
                                       body + ".end\n");
    expect_split_matches_direct(*parsed.netlist, what);
  }
  ckt::Netlist nl;
  const auto a = nl.node("a"), b = nl.node("b");
  nl.add<dev::VSource>("v1", a, ckt::kGround,
                       dev::Waveform::dc(0.1).with_ac(1.0));
  nl.add<dev::Resistor>("r1", a, ckt::kGround, 1e3);
  nl.add<dev::TanhVccs>("gt", b, ckt::kGround, a, ckt::kGround, 1e-3, 1e-4);
  nl.add<dev::Resistor>("r2", b, ckt::kGround, 1e3);
  expect_split_matches_direct(nl, "tanh_vccs");
}

TEST(AcSplitContract, EveryLintCleanSampleDeckIsAffineInOmega) {
  an::register_analysis_lint_passes();
  int checked = 0;
  for (const char* dir : {"/../examples/netlists", "/faults"}) {
    std::vector<std::filesystem::path> files;
    for (const auto& e :
         std::filesystem::directory_iterator(std::string(MSIM_TEST_DIR) + dir))
      if (e.path().extension() == ".sp") files.push_back(e.path());
    std::sort(files.begin(), files.end());
    for (const auto& f : files) {
      std::unique_ptr<ckt::Netlist> nl;
      try {
        nl = std::move(spice::parse_netlist_file(f.string()).netlist);
      } catch (const std::exception&) {
        continue;  // parse-level fault decks never reach AC
      }
      nl->assign_unknowns();
      if (!ckt::lint(*nl).empty()) continue;
      expect_split_matches_direct(*nl, f.filename().string());
      ++checked;
    }
  }
  EXPECT_GE(checked, 3);  // rc_filter, pga_ladder, bandgap_core
}

// ---- telemetry breakdown --------------------------------------------

TEST(AssemblyTelemetry, TransientReportsTimeBreakdown) {
  auto rig = bench::make_mic_rig();
  rig->vinp->set_waveform(dev::Waveform::sine(0.0, 1e-3, 1e3));
  rig->vinn->set_waveform(dev::Waveform::sine(0.0, -1e-3, 1e3));
  an::TranOptions t;
  t.t_stop = 50e-6;
  t.dt = 1e-6;
  const auto res = an::run_transient(rig->nl, t);
  ASSERT_TRUE(res.ok);
  EXPECT_GT(res.telemetry.stamp_ns, 0);
  EXPECT_GT(res.telemetry.factor_ns, 0);
  EXPECT_GT(res.telemetry.solve_ns, 0);
  const auto json = res.telemetry.reuse_stats_json();
  EXPECT_NE(json.find("\"stamp_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"factor_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"solve_ns\""), std::string::npos);
  const auto text = res.telemetry.summary();
  EXPECT_NE(text.find("solver time"), std::string::npos);
}

TEST(AssemblyTelemetry, OpReportIncludesSolverTime) {
  auto rig = bench::make_mic_rig();
  const auto op = an::solve_op(rig->nl);
  ASSERT_TRUE(op.converged);
  EXPECT_GT(op.solver_stats.stamp_ns, 0);
  const auto report = an::op_report(rig->nl, op);
  EXPECT_NE(report.find("solver time:"), std::string::npos);
}

}  // namespace
