// Sparse engine tests: SparseLu vs dense Lu agreement on random
// matrices (values, transpose solves, singular-column diagnosis,
// min_pivot), symbolic export/adoption, the per-netlist solver cache,
// and agreement of the production engine's OP/AC/noise with the dense
// oracle (tests/dense_oracle.h) on the paper's circuits and the
// fault-injection netlists.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstring>
#include <tuple>
#include <vector>

#include "analysis/ac.h"
#include "analysis/mna.h"
#include "analysis/noise.h"
#include "analysis/op.h"
#include "bench_util.h"
#include "circuit/netlist.h"
#include "core/bandgap.h"
#include "dense_oracle.h"
#include "devices/passive.h"
#include "devices/sources.h"
#include "numeric/lu.h"
#include "numeric/rng.h"
#include "numeric/sparse.h"
#include "spicefmt/parser.h"

namespace {

using namespace msim;

std::string fault_path(const char* name) {
  return std::string(MSIM_TEST_DIR) + "/faults/" + name;
}

// Random diagonally-dominant sparse matrix: the diagonal plus about
// `extra_per_row` off-diagonal entries per row.
template <typename T>
num::SparseMatrix<T> random_sparse(int n, int extra_per_row,
                                   num::Rng& rng) {
  num::SparsityPattern pat(n);
  for (int i = 0; i < n; ++i) pat.add(i, i);
  std::vector<std::pair<int, int>> off;
  for (int i = 0; i < n; ++i)
    for (int k = 0; k < extra_per_row; ++k) {
      const int j = static_cast<int>(rng.uniform(0.0, double(n)));
      if (j != i && j < n) {
        pat.add(i, j);
        off.emplace_back(i, j);
      }
    }
  num::SparseMatrix<T> a(pat);
  for (int i = 0; i < n; ++i) {
    if constexpr (std::is_same_v<T, double>)
      a.add(i, i, 4.0 + std::abs(rng.normal()));
    else
      a.add(i, i, T(4.0 + std::abs(rng.normal()), rng.normal()));
  }
  for (const auto& [i, j] : off) {
    if constexpr (std::is_same_v<T, double>)
      a.add(i, j, rng.normal());
    else
      a.add(i, j, T(rng.normal(), rng.normal()));
  }
  return a;
}

template <typename T>
std::vector<T> random_rhs(int n, num::Rng& rng) {
  std::vector<T> b(static_cast<std::size_t>(n));
  for (auto& v : b) {
    if constexpr (std::is_same_v<T, double>)
      v = rng.normal();
    else
      v = T(rng.normal(), rng.normal());
  }
  return b;
}

// ---- SparseLu vs dense Lu on random matrices ------------------------

TEST(SparseLu, RandomMatricesMatchDense) {
  num::Rng rng(42);
  for (int n : {3, 8, 25, 60}) {
    const auto a = random_sparse<double>(n, 4, rng);
    const auto b = random_rhs<double>(n, rng);

    num::RealLu dense(a.to_dense());
    ASSERT_FALSE(dense.singular()) << "n = " << n;
    num::RealSparseLu sparse;
    sparse.factor(a);
    ASSERT_FALSE(sparse.singular()) << "n = " << n;
    EXPECT_TRUE(sparse.has_symbolic());

    const auto xd = dense.solve(b);
    const auto xs = sparse.solve(b);
    const auto td = dense.solve_transpose(b);
    const auto ts = sparse.solve_transpose(b);
    for (int i = 0; i < n; ++i) {
      EXPECT_NEAR(xs[i], xd[i], 1e-9 * (1.0 + std::abs(xd[i])))
          << "n = " << n << " i = " << i;
      EXPECT_NEAR(ts[i], td[i], 1e-9 * (1.0 + std::abs(td[i])))
          << "n = " << n << " i = " << i;
    }
  }
}

TEST(SparseLu, ComplexMatricesMatchDense) {
  using C = std::complex<double>;
  num::Rng rng(7);
  for (int n : {5, 30}) {
    const auto a = random_sparse<C>(n, 3, rng);
    const auto b = random_rhs<C>(n, rng);

    num::ComplexLu dense(a.to_dense());
    ASSERT_FALSE(dense.singular());
    num::ComplexSparseLu sparse;
    sparse.factor(a);
    ASSERT_FALSE(sparse.singular());

    const auto xd = dense.solve(b);
    const auto xs = sparse.solve(b);
    const auto td = dense.solve_transpose(b);
    const auto ts = sparse.solve_transpose(b);
    for (int i = 0; i < n; ++i) {
      EXPECT_LT(std::abs(xs[i] - xd[i]), 1e-9 * (1.0 + std::abs(xd[i])));
      EXPECT_LT(std::abs(ts[i] - td[i]), 1e-9 * (1.0 + std::abs(td[i])));
    }
  }
}

TEST(SparseLu, RefactorWithNewValuesMatchesDense) {
  // Same pattern, new values: the second factor() takes the cached
  // symbolic path (no re-analysis) and must still match dense exactly.
  num::Rng rng(11);
  auto a = random_sparse<double>(40, 4, rng);
  num::RealSparseLu sparse;
  sparse.factor(a);
  ASSERT_FALSE(sparse.singular());
  const int serial = sparse.symbolic_serial();

  // Perturb every value in place (pattern unchanged).
  for (auto& v : a.values()) v *= 1.0 + 0.01 * rng.normal();
  sparse.factor(a);
  ASSERT_FALSE(sparse.singular());
  EXPECT_EQ(sparse.symbolic_serial(), serial) << "unexpected re-analysis";

  num::RealLu dense(a.to_dense());
  const auto b = random_rhs<double>(40, rng);
  const auto xd = dense.solve(b);
  const auto xs = sparse.solve(b);
  for (int i = 0; i < 40; ++i)
    EXPECT_NEAR(xs[i], xd[i], 1e-9 * (1.0 + std::abs(xd[i])));
}

TEST(SparseLu, SingularColumnDiagnosisMatchesDense) {
  // Zero an entire column of a well-conditioned matrix: both engines
  // must report singular and name that exact column.
  num::Rng rng(3);
  const int n = 12, dead = 5;
  num::SparsityPattern pat(n);
  for (int i = 0; i < n; ++i) pat.add(i, i);
  num::RealSparseMatrix a(pat);
  for (int i = 0; i < n; ++i)
    if (i != dead) a.add(i, i, 2.0 + std::abs(rng.normal()));

  num::RealLu dense(a.to_dense());
  num::RealSparseLu sparse;
  sparse.factor(a);
  EXPECT_TRUE(dense.singular());
  EXPECT_TRUE(sparse.singular());
  EXPECT_EQ(dense.singular_col(), dead);
  EXPECT_EQ(sparse.singular_col(), dead);
}

TEST(SparseLu, MinPivotOnDiagonalMatrix) {
  // On a diagonal matrix the pivots are the diagonal itself, so both
  // engines must report the same smallest magnitude.
  num::SparsityPattern pat(3);
  for (int i = 0; i < 3; ++i) pat.add(i, i);
  num::RealSparseMatrix a(pat);
  a.add(0, 0, 4.0);
  a.add(1, 1, 0.5);
  a.add(2, 2, 8.0);

  num::RealLu dense(a.to_dense());
  num::RealSparseLu sparse;
  sparse.factor(a);
  ASSERT_FALSE(sparse.singular());
  EXPECT_DOUBLE_EQ(sparse.min_pivot(), 0.5);
  EXPECT_DOUBLE_EQ(dense.min_pivot(), 0.5);
}

// ---- complex refactor health probes ----------------------------------
//
// The complex refactor compares squared magnitudes and takes one sqrt
// per probe; the probes must still match hypot-based |.| values.

// Distance in units in the last place between two finite doubles of
// the same sign.
long ulp_distance(double a, double b) {
  std::int64_t ia, ib;
  std::memcpy(&ia, &a, sizeof a);
  std::memcpy(&ib, &b, sizeof b);
  return static_cast<long>(ia > ib ? ia - ib : ib - ia);
}

TEST(SparseLu, ComplexHealthProbesMatchHypot) {
  // A row- and column-permuted upper-triangular matrix: whatever order
  // Markowitz picks, every pivot is one of the triangle's diagonal
  // entries and elimination never updates them, so the hypot-based
  // probes are known exactly from the input.
  const int n = 7;
  const std::complex<double> diag[n] = {
      {3e-4, -2e-4}, {1.5, 2.5}, {7e5, -1e6}, {-0.3, 1e-9},
      {2e-7, 6e-7},  {-40.0, 9.0}, {0.0, -1.7e3}};
  const int prow[n] = {4, 0, 6, 2, 5, 1, 3};
  const int pcol[n] = {2, 5, 0, 6, 3, 1, 4};
  num::Rng rng(29);
  num::SparsityPattern pat(n);
  std::vector<std::tuple<int, int, std::complex<double>>> entries;
  for (int i = 0; i < n; ++i)
    for (int j = i; j < n; ++j) {
      if (j != i && rng.uniform(0.0, 1.0) < 0.4) continue;
      const std::complex<double> v =
          j == i ? diag[i] : std::complex<double>(rng.normal(), rng.normal());
      pat.add(prow[i], pcol[j]);
      entries.emplace_back(prow[i], pcol[j], v);
    }
  for (const double scale : {1.0, 3.7e-3}) {  // analyze, then refactor
    num::ComplexSparseMatrix a(pat);
    double a_max = 0.0;
    for (const auto& [r, c, v] : entries) {
      a.add(r, c, scale * v);
      a_max = std::max(a_max, std::abs(scale * v));
    }
    double min_piv = 1e300, max_piv = 0.0;
    for (const auto& d : diag) {
      min_piv = std::min(min_piv, std::abs(scale * d));
      max_piv = std::max(max_piv, std::abs(scale * d));
    }
    num::ComplexSparseLu lu;
    lu.factor(a);
    ASSERT_FALSE(lu.singular());
    EXPECT_LE(ulp_distance(lu.min_pivot(), min_piv), 4) << scale;
    EXPECT_LE(ulp_distance(lu.max_pivot(), max_piv), 4) << scale;
    EXPECT_LE(ulp_distance(lu.pivot_growth(), max_piv / a_max), 4) << scale;
    EXPECT_LE(ulp_distance(lu.condition_estimate(), max_piv / min_piv), 4)
        << scale;
    lu.factor(a);  // the cached-structure refactor path
    EXPECT_LE(ulp_distance(lu.min_pivot(), min_piv), 4) << scale;
    EXPECT_LE(ulp_distance(lu.max_pivot(), max_piv), 4) << scale;
  }
}

TEST(SparseLu, ComplexPivotFloorVerdictMatchesDense) {
  // |z| = 8.5e-31 sits below the 1e-30 pivot floor and |z| = 1.13e-30
  // above it; the squared comparison must reach the hypot verdict and
  // name the same column as the dense engine, on a fresh analysis and
  // on the refactor of a cached one.
  const int n = 6, weak = 3;
  num::SparsityPattern pat(n);
  for (int i = 0; i < n; ++i) pat.add(i, i);
  auto make = [&](std::complex<double> w) {
    num::ComplexSparseMatrix a(pat);
    for (int i = 0; i < n; ++i)
      a.add(i, i, i == weak ? w : std::complex<double>(1.0 + i, -0.5 * i));
    return a;
  };
  const auto healthy = make({1.0, 1.0});
  const auto below = make({6e-31, 6e-31});
  const auto above = make({8e-31, 8e-31});

  num::ComplexLu dense(below.to_dense());
  ASSERT_TRUE(dense.singular());
  num::ComplexSparseLu fresh;
  fresh.factor(below);
  EXPECT_TRUE(fresh.singular());
  EXPECT_EQ(fresh.singular_col(), dense.singular_col());
  EXPECT_EQ(fresh.singular_col(), weak);

  num::ComplexSparseLu cached;
  cached.factor(healthy);
  ASSERT_FALSE(cached.singular());
  cached.factor(below);
  EXPECT_TRUE(cached.singular());
  EXPECT_EQ(cached.singular_col(), weak);

  cached.factor(above);
  ASSERT_FALSE(cached.singular());
  EXPECT_LE(ulp_distance(cached.min_pivot(), std::abs(above.values()[weak])),
            4);
}

// ---- symbolic export / adoption -------------------------------------

TEST(SparseLu, AdoptedSymbolicReproducesFromScratchFactorization) {
  num::Rng rng(17);
  const auto a = random_sparse<double>(50, 4, rng);
  const auto b = random_rhs<double>(50, rng);

  num::RealSparseLu first;
  first.factor(a);
  ASSERT_FALSE(first.singular());
  const auto sym = first.export_symbolic();
  ASSERT_TRUE(sym);

  num::RealSparseLu second;
  second.adopt_symbolic(*sym);
  EXPECT_TRUE(second.has_symbolic());
  second.factor(a);  // must take the refactor path, not re-analyze
  ASSERT_FALSE(second.singular());

  const auto x1 = first.solve(b);
  const auto x2 = second.solve(b);
  for (int i = 0; i < 50; ++i)
    EXPECT_EQ(x1[i], x2[i]) << "adopted analysis diverged at " << i;
}

TEST(SparseLu, StaleAdoptionFallsBackToReanalysis) {
  // Adopt an analysis built for a *different* pattern: factor() must
  // notice (nnz mismatch) and re-analyze instead of producing garbage.
  num::Rng rng(23);
  const auto a = random_sparse<double>(20, 2, rng);
  const auto other = random_sparse<double>(20, 5, rng);

  num::RealSparseLu donor;
  donor.factor(other);
  ASSERT_FALSE(donor.singular());

  num::RealSparseLu lu;
  lu.adopt_symbolic(*donor.export_symbolic());
  const int adopted_serial = lu.symbolic_serial();
  lu.factor(a);
  ASSERT_FALSE(lu.singular());
  EXPECT_NE(lu.symbolic_serial(), adopted_serial) << "no re-analysis ran";

  num::RealLu dense(a.to_dense());
  const auto b = random_rhs<double>(20, rng);
  const auto xd = dense.solve(b);
  const auto xs = lu.solve(b);
  for (int i = 0; i < 20; ++i)
    EXPECT_NEAR(xs[i], xd[i], 1e-9 * (1.0 + std::abs(xd[i])));
}

TEST(SolverCache, AdoptedNetlistCacheGivesIdenticalOpSolution) {
  // Monte-Carlo idiom: a sample netlist adopts the nominal build's
  // solver cache; the solution must be bit-identical to a cold solve.
  auto nominal = bench::make_mic_rig();
  const auto warm = an::solve_op(nominal->nl);
  ASSERT_TRUE(warm.converged);
  ASSERT_TRUE(nominal->nl.solver_cache().symbolic);

  auto cold = bench::make_mic_rig();
  const auto op_cold = an::solve_op(cold->nl);
  ASSERT_TRUE(op_cold.converged);

  auto adopted = bench::make_mic_rig();
  adopted->nl.adopt_solver_cache(nominal->nl);
  const auto op_adopted = an::solve_op(adopted->nl);
  ASSERT_TRUE(op_adopted.converged);

  ASSERT_EQ(op_cold.x.size(), op_adopted.x.size());
  for (std::size_t i = 0; i < op_cold.x.size(); ++i)
    EXPECT_EQ(op_cold.x[i], op_adopted.x[i]) << "unknown " << i;
}

// ---- the production engine vs the dense oracle ----------------------
//
// The engine (sparse LU, slot-replayed batched stamping, G + jwC split)
// is checked against tests/dense_oracle.h, which shares none of its
// caches: a converged sparse operating point must be a fixed point of
// one dense Newton step, and AC/noise points must match a direct dense
// assembly + dense LU solve.

// Largest dense Newton step accepted at a converged sparse OP: the
// Newton solver's absolute tolerance (vtol).  Converged paper circuits
// step by 1e-15..1e-11, a 1 mV error by 1e-3.
constexpr double kFixedPointTol = 1e-9;

// Dense Newton step from an OP's solution under the parameters the OP
// converged with.
double dense_step_at(const ckt::Netlist& nl, const num::RealVector& x,
                     const an::OpOptions& o) {
  an::AssembleParams p;
  p.temp_k = o.temp_k;
  p.gmin = o.gmin;
  p.gshunt = o.gshunt;
  return oracle::dense_newton_step(nl, x, p);
}

void expect_dense_fixed_point(const ckt::Netlist& nl, const an::OpResult& op,
                              const an::OpOptions& o = {}) {
  ASSERT_TRUE(op.converged);
  EXPECT_LT(dense_step_at(nl, op.x, o), kFixedPointTol);
}

TEST(EngineAgreement, FaultNetlistsAgreeAcrossEngines) {
  // Every fault-injection netlist must fail (or solve) the way the dense
  // oracle sees it: a converged OP is a dense fixed point, a singular
  // verdict has a singular dense matrix, a non-finite verdict a non-
  // finite dense step, and a non-convergence verdict stopped away from
  // any dense fixed point.
  const char* files[] = {"vloop.sp", "floating_node.sp",
                         "nan_resistor.sp", "duplicate_names.sp",
                         "dangling_terminal.sp"};
  for (const char* f : files) {
    auto parsed = spice::parse_netlist_file(fault_path(f));
    ASSERT_TRUE(parsed.netlist) << f;
    an::OpOptions o;
    o.lint = false;  // reach the matrix
    const auto s = an::solve_op(*parsed.netlist, o);
    const double step = dense_step_at(*parsed.netlist, s.x, o);
    switch (s.diag.status) {
      case an::SolveStatus::kOk:
        EXPECT_LT(step, kFixedPointTol) << f;
        break;
      case an::SolveStatus::kSingularMatrix:
        EXPECT_TRUE(std::isinf(step)) << f << ": dense step " << step;
        break;
      case an::SolveStatus::kNonFinite:
        EXPECT_FALSE(std::isfinite(step)) << f << ": dense step " << step;
        break;
      default:
        EXPECT_GT(step, kFixedPointTol) << f;
    }
  }
}

TEST(EngineAgreement, FixedPointCheckRejectsPerturbedOp) {
  // The oracle must not pass vacuously: moving one unknown of a
  // converged OP by 1 mV has to fail the fixed-point check.
  auto rig = bench::make_mic_rig();
  const auto op = an::solve_op(rig->nl);
  expect_dense_fixed_point(rig->nl, op);
  for (const std::size_t i : {std::size_t{0}, op.x.size() / 2}) {
    num::RealVector moved = op.x;
    moved[i] += 1e-3;
    EXPECT_GT(dense_step_at(rig->nl, moved, {}), 0.5e-3)
        << "unknown " << i;
  }
}

TEST(EngineAgreement, MicAmpOpAcNoiseAgree) {
  auto rig = bench::make_mic_rig();
  const auto op = an::solve_op(rig->nl);
  expect_dense_fixed_point(rig->nl, op);

  const auto freqs = an::log_frequencies(10.0, 10e6, 3);
  const auto acs = an::run_ac(rig->nl, freqs);
  ASSERT_EQ(acs.solutions.size(), freqs.size());
  for (std::size_t k = 0; k < freqs.size(); ++k) {
    const auto xd = oracle::dense_ac_solve(rig->nl, freqs[k]);
    ASSERT_EQ(xd.size(), acs.solutions[k].size()) << "f = " << freqs[k];
    const auto gd = xd[rig->mic.outp - 1] - xd[rig->mic.outn - 1];
    const auto gs = acs.vdiff(k, rig->mic.outp, rig->mic.outn);
    EXPECT_LT(std::abs(gd - gs), 1e-6 * (1.0 + std::abs(gd)))
        << "f = " << freqs[k];
  }

  an::NoiseOptions ns;
  ns.out_p = rig->mic.outp;
  ns.out_n = rig->mic.outn;
  ns.input_source = "Vinp";
  const auto noises = an::run_noise(rig->nl, {1e2, 1e3, 1e4}, ns);
  ASSERT_EQ(noises.points.size(), 3u);
  for (const auto& ps : noises.points) {
    const auto pd = oracle::dense_noise_point(rig->nl, ps.freq_hz, ns.out_p,
                                              ns.out_n, true);
    EXPECT_LT(std::abs(ps.s_out - pd.s_out), 1e-6 * pd.s_out);
    EXPECT_LT(std::abs(ps.s_in - pd.s_in), 1e-6 * pd.s_in);
    EXPECT_LT(std::abs(ps.gain_mag - pd.gain_mag), 1e-6 * pd.gain_mag);
  }
}

TEST(EngineAgreement, BandgapOpAgrees) {
  ckt::Netlist nl;
  const auto nvdd = nl.node("vdd");
  const auto nvss = nl.node("vss");
  nl.add<dev::VSource>("Vdd", nvdd, ckt::kGround, 1.3);
  nl.add<dev::VSource>("Vss", nvss, ckt::kGround, -1.3);
  const auto pm = proc::ProcessModel::cmos12();
  (void)core::build_bandgap(nl, pm, {}, nvdd, nvss, ckt::kGround);
  expect_dense_fixed_point(nl, an::solve_op(nl));
}

TEST(EngineAgreement, ClassAbDriverOpAgrees) {
  auto rig = bench::make_drv_rig();
  expect_dense_fixed_point(rig->nl, an::solve_op(rig->nl));
}

TEST(EngineAgreement, GshuntAndGminIdenticalAcrossEngines) {
  // A capacitor-only node survives DC solely through the gshunt guard;
  // the engine must regularize it exactly as the dense oracle does (the
  // sparse pattern registers every node diagonal for this reason).
  ckt::Netlist nl;
  const auto in = nl.node("in");
  const auto mid = nl.node("mid");
  nl.add<dev::VSource>("V1", in, ckt::kGround, 1.0);
  nl.add<dev::Resistor>("R1", in, mid, 1e3);
  nl.add<dev::Capacitor>("C1", mid, ckt::kGround, 1e-9);

  for (double gshunt : {1e-12, 1e-9}) {
    an::OpOptions o;
    o.gshunt = gshunt;
    o.gmin = 1e-9;
    const auto s = an::solve_op(nl, o);
    ASSERT_TRUE(s.converged);
    EXPECT_LT(dense_step_at(nl, s.x, o), 1e-12) << "gshunt " << gshunt;
  }
}

// ---- searched-assembly oracle on the fault netlists -----------------

// NaN-safe bitwise equality: nan_resistor.sp stamps NaN conductances,
// and the batched path must reproduce even those bit-for-bit.
void expect_same_bits(double a, double b, const std::string& msg) {
  EXPECT_EQ(std::memcmp(&a, &b, sizeof a), 0) << msg;
}

TEST(EngineAgreement, FaultNetlistsBatchedStampMatchesLegacy) {
  // The slot-replay + batched assembly must write exactly the image the
  // searched per-device-virtual oracle writes, even on the pathological
  // fault-injection netlists.
  const char* files[] = {"vloop.sp", "floating_node.sp",
                         "nan_resistor.sp", "duplicate_names.sp",
                         "dangling_terminal.sp"};
  for (const char* f : files) {
    auto p1 = spice::parse_netlist_file(fault_path(f));
    auto p2 = spice::parse_netlist_file(fault_path(f));
    ASSERT_TRUE(p1.netlist && p2.netlist) << f;
    auto& oracle_nl = *p1.netlist;
    auto& fast_nl = *p2.netlist;
    if (oracle_nl.devices().empty()) continue;
    oracle_nl.assign_unknowns();
    fast_nl.assign_unknowns();
    const int n = oracle_nl.unknown_count();
    if (n == 0) continue;

    an::AssembleParams p;
    const num::RealVector x(static_cast<std::size_t>(n), 0.0);

    num::RealSparseMatrix sj(an::mna_pattern(oracle_nl));
    num::RealVector sr;
    oracle::assemble_real_searched(oracle_nl, x, p, sj, sr);

    an::RealSystem fast;
    fast.init(fast_nl);
    fast.assemble(fast_nl, x, p);

    const auto& lv = sj.values();
    const auto& fv = fast.sparse_jac().values();
    ASSERT_EQ(lv.size(), fv.size()) << f;
    for (std::size_t i = 0; i < lv.size(); ++i)
      expect_same_bits(lv[i], fv[i],
                       std::string(f) + " value " + std::to_string(i));
    ASSERT_EQ(sr.size(), fast.rhs().size()) << f;
    for (std::size_t i = 0; i < sr.size(); ++i)
      expect_same_bits(sr[i], fast.rhs()[i],
                       std::string(f) + " rhs " + std::to_string(i));

    // After the recording warm-up the fast path replays search-free,
    // fault netlist or not.
    fast.invalidate_base();
    const long s0 = num::sparse_search_count();
    fast.assemble(fast_nl, x, p);
    EXPECT_EQ(num::sparse_search_count() - s0, 0) << f;
  }
}

TEST(EngineAgreement, FaultNetlistsDenseSparseAssembliesAgree) {
  // The dense assembly and the searched sparse oracle must produce the
  // same matrix entry-for-entry (these netlists are all linear, so both
  // stamp in netlist order), with off-pattern dense entries exactly
  // zero.
  const char* files[] = {"vloop.sp", "floating_node.sp",
                         "nan_resistor.sp", "duplicate_names.sp",
                         "dangling_terminal.sp"};
  for (const char* f : files) {
    auto parsed = spice::parse_netlist_file(fault_path(f));
    ASSERT_TRUE(parsed.netlist) << f;
    auto& nl = *parsed.netlist;
    if (nl.devices().empty()) continue;
    nl.assign_unknowns();
    const int n = nl.unknown_count();
    if (n == 0) continue;

    an::AssembleParams p;
    const num::RealVector x(static_cast<std::size_t>(n), 0.0);
    num::RealMatrix dj;
    num::RealVector dr;
    an::assemble_real(nl, x, p, dj, dr);
    num::RealSparseMatrix sj(an::mna_pattern(nl));
    num::RealVector sr;
    oracle::assemble_real_searched(nl, x, p, sj, sr);

    const auto sd = sj.to_dense();
    for (int r = 0; r < n; ++r)
      for (int c = 0; c < n; ++c)
        expect_same_bits(dj(r, c), sd(r, c),
                         std::string(f) + " (" + std::to_string(r) +
                             "," + std::to_string(c) + ")");
    ASSERT_EQ(dr.size(), sr.size()) << f;
    for (std::size_t i = 0; i < dr.size(); ++i)
      expect_same_bits(dr[i], sr[i],
                       std::string(f) + " rhs " + std::to_string(i));
  }
}

}  // namespace
