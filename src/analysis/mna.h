// MNA system assembly shared by all analyses.
//
// One production engine: a fixed SparsityPattern captured once per
// netlist from Device::declare_stamps(); re-assembly replays cached CSR
// value indices (stamp slots) through devirtualized per-class device
// loops, and SparseLu caches its pivot order and fill pattern across
// factorizations (Newton iterations, transient steps, AC/noise
// frequency points).  The dense assemble_real() below serves only the
// range, sensitivity and .tf paths; the dense and searched reference
// engines live with the tests (tests/dense_oracle.h).
//
// RealSystem / ComplexSystem bundle matrix + factorization + buffers so
// the Newton and frequency loops allocate nothing per iteration.
#pragma once

#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "circuit/netlist.h"
#include "numeric/matrix.h"
#include "numeric/sparse.h"

namespace msim::an {

// Parameters controlling one large-signal assembly pass.
struct AssembleParams {
  ckt::AnalysisMode mode = ckt::AnalysisMode::kDcOp;
  double time = 0.0;
  double dt = 0.0;
  double temp_k = 300.15;
  double gmin = 1e-12;     // junction-homotopy conductance
  double gshunt = 1e-12;   // node-to-ground shunt (floating-node guard)
  double source_scale = 1.0;
  bool use_trapezoidal = true;

  // Two parameter sets stamping identically for x-independent devices
  // compare equal; RealSystem keys its cached linear base image on this.
  bool operator==(const AssembleParams&) const = default;
};

// Process-wide count of LU factorization attempts (real + complex).
// Tests assert on deltas to prove the static pre-pass rejects bad
// topologies *before* any factorization runs.
long factor_call_count();

// Factorization-reuse telemetry kept by one RealSystem.  The modified
// Newton loop solves against a stale factorization whenever it can;
// every fresh factorization records why it was needed so the refactor
// policy is observable (TranTelemetry, op_report, msim_cli --tran-stats).
struct FactorStats {
  long factor_count = 0;  // fresh numeric factorizations
  long reuse_count = 0;   // solves against a reused (stale) factorization
  std::map<std::string, long> refactor_reasons;
  // Wall-clock breakdown of where the solver spends its time
  // (steady_clock nanoseconds): device evaluation + matrix/rhs assembly,
  // numeric factorization, and substitution/residual work.  Makes
  // "assembly-dominated vs factor-dominated" an observable instead of an
  // inference (op_report, TranTelemetry, msim_cli --tran-stats,
  // bench_compare.py).
  long stamp_ns = 0;
  long factor_ns = 0;
  long solve_ns = 0;
  // Numerical-health monitor: iterative-refinement rounds run by
  // RealSystem::solve after a failed residual check on an ill-
  // conditioned factorization.  A refinement that still fails forces a
  // fresh factorization, tagged "iterative_refinement" in
  // refactor_reasons.
  long refine_count = 0;

  void merge(const FactorStats& o) {
    factor_count += o.factor_count;
    reuse_count += o.reuse_count;
    for (const auto& [k, v] : o.refactor_reasons) refactor_reasons[k] += v;
    stamp_ns += o.stamp_ns;
    factor_ns += o.factor_ns;
    solve_ns += o.solve_ns;
    refine_count += o.refine_count;
  }
};

// Stamp-position envelope of the netlist: every device's declared
// positions plus the node-diagonal gshunt entries (registered here so
// lint-passing but capacitor-only-node netlists stay regular).
// Requires assign_unknowns().
num::SparsityPattern mna_pattern(const ckt::Netlist& nl);

// Builds the dense jac/rhs (sized n x n / n) for the Newton system
// jac*x_next = rhs linearized around candidate `x`, stamping every
// device in netlist order.  The range, sensitivity and .tf analyses
// use it for their one-off dense solves.
void assemble_real(const ckt::Netlist& nl, const num::RealVector& x,
                   const AssembleParams& p, num::RealMatrix& jac,
                   num::RealVector& rhs);

// Reusable workspace for the large-signal Newton systems: one sparse
// matrix, one factorization whose symbolic analysis persists across
// factor() calls, and the rhs buffer.  It
//   - shares pattern + symbolic analysis through the netlist's
//     num::SolverCache (so AC/noise systems over the same netlist skip
//     their own Markowitz analysis),
//   - caches a "linear base" image: all x-independent devices (plus
//     gshunt) are stamped once per AssembleParams set, and each Newton
//     iteration restores that image and restamps only the nonlinear
//     devices, and
//   - replays each pass through recorded stamp slots (cached CSR value
//     indices) in devirtualized per-class batches, recording a pass by
//     one searched assembly the first time it runs and again whenever
//     a device's writes stop matching its recording.
class RealSystem {
 public:
  // Builds the workspace for `nl` (after assign_unknowns()).  Safe to
  // call again; rebuilds only when the netlist shape changed.
  void init(const ckt::Netlist& nl);

  void assemble(const ckt::Netlist& nl, const num::RealVector& x,
                const AssembleParams& p);
  // Stamps only the RHS for the current candidate/params; the matrix
  // (and its factorization) are left untouched.  The linear fast path
  // uses this to advance time-dependent sources against one
  // factorization for a whole constant-dt run.
  void assemble_rhs_only(const ckt::Netlist& nl, const num::RealVector& x,
                         const AssembleParams& p);
  // Factors the assembled matrix; false when singular.  `reason` tags
  // the factorization in stats() ("initial", "dt_change",
  // "slow_convergence", ...); the default covers plain full-Newton use.
  bool factor(const char* reason = "full_newton");
  int singular_col() const;
  double min_pivot() const;
  // Numerical-health probes of the last factorization (0.0 before any
  // factor()): a cheap condition-number lower
  // bound from the cached LU's U-diagonal extremes, and the pivot
  // growth max|U_ii| / max|A_ij|.  solve() uses the condition estimate
  // to gate a residual check + one round of iterative refinement (see
  // FactorStats::refine_count).
  double condition_estimate() const;
  double pivot_growth() const;
  // Solves into `x` using the assembled rhs.  Requires factor() == true.
  void solve(num::RealVector& x);
  // Modified-Newton update against a STALE factorization: with the
  // freshly assembled jac/rhs linearized at `x`, computes
  //   x_new = x + J0^{-1} (rhs - jac * x)
  // where J0 is whatever factor() last factored.  Exact Newton when the
  // factorization is fresh; a fixed-point refinement otherwise.
  // Requires a prior successful factor().  `x_new` must not alias `x`.
  void solve_modified(const num::RealVector& x, num::RealVector& x_new);
  // Raw substitution against the held factorization: y = J0^{-1} b,
  // where J0 is whatever factor() last factored.  Leaves the assembled
  // rhs untouched; `y` must not alias `b`.  The PSS shooting analysis
  // propagates the sensitivity matrix Phi = dx(T)/dx(0) column-by-
  // column through this -- every column rides the transient loop's
  // existing LU, so building Phi costs zero extra factorizations.
  void solve_held(const num::RealVector& b, num::RealVector& y);

  // True when the netlist this system was init'ed for has no nonlinear
  // devices (linear fast-path eligibility).
  bool all_linear() const { return nonlinear_.empty(); }

  // Factorization-reuse telemetry since the last reset_stats().
  const FactorStats& stats() const { return stats_; }
  void reset_stats() { stats_ = FactorStats{}; }
  // Records one reuse of the current factorization for callers that
  // solve() directly against it (the linear fast path; solve_modified
  // records its own).
  void note_reuse() { ++stats_.reuse_count; }

  // Drops the cached linear base image (next assemble restamps every
  // device).  Call when device-internal state changed without a change
  // of AssembleParams (the transient loop does this every step).
  void invalidate_base() { base_valid_ = false; }

  num::RealVector& rhs() { return rhs_; }
  // Read-only view of the assembled Jacobian (valid after assemble();
  // the PSS history matrix copies it, and the oracle tests compare its
  // value array bit-for-bit against a searched reference assembly).
  const num::RealSparseMatrix& sparse_jac() const { return sjac_; }

 private:
  // A maximal run of consecutive same-concrete-class devices inside a
  // linear or nonlinear device list (segmentation preserves stamp order
  // exactly, so batched assembly is bit-identical to the per-device
  // loop).
  struct BatchRun {
    int kind = 0;  // BatchKind (mna.cc); 0 = heterogeneous/virtual
    int begin = 0;
    int end = 0;
  };
  // Sampled phase timer behind the stamp/factor/solve breakdown: the
  // first calls of a phase are timed exactly, later ones 1-in-N with the
  // measured duration scaled by N (mna.cc).  A clock read costs ~30 ns
  // on this class of host -- exact per-call timing measurably slowed
  // tiny systems (the 3-unknown linear-rc bench), while the sampled
  // estimate converges on exactly the homogeneous hot loops where the
  // breakdown matters.
  struct PhaseClock {
    long calls = 0;
    long weight = 0;  // 0 = untimed call, else ns multiplier
    std::chrono::steady_clock::time_point t0;
    void begin();
    long end_ns() const;
  };

  void stamp_pass(const std::vector<const ckt::Device*>& devs,
                  const std::vector<BatchRun>& runs, bool newton_pass,
                  ckt::StampContext& ctx, ckt::AnalysisMode mode);
  num::StampSlotPass* own_pass(bool newton_pass, ckt::AnalysisMode mode);
  const num::StampSlotPass* replay_pass(bool newton_pass,
                                        ckt::AnalysisMode mode) const;
  void ensure_own_slots();
  void publish_slots();

  int n_ = -1;
  std::size_t devices_ = 0;
  std::uint64_t structure_rev_ = 0;  // netlist revision init() ran for
  num::RealSparseMatrix sjac_;
  num::RealSparseLu slu_;
  num::RealVector rhs_;
  // Netlist-owned structural cache; symbolic exported to it after every
  // fresh analysis.
  num::SolverCache* cache_ = nullptr;
  int exported_serial_ = -1;
  // Linear/nonlinear device split (feeds the base image and
  // all_linear()).
  std::vector<const ckt::Device*> linear_, nonlinear_;
  std::vector<BatchRun> linear_runs_, nonlinear_runs_;
  // Stamp-slot tables: `slots_shared_` is an immutable snapshot adopted
  // from the netlist cache (MC samples inherit the nominal build's
  // resolve); `slots_own_` is this system's private mutable copy,
  // created lazily when a pass must be (re)recorded.  Published back to
  // the cache as a fresh const snapshot after every new recording, so
  // the cache never aliases mutable state.
  std::shared_ptr<const num::StampSlotTables> slots_shared_;
  std::shared_ptr<num::StampSlotTables> slots_own_;
  // Linear base image.
  bool base_valid_ = false;
  AssembleParams base_p_;
  std::vector<double> base_vals_;
  num::RealVector base_rhs_;
  // Modified-Newton scratch (solve_modified forbids aliasing b with x).
  num::RealVector res_, dx_;
  FactorStats stats_;
  PhaseClock stamp_clock_, factor_clock_, solve_clock_;
};

// The small-signal system of a netlist at its saved operating point,
// split once per analysis as  A(omega) = G + j*omega*C  with an
// omega-independent excitation `rhs` (exact under the Device::stamp_ac
// contract).  Sparse engine: `g` and `c` hold one value per slot of
// `skeleton` -- the netlist's shared CSR whenever its solver cache has
// one -- so a frequency point forms values[k] = {g[k], omega * c[k]}
// with no device pass.  AC/noise chunk workers share one split
// read-only.
struct AcSplit {
  std::shared_ptr<const num::RealSparseMatrix> skeleton;
  std::shared_ptr<const num::SparseSymbolic> symbolic;  // may be null
  std::vector<double> g, c;
  num::ComplexVector rhs;
};

// Builds the split: one stamp_ac pass at omega = 1, replaying
// the netlist cache's recorded AC slot pass when present, else
// recording it and publishing it copy-on-write, so later analyses --
// and later jobs adopting the cache through the serve registry --
// assemble search-free.  Serial path only: may write the netlist's
// solver cache, so never call it while chunk workers run over `nl`.
AcSplit split_ac(const ckt::Netlist& nl, double gshunt);

// Per-worker small-signal workspace (AC, noise): one matrix, one
// factorization whose symbolic analysis persists across frequency
// points, and the rhs buffer.
class ComplexSystem {
 public:
  // Binds the system to `split`, which must outlive it.
  void init(const AcSplit& split);
  // Forms A(omega) and the excitation from the split.
  void assemble(double omega);
  bool factor();
  int singular_col() const;
  double min_pivot() const;
  void solve(num::ComplexVector& x);
  // Adjoint solve A^T x = b (noise analysis).
  void solve_transpose(const num::ComplexVector& b, num::ComplexVector& x);

 private:
  const AcSplit* split_ = nullptr;
  num::ComplexSparseMatrix sjac_;
  num::ComplexSparseLu slu_;
  num::ComplexVector rhs_;
};

}  // namespace msim::an
