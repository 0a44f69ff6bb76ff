// MNA system assembly shared by all analyses.
//
// Two assembly targets exist for each system:
//   dense  - the historical Matrix path: fill(0) + stamp, O(n^2) per
//            assembly, dense O(n^3) LU.  Robust fallback.
//   sparse - a fixed SparsityPattern captured once per netlist from
//            Device::declare_stamps(); re-assembly clears and rewrites
//            only the nonzeros, and SparseLu caches its pivot order and
//            fill pattern across factorizations (Newton iterations,
//            transient steps, AC/noise frequency points).
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
#include "numeric/lu.h"
#include "numeric/matrix.h"
#include "numeric/sparse.h"

namespace msim::an {

// Linear-solver selection knob carried by the analysis options.
// kSparse is the default engine; kDense keeps the historical dense path
// (useful as a fallback and as the reference in equivalence tests).
enum class SolverKind { kDense, kSparse };

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

// Process-wide count of LU factorization attempts (dense + sparse,
// real + complex).  Tests assert on deltas to prove the static
// pre-pass rejects bad topologies *before* any factorization runs.
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
// lint-passing but capacitor-only-node netlists stay regular in sparse
// mode exactly as they do in dense mode).  Requires assign_unknowns().
num::SparsityPattern mna_pattern(const ckt::Netlist& nl);

// Builds jac/rhs (sized n x n / n) for the Newton system jac*x_next = rhs
// linearized around candidate `x`.
void assemble_real(const ckt::Netlist& nl, const num::RealVector& x,
                   const AssembleParams& p, num::RealMatrix& jac,
                   num::RealVector& rhs);
// Sparse target: jac must have been built from mna_pattern(nl).
void assemble_real(const ckt::Netlist& nl, const num::RealVector& x,
                   const AssembleParams& p, num::RealSparseMatrix& jac,
                   num::RealVector& rhs);

// Builds the complex small-signal system at angular frequency omega by
// a direct stamp_ac pass over every device (the dense reference path of
// ComplexSystem).  Devices must have a saved operating point (save_op()).
void assemble_ac(const ckt::Netlist& nl, double omega, double gshunt,
                 num::ComplexMatrix& jac, num::ComplexVector& rhs);

// Reusable workspace for the large-signal Newton systems: one matrix
// (dense or sparse by SolverKind), one factorization whose symbolic
// analysis persists across factor() calls, and the rhs buffer.
//
// The sparse path additionally
//   - shares pattern + symbolic analysis through the netlist's
//     num::SolverCache (so AC/noise systems over the same netlist skip
//     their own Markowitz analysis), and
//   - caches a "linear base" image: all x-independent devices (plus
//     gshunt) are stamped once per AssembleParams set, and each Newton
//     iteration restores that image and restamps only the nonlinear
//     devices.
class RealSystem {
 public:
  // Builds the workspace for `nl` (after assign_unknowns()).  Safe to
  // call again; rebuilds only when the netlist shape changed.
  void init(const ckt::Netlist& nl, SolverKind kind);

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
  // Numerical-health probes of the last sparse factorization (0.0 in
  // dense mode or before any factor()): a cheap condition-number lower
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

  // Assembly acceleration knobs (sparse path; the A/B handles behind
  // the bench harness's assembly_configs section).  `use_slots` replays
  // cached CSR value indices instead of binary-searching every write;
  // `use_batches` stamps homogeneous device runs through one
  // devirtualized loop per concrete class.  Both default on; turning
  // them off restores the searched per-device-virtual legacy path,
  // which doubles as the test oracle.  Changing modes invalidates the
  // cached base image (the stamp ORDER of the base pass may differ
  // between the batched and free-function paths only in telemetry, not
  // values, but staying conservative costs one restamp).
  void set_assembly_modes(bool use_slots, bool use_batches) {
    if (use_slots != use_slots_ || use_batches != use_batches_)
      base_valid_ = false;
    use_slots_ = use_slots;
    use_batches_ = use_batches;
  }
  bool slots_enabled() const { return use_slots_; }
  bool batches_enabled() const { return use_batches_; }

  num::RealVector& rhs() { return rhs_; }
  SolverKind kind() const { return kind_; }
  // Read-only view of the assembled sparse Jacobian (valid after
  // assemble() in kSparse mode; the batched-vs-legacy oracle tests
  // compare its value array bit-for-bit across assembly modes).
  const num::RealSparseMatrix& sparse_jac() const { return sjac_; }

 private:
  // A maximal run of consecutive same-concrete-class devices inside
  // linear_ or nonlinear_ (segmentation preserves stamp order exactly,
  // so batched assembly is bit-identical to the per-device loop).
  struct BatchRun {
    int kind = 0;  // BatchKind (mna.cc); 0 = heterogeneous/virtual
    int begin = 0;
    int end = 0;
  };

  void stamp_pass(const std::vector<const ckt::Device*>& devs,
                  const std::vector<BatchRun>& runs, bool newton_pass,
                  ckt::StampContext& ctx, ckt::AnalysisMode mode);
  num::StampSlotPass* own_pass(bool newton_pass, ckt::AnalysisMode mode);
  const num::StampSlotPass* replay_pass(bool newton_pass,
                                        ckt::AnalysisMode mode) const;
  void ensure_own_slots();
  void publish_slots();

  SolverKind kind_ = SolverKind::kSparse;
  int n_ = -1;
  std::size_t devices_ = 0;
  std::uint64_t structure_rev_ = 0;  // netlist revision init() ran for
  num::RealMatrix djac_;
  num::RealLu dlu_;
  num::RealSparseMatrix sjac_;
  num::RealSparseLu slu_;
  num::RealVector rhs_;
  // Netlist-owned structural cache (sparse path); symbolic exported to
  // it after every fresh analysis.
  num::SolverCache* cache_ = nullptr;
  int exported_serial_ = -1;
  // Linear/nonlinear device split (both paths; feeds the sparse base
  // image and all_linear()).
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
  bool use_slots_ = true;
  bool use_batches_ = true;
  // Linear base image (sparse path).
  bool base_valid_ = false;
  AssembleParams base_p_;
  std::vector<double> base_vals_;
  num::RealVector base_rhs_;
  // Modified-Newton scratch (solve_modified forbids aliasing b with x).
  num::RealVector res_, dx_;
  FactorStats stats_;
  // Sampled phase timer behind the stamp/factor/solve breakdown: the
  // first calls of a phase are timed exactly, later ones 1-in-N with
  // the measured duration scaled by N (mna.cc).  A clock read costs
  // ~30 ns on this class of host -- exact per-call timing measurably
  // slowed tiny systems (the 3-unknown linear-rc bench), while the
  // sampled estimate converges on exactly the homogeneous hot loops
  // where the breakdown matters.
  struct PhaseClock {
    long calls = 0;
    long weight = 0;  // 0 = untimed call, else ns multiplier
    std::chrono::steady_clock::time_point t0;
    void begin();
    long end_ns() const;
  };
  PhaseClock stamp_clock_, factor_clock_, solve_clock_;
};

// Lockstep Monte-Carlo assembly across N same-topology netlists
// ("lanes").  All lanes share one CSR skeleton, one stamp-slot table
// and one symbolic LU analysis; the Jacobian values live in a
// lane-blocked num::EnsembleValues array (slot index -> N adjacent
// lane values), so one slot-table replay writes all N matrices and the
// per-class stamp_lanes() kernels run the device model math
// device-outer / lane-inner.  Factorizations stay per-lane numeric
// (gather lane, refactor along the shared symbolic structure), and the
// modified-Newton update solves against each lane's stale LU with a
// strided residual multiply.  Sparse only; the caller (the ensemble
// transient driver) falls back to per-sample RealSystem runs whenever
// init() refuses the lane set.
class EnsembleSystem {
 public:
  EnsembleSystem();
  ~EnsembleSystem();
  EnsembleSystem(EnsembleSystem&&) noexcept;
  EnsembleSystem& operator=(EnsembleSystem&&) noexcept;

  // Builds the shared structure for the lane set.  All lanes need the
  // same unknown count and topology fingerprint (MC clones of one
  // netlist); returns false when they disagree (caller falls back to
  // the per-sample path).  Adopts skeleton/symbolic/slots from lane
  // 0's solver cache when present.
  bool init(const std::vector<ckt::Netlist*>& lanes);

  int lanes() const;
  int unknowns() const;

  // Drops the cached per-lane linear base images for the given lanes
  // (device integration history advanced; the transient loop calls
  // this once per attempted step for the stepping cohort).
  void invalidate_lanes(const int* lane_ids, int n);

  // Assembles jac+rhs for every lane in active[0..nactive): per-lane
  // linear base restamp/restore plus one lane-major nonlinear pass
  // through the stamp_lanes kernels.  xs/x sizing is per-lane (index
  // by lane id).  One sampled stamp-clock tick per call, not per lane.
  void assemble(const int* active, int nactive,
                const std::vector<num::RealVector>& xs,
                const AssembleParams& p);

  // Factor/solve phase of one cohort Newton iteration: lanes flagged
  // fresh[i] get a numeric refactor (tagged reasons[i]) and a direct
  // solve; stale lanes get the modified-Newton update
  // x_new = x + J0^{-1}(rhs - A x) against their last factorization.
  // ok[i] (pre-set true by the caller) turns false on a singular or
  // fault-injected factorization.  One sampled clock tick per phase
  // per call.
  void update(const int* active, int nactive, const bool* fresh,
              const char* const* reasons,
              const std::vector<num::RealVector>& xs,
              std::vector<num::RealVector>& x_new, bool* ok);

  // Unknown whose pivot failed in lane `lane`'s last factor attempt.
  int lane_singular_col(int lane) const;

  // Aggregate factor/reuse/phase-time telemetry across all lanes.
  const FactorStats& stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

// The small-signal system of a netlist at its saved operating point,
// split once per analysis as  A(omega) = G + j*omega*C  with an
// omega-independent excitation `rhs` (exact under the Device::stamp_ac
// contract).  Sparse engine: `g` and `c` hold one value per slot of
// `skeleton` -- the netlist's shared CSR whenever its solver cache has
// one -- so a frequency point forms values[k] = {g[k], omega * c[k]}
// with no device pass.  Dense engine: only `kind` and `gshunt` are set
// and every point stamps directly (the reference path).  AC/noise chunk
// workers share one split read-only.
struct AcSplit {
  SolverKind kind = SolverKind::kSparse;
  double gshunt = 0.0;
  std::shared_ptr<const num::RealSparseMatrix> skeleton;
  std::shared_ptr<const num::SparseSymbolic> symbolic;  // may be null
  std::vector<double> g, c;
  num::ComplexVector rhs;
};

// Builds the split.  Sparse: one stamp_ac pass at omega = 1, replaying
// the netlist cache's recorded AC slot pass when present, else
// recording it and publishing it copy-on-write, so later analyses --
// and later jobs adopting the cache through the serve registry --
// assemble search-free.  Serial path only: may write the netlist's
// solver cache, so never call it while chunk workers run over `nl`.
AcSplit split_ac(const ckt::Netlist& nl, SolverKind kind, double gshunt);

// Per-worker small-signal workspace (AC, noise): one matrix, one
// factorization whose symbolic analysis persists across frequency
// points, and the rhs buffer.
class ComplexSystem {
 public:
  // Binds the system to `split` over `nl`; both must outlive it.
  void init(const ckt::Netlist& nl, const AcSplit& split);
  // Forms A(omega) and the excitation: from the split on the sparse
  // engine, by a direct stamp_ac pass on the dense one.
  void assemble(double omega);
  bool factor();
  int singular_col() const;
  double min_pivot() const;
  void solve(num::ComplexVector& x);
  // Adjoint solve A^T x = b (noise analysis).
  void solve_transpose(const num::ComplexVector& b, num::ComplexVector& x);

 private:
  const ckt::Netlist* nl_ = nullptr;
  const AcSplit* split_ = nullptr;
  num::ComplexMatrix djac_;
  num::ComplexLu dlu_;
  num::ComplexSparseMatrix sjac_;
  num::ComplexSparseLu slu_;
  num::ComplexVector rhs_;
};

}  // namespace msim::an
