// Time-domain transient analysis.
//
// Trapezoidal (default) or backward-Euler integration with a fixed base
// step; Newton failures trigger automatic step halving and retry.  The
// fixed base step makes the FFT post-processing in the distortion benches
// trivially coherent (dt is chosen as an integer divisor of the signal
// period).
//
// Recovery contract: a step whose Newton iteration fails or produces a
// non-finite state is rejected, dt is halved down to dt_min, and the
// solve restarts from the last accepted checkpoint (device integration
// state only advances on accepted steps).  Every rejection is counted in
// TranTelemetry; a run that still cannot advance reports a structured
// SolveDiag instead of silently returning a truncated waveform.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "analysis/diag.h"
#include "analysis/mna.h"
#include "circuit/netlist.h"
#include "numeric/matrix.h"

namespace msim::an {

// Observation hook fired after every ACCEPTED advance of the fixed-step
// loop (adaptive runs never fire it).  At the call, `sys` still holds
// the step's assembled Jacobian and numeric factorization -- the PSS
// shooting analysis propagates its sensitivity matrix Phi = dx(T)/dx(0)
// through RealSystem::solve_held here, riding the LUs the step already
// paid for.  `p` carries the step's actual dt and integrator (sub-
// halved retries fire once per accepted sub-step).
class TranStepHook {
 public:
  virtual ~TranStepHook() = default;
  virtual void on_accepted(const ckt::Netlist& nl, RealSystem& sys,
                           const AssembleParams& p,
                           const num::RealVector& x_prev,
                           const num::RealVector& x_new) = 0;
};

struct TranOptions {
  double t_stop = 1e-3;
  double dt = 1e-6;
  double temp_k = 300.15;
  double vtol = 1e-9;
  double reltol = 1e-6;
  int max_newton = 80;
  double max_step = 0.5;      // Newton damping clamp
  double gmin = 1e-12;
  double gshunt = 1e-12;
  bool use_trapezoidal = true;
  // Static pre-pass selection forwarded to the initial solve_op (the
  // transient itself reuses the DC structural verdict: the dynamic
  // stamp pattern is a superset of the DC one, so a DC-clean topology
  // can not become structurally singular in transient).
  bool lint = true;
  bool lint_strict = false;
  int max_halvings = 12;      // dt reduction attempts on Newton failure
  bool record = true;         // store full solution waveforms
  // Skip storing points before this time (settling removal).
  double record_after = 0.0;

  // Adaptive stepping: when enabled, `dt` is the initial step and the
  // controller grows/shrinks it between [dt_min, dt_max] based on a
  // divided-difference local-truncation-error estimate (trapezoidal
  // LTE ~ h^3 x'''/12).  lte_tol is the per-step error target [V].
  bool adaptive = false;
  double dt_min = 1e-12;
  double dt_max = 0.0;        // 0 -> 50x the base dt
  double lte_tol = 100e-6;

  // Modified Newton: keep solving against the numeric factorization
  // from an earlier iteration/step while it still contracts, paying for
  // a fresh one only on dt changes, slow convergence, or non-finite
  // updates.  The stale factorization only preconditions the update
  // (the residual always uses the freshly assembled system), so the
  // converged solution satisfies the same tolerances as full Newton.
  // Disable to force a factorization on every iteration (A/B baseline).
  bool reuse_factorization = true;
  // When the netlist has no nonlinear devices the implicit step is a
  // plain linear solve: stamp only the RHS and reuse one factorization
  // for the whole constant-dt run (fixed-step mode only).
  bool linear_fast_path = true;

  // Optional run budget / cancel hook, polled at timestep and Newton-
  // iteration granularity (and forwarded to the initial solve_op).  On
  // expiry the run returns the waveform accepted so far with
  // `truncated = true` plus the last-accepted checkpoint state -- a
  // structured partial result, never an exception.  Null = unlimited.
  core::RunBudget* budget = nullptr;

  // --- Periodic-restart support (PSS shooting; see analysis/pss.h) ---
  // Start the run from this state at t = 0 instead of solving a DC
  // operating point (device integration history is reset onto it via
  // begin_transient, exactly as for an OP).  The pointee must outlive
  // the run.  Fixed-step mode only.
  const num::RealVector* initial_state = nullptr;
  // Stamp the run's FIRST accepted step backward-Euler, trapezoidal
  // after.  BE never reads the capacitor current history that
  // begin_transient zeroed, and accept_step re-anchors that history
  // consistently with the BE companion, so a restart from an arbitrary
  // mid-trajectory state injects no trapezoidal ringing -- and the whole
  // run becomes a pure function of the starting state, which is what
  // lets PSS Newton-iterate on the period map x(0) -> x(T).
  bool first_step_backward_euler = false;
  // Per-accepted-step observation hook (fixed-step mode only; borrowed,
  // must outlive the run).  Null = none.
  TranStepHook* step_hook = nullptr;
};

// Step-rejection and effort accounting for one transient run.
struct TranTelemetry {
  long accepted_steps = 0;
  long rejected_newton = 0;     // failure-driven dt cuts (Newton stalled)
  long rejected_nonfinite = 0;  // NaN/Inf state rejections
  long rejected_lte = 0;        // LTE-driven dt cuts (adaptive only)
  long newton_iterations = 0;   // total Newton iterations over the run
  double min_dt_used = 0.0;     // smallest dt ever attempted (0 = none)
  // Initial operating point: homotopy method and iteration count.
  std::string op_method;
  int op_iterations = 0;
  // Factorization-reuse telemetry (modified Newton / linear fast path):
  // fresh numeric factorizations, solves against a reused one, and why
  // each fresh factorization was needed.
  long factor_count = 0;
  long reuse_count = 0;
  std::map<std::string, long> refactor_reasons;
  bool linear_fast_path_used = false;
  // Wall-clock breakdown (steady_clock ns) of the solver hot path:
  // device evaluation + assembly vs numeric factorization vs
  // substitution/residual work.  Copied from the RealSystem's
  // FactorStats; the stamp share is what the zero-search slot cache and
  // batched device loops attack.
  long stamp_ns = 0;
  long factor_ns = 0;
  long solve_ns = 0;
  // Robustness accounting: whether a RunBudget / CancelToken cut the
  // run short (and which limit: "deadline", "iterations", "steps",
  // "cancelled"), plus the numerical-health monitor's iterative-
  // refinement rounds (see RealSystem::solve).
  bool budget_truncated = false;
  std::string budget_stop;
  long refine_count = 0;

  long rejected_total() const {
    return rejected_newton + rejected_nonfinite + rejected_lte;
  }
  // Multi-line human-readable summary (CLI / log output).
  std::string summary() const;
  // One-line JSON object with the factorization-reuse fields
  // (msim_cli --tran-stats).
  std::string reuse_stats_json() const;
};

struct TranResult {
  bool ok = false;
  SolveDiag diag;           // structured failure diagnosis (ok() if ok)
  TranTelemetry telemetry;  // step accounting, also filled on success
  std::vector<double> time;
  std::vector<num::RealVector> x;
  // Partial-result contract (budget / cancel): when a RunBudget expires
  // mid-run, `ok` stays false, `truncated` is true, `time`/`x` hold the
  // recorded waveform up to the cut, and the checkpoint below is the
  // last ACCEPTED state (which may be ahead of the last recorded point
  // when record_after skipped it) -- a restart handle, not an error.
  bool truncated = false;
  double t_checkpoint = 0.0;
  num::RealVector x_checkpoint;
  // Final accepted state and time (valid when ok; set regardless of
  // `record`, so boundary-map consumers like the PSS shooting loop read
  // x(t_stop) without digging through the recorded waveform).
  double t_final = 0.0;
  num::RealVector x_final;

  // Waveform of one node voltage.
  std::vector<double> node_wave(ckt::NodeId n) const;
  // Differential waveform v(p) - v(n).
  std::vector<double> diff_wave(ckt::NodeId p, ckt::NodeId n) const;
};

// Runs a transient from the DC operating point at t = 0.  Never throws
// on solver failure: inspect result.diag.
TranResult run_transient(ckt::Netlist& nl, const TranOptions& opt);

// Batched waveform sweeps (gain steps, amplitude sweeps for HD curves,
// MC samples): runs `n` independent transients with one netlist and one
// workspace per run.
struct TranSweepOptions {
  int threads = 1;        // 0 = auto, 1 = serial, >= 2 = pool workers
  std::size_t chunk = 0;  // runs per scheduling block; 0 = auto
  // Shared budget over the whole sweep: forwarded into every case's
  // TranOptions AND checked by the parallel_for workers, so an expiry
  // both truncates in-flight cases and stops new ones starting.  Cases
  // never started are returned with a kBudgetExceeded "case not run"
  // diag.  Null = unlimited.
  core::RunBudget* budget = nullptr;
  // Hoisted structural sharing for same-topology sweeps (MC samples of
  // one rig): case 0 runs first, serially, and every later case whose
  // topology fingerprint matches adopts its solver cache (pattern,
  // symbolic LU, stamp slots) instead of re-analyzing per case, and
  // starts its initial OP's Newton from case 0's converged OP (a
  // perturbed sample typically converges in a few iterations where a
  // cold full-chip OP takes ~1000); when case 0's OP fails, later cases
  // solve theirs cold.  Results stay bit-identical across thread counts
  // -- cache and seed are always case 0's regardless of scheduling --
  // but can differ slightly from an unshared sweep (the shared pivot
  // order was chosen on case 0's values, and a seeded Newton stops at a
  // different point inside the same tolerance), so this is opt-in.
  bool share_structure = false;
};

// Runs case i by calling configure(i, nl, opt) on a fresh netlist and
// default options, then run_transient on the result.  Deterministic-
// ordering contract: case i's result depends only on i (configure must
// not mutate shared state), so the returned vector is bit-identical for
// any thread count or chunk size.
std::vector<TranResult> run_transient_sweep(
    std::size_t n,
    const std::function<void(std::size_t, ckt::Netlist&, TranOptions&)>&
        configure,
    const TranSweepOptions& opt = {});

}  // namespace msim::an
