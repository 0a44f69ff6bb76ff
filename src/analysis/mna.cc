#include "analysis/mna.h"

#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "analysis/structural.h"
#include "core/faultpoint.h"
#include "devices/bjt.h"
#include "devices/controlled.h"
#include "devices/diode.h"
#include "devices/mos_switch.h"
#include "devices/mosfet.h"
#include "devices/passive.h"
#include "devices/sources.h"
#include "devices/tanh_vccs.h"

namespace msim::an {
namespace {

std::atomic<long> g_factor_calls{0};

using Clock = std::chrono::steady_clock;

long ns_since(Clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              t0)
      .count();
}

// Sampling policy for the stamp/factor/solve breakdown.  The first
// kExactCalls of each phase are timed exactly -- that covers operating
// points and the symbolic-analysis factor, whose cost would be
// overstated by scaling, and guarantees non-zero telemetry for any run
// that assembles at all.  Past the warm-up, one call in kSamplePeriod
// is timed and its duration scaled by the period; the period is prime
// so samples do not alias with iterations-per-step patterns in the
// transient loop.
constexpr long kExactCalls = 32;
constexpr long kSamplePeriod = 97;

// Concrete device classes with a batched stamp loop.  kOtherKind runs
// make the plain per-device virtual calls (heterogeneous/behavioral
// fallback).  The hierarchy is flat (every device derives directly from
// ckt::Device), so the dynamic_cast chain below is order-independent.
enum BatchKind : int {
  kOtherKind = 0,
  kResistorKind,
  kCapacitorKind,
  kInductorKind,
  kMosfetKind,
  kDiodeKind,
  kBjtKind,
  kVSourceKind,
  kISourceKind,
  kVcvsKind,
  kVccsKind,
  kCccsKind,
  kCcvsKind,
  kTanhVccsKind,
  kMosSwitchKind,
};

int batch_kind(const ckt::Device* d) {
  if (dynamic_cast<const dev::Resistor*>(d)) return kResistorKind;
  if (dynamic_cast<const dev::Capacitor*>(d)) return kCapacitorKind;
  if (dynamic_cast<const dev::Inductor*>(d)) return kInductorKind;
  if (dynamic_cast<const dev::Mosfet*>(d)) return kMosfetKind;
  if (dynamic_cast<const dev::Diode*>(d)) return kDiodeKind;
  if (dynamic_cast<const dev::Bjt*>(d)) return kBjtKind;
  if (dynamic_cast<const dev::VSource*>(d)) return kVSourceKind;
  if (dynamic_cast<const dev::ISource*>(d)) return kISourceKind;
  if (dynamic_cast<const dev::Vcvs*>(d)) return kVcvsKind;
  if (dynamic_cast<const dev::Vccs*>(d)) return kVccsKind;
  if (dynamic_cast<const dev::Cccs*>(d)) return kCccsKind;
  if (dynamic_cast<const dev::Ccvs*>(d)) return kCcvsKind;
  if (dynamic_cast<const dev::TanhVccs*>(d)) return kTanhVccsKind;
  if (dynamic_cast<const dev::MosSwitch*>(d)) return kMosSwitchKind;
  return kOtherKind;
}

// One tight loop per concrete class: the virtual dispatch is hoisted
// out of the device loop and (with stamp() marked final) the calls
// devirtualize inside each device TU.  Segmentation preserved the
// original stamp order, so this is bit-identical to the plain loop.
void stamp_run(int kind, const ckt::Device* const* devs, std::size_t n,
               ckt::StampContext& ctx) {
  switch (kind) {
    case kResistorKind: dev::Resistor::stamp_batch(devs, n, ctx); break;
    case kCapacitorKind: dev::Capacitor::stamp_batch(devs, n, ctx); break;
    case kInductorKind: dev::Inductor::stamp_batch(devs, n, ctx); break;
    case kMosfetKind: dev::Mosfet::stamp_batch(devs, n, ctx); break;
    case kDiodeKind: dev::Diode::stamp_batch(devs, n, ctx); break;
    case kBjtKind: dev::Bjt::stamp_batch(devs, n, ctx); break;
    case kVSourceKind: dev::VSource::stamp_batch(devs, n, ctx); break;
    case kISourceKind: dev::ISource::stamp_batch(devs, n, ctx); break;
    case kVcvsKind: dev::Vcvs::stamp_batch(devs, n, ctx); break;
    case kVccsKind: dev::Vccs::stamp_batch(devs, n, ctx); break;
    case kCccsKind: dev::Cccs::stamp_batch(devs, n, ctx); break;
    case kCcvsKind: dev::Ccvs::stamp_batch(devs, n, ctx); break;
    case kTanhVccsKind: dev::TanhVccs::stamp_batch(devs, n, ctx); break;
    case kMosSwitchKind: dev::MosSwitch::stamp_batch(devs, n, ctx); break;
    default:
      for (std::size_t i = 0; i < n; ++i) devs[i]->stamp(ctx);
  }
}

// Copies the large-signal parameters onto a stamp context.
void apply_params(const AssembleParams& p, ckt::StampContext& ctx) {
  ctx.time = p.time;
  ctx.dt = p.dt;
  ctx.temp_k = p.temp_k;
  ctx.gmin = p.gmin;
  ctx.use_trapezoidal = p.use_trapezoidal;
  ctx.source_scale = p.source_scale;
}

// Adds the gshunt guard to every node diagonal: n direct writes through
// the resolved diagonal slots of `t` when it has them for this
// structure, else n binary-searched add() calls.
template <typename T>
void add_gshunt_diag(const num::StampSlotTables* t, int nodes,
                     num::SparseMatrix<T>& jac, double gshunt) {
  if (t && t->nnz == jac.nnz() && static_cast<int>(t->diag.size()) == nodes) {
    auto& vals = jac.values();
    for (int i = 0; i < nodes; ++i)
      vals[static_cast<std::size_t>(t->diag[i])] += gshunt;
    return;
  }
  for (int i = 0; i < nodes; ++i) jac.add(i, i, T{gshunt});
}

}  // namespace

long factor_call_count() {
  return g_factor_calls.load(std::memory_order_relaxed);
}

num::SparsityPattern mna_pattern(const ckt::Netlist& nl) {
  num::SparsityPattern pat(nl.unknown_count());
  for (const auto& d : nl.devices()) d->declare_stamps(pat);
  // The gshunt guard stamps every node diagonal; registering those
  // positions here regularizes a capacitor-only node exactly as the
  // dense assembly does.
  const int nodes = nl.node_count() - 1;
  for (int i = 0; i < nodes; ++i) pat.add(i, i);
  return pat;
}

void assemble_real(const ckt::Netlist& nl, const num::RealVector& x,
                   const AssembleParams& p, num::RealMatrix& jac,
                   num::RealVector& rhs) {
  const std::size_t n = static_cast<std::size_t>(nl.unknown_count());
  // resize() zero-initializes; fill() only when the shape already fits
  // (avoids writing the n^2 buffer twice on the sizing call).
  if (jac.rows() != n)
    jac.resize(n, n);
  else
    jac.fill(0.0);
  rhs.assign(n, 0.0);

  ckt::StampContext ctx(p.mode, x, jac, rhs);
  apply_params(p, ctx);
  for (const auto& d : nl.devices()) d->stamp(ctx);

  // Weak shunts from every node voltage to ground keep matrices regular
  // in the presence of floating gates / capacitor-only nodes.
  const int nodes = nl.node_count() - 1;
  for (int i = 0; i < nodes; ++i) jac(i, i) += p.gshunt;
}

void RealSystem::init(const ckt::Netlist& nl) {
  const int n = nl.unknown_count();
  const std::size_t ndev = nl.devices().size();
  const std::uint64_t rev = nl.structure_revision();
  // The structure revision catches topology edits that keep the unknown
  // and device counts unchanged (swap one device for another): a cached
  // slot table replayed over the wrong structure would be caught write
  // by write, but re-keying here avoids ever entering that path.
  if (n == n_ && ndev == devices_ && rev == structure_rev_) return;
  n_ = n;
  devices_ = ndev;
  structure_rev_ = rev;
  base_valid_ = false;
  slots_shared_.reset();
  slots_own_.reset();
  // Share the CSR skeleton and (when already known) the symbolic
  // analysis through the netlist's cache; the first factor() of the
  // first system over this netlist pays for both, everyone else
  // copies structure.
  auto& cache = nl.solver_cache();
  if (!cache.skeleton || cache.unknowns != n || cache.devices != ndev ||
      cache.structure_rev != rev) {
#ifndef NDEBUG
    // Debug builds verify the stamp contract whenever a fresh pattern
    // is built: an out-of-pattern write would silently corrupt this
    // CSR skeleton for every later system sharing the cache.
    const auto violations = check_stamp_contracts(nl);
    if (!violations.empty())
      throw std::logic_error("stamp contract violation: " +
                             violations.front().message);
#endif
    cache.unknowns = n;
    cache.devices = ndev;
    cache.structure_rev = rev;
    cache.symbolic.reset();
    cache.slots.reset();
    cache.skeleton =
        std::make_shared<const num::RealSparseMatrix>(mna_pattern(nl));
  }
  cache_ = &cache;
  sjac_ = *cache.skeleton;
  slu_.reset();
  exported_serial_ = -1;
  if (cache.symbolic) {
    slu_.adopt_symbolic(cache.symbolic);
    exported_serial_ = slu_.symbolic_serial();
  }
  // Stamp-slot tables: adopt the cache's immutable snapshot when it
  // matches this skeleton (the MC-sample fast path: the nominal
  // build's resolve is inherited and replayed from the very first
  // assembly).  Otherwise start a fresh table with the node-diagonal
  // slots resolved up front and publish it, so split_ac stops
  // searching the gshunt diagonal too.
  if (cache.slots && cache.slots->skeleton == cache.skeleton.get() &&
      cache.slots->nnz == sjac_.nnz()) {
    slots_shared_ = cache.slots;
  } else {
    const int nodes = nl.node_count() - 1;
    auto t = std::make_shared<num::StampSlotTables>();
    t->skeleton = cache.skeleton.get();
    t->nnz = sjac_.nnz();
    t->diag.resize(static_cast<std::size_t>(nodes));
    bool all_found = true;
    for (int i = 0; i < nodes; ++i) {
      t->diag[static_cast<std::size_t>(i)] = sjac_.find_index(i, i);
      if (t->diag[static_cast<std::size_t>(i)] < 0) all_found = false;
    }
    if (!all_found) t->diag.clear();  // never true: mna_pattern adds them
    slots_own_ = std::move(t);
    publish_slots();
  }
  linear_.clear();
  nonlinear_.clear();
  for (const auto& d : nl.devices())
    (d->is_nonlinear() ? nonlinear_ : linear_).push_back(d.get());
  // Segment each list into maximal same-concrete-class runs (stamp
  // order untouched) for the batched loops.
  auto segment_runs = [](const std::vector<const ckt::Device*>& devs) {
    std::vector<BatchRun> runs;
    for (std::size_t i = 0; i < devs.size();) {
      const int kind = batch_kind(devs[i]);
      std::size_t j = i + 1;
      while (j < devs.size() && batch_kind(devs[j]) == kind) ++j;
      runs.push_back({kind, static_cast<int>(i), static_cast<int>(j)});
      i = j;
    }
    return runs;
  };
  linear_runs_ = segment_runs(linear_);
  nonlinear_runs_ = segment_runs(nonlinear_);
}

num::StampSlotPass* RealSystem::own_pass(bool newton_pass,
                                         ckt::AnalysisMode mode) {
  num::StampSlotTables& t = *slots_own_;
  if (mode == ckt::AnalysisMode::kDcOp)
    return newton_pass ? &t.newton_dcop : &t.base_dcop;
  return newton_pass ? &t.newton_tran : &t.base_tran;
}

const num::StampSlotPass* RealSystem::replay_pass(
    bool newton_pass, ckt::AnalysisMode mode) const {
  const num::StampSlotTables* t =
      slots_own_ ? slots_own_.get() : slots_shared_.get();
  if (!t) return nullptr;
  const num::StampSlotPass* p = nullptr;
  if (mode == ckt::AnalysisMode::kDcOp)
    p = newton_pass ? &t->newton_dcop : &t->base_dcop;
  else
    p = newton_pass ? &t->newton_tran : &t->base_tran;
  return p->recorded ? p : nullptr;
}

void RealSystem::ensure_own_slots() {
  if (slots_own_) return;
  // Copy-on-write: never mutate the cache's snapshot (MC workers may be
  // replaying it concurrently from their own adopted shared_ptr).
  slots_own_ = slots_shared_
                   ? std::make_shared<num::StampSlotTables>(*slots_shared_)
                   : std::make_shared<num::StampSlotTables>();
  slots_shared_.reset();
}

void RealSystem::publish_slots() {
  if (cache_ && slots_own_)
    cache_->slots = std::make_shared<const num::StampSlotTables>(*slots_own_);
}

void RealSystem::stamp_pass(const std::vector<const ckt::Device*>& devs,
                            const std::vector<BatchRun>& runs,
                            bool newton_pass, ckt::StampContext& ctx,
                            ckt::AnalysisMode mode) {
  if (devs.empty()) return;
  const num::StampSlotPass* rp = replay_pass(newton_pass, mode);
  if (rp && rp->windows.size() == devs.size()) {
    // Windows of a run are contiguous in the slot array; arm the whole
    // span once per run.
    bool ok = true;
    for (const BatchRun& run : runs) {
      const int b = rp->windows[static_cast<std::size_t>(run.begin)].first;
      const int e = rp->windows[static_cast<std::size_t>(run.end - 1)].second;
      ctx.arm_slot_replay(rp->slots.data() + b, e - b);
      stamp_run(run.kind, devs.data() + run.begin,
                static_cast<std::size_t>(run.end - run.begin), ctx);
      if (!ctx.finish_slot_replay()) ok = false;
    }
    if (!ok) {
      // A device emitted writes its table does not predict (a gmin or
      // mode-dependent branch flipped).  The matrix above is still
      // correct -- mismatched writes fell back to the searched path --
      // but schedule a re-record so the next assembly is fast again.
      ensure_own_slots();
      own_pass(newton_pass, mode)->recorded = false;
    }
    return;
  }
  // Record: one searched assembly that resolves every write into its
  // CSR value index, with per-device windows for later replay.
  ensure_own_slots();
  num::StampSlotPass* pass = own_pass(newton_pass, mode);
  pass->slots.clear();
  pass->windows.clear();
  pass->windows.reserve(devs.size());
  ctx.arm_slot_record(&pass->slots);
  for (const ckt::Device* d : devs) {
    const int b = static_cast<int>(pass->slots.size());
    d->stamp(ctx);
    pass->windows.emplace_back(b, static_cast<int>(pass->slots.size()));
  }
  ctx.disarm_slots();
  pass->recorded = true;
  publish_slots();
}

void RealSystem::PhaseClock::begin() {
  const long i = calls++;
  weight = i < kExactCalls
               ? 1
               : ((i - kExactCalls) % kSamplePeriod == 0 ? kSamplePeriod : 0);
  if (weight != 0) t0 = Clock::now();
}

long RealSystem::PhaseClock::end_ns() const {
  return weight != 0 ? weight * ns_since(t0) : 0;
}

void RealSystem::assemble(const ckt::Netlist& nl, const num::RealVector& x,
                          const AssembleParams& p) {
  stamp_clock_.begin();
  if (!base_valid_ || !(p == base_p_)) {
    // Stamp every x-independent device (and the gshunt guard) once for
    // this parameter set; Newton iterations below only restore it.
    sjac_.clear_values();
    base_rhs_.assign(static_cast<std::size_t>(n_), 0.0);
    ckt::StampContext ctx(p.mode, x, sjac_, base_rhs_);
    apply_params(p, ctx);
    stamp_pass(linear_, linear_runs_, /*newton_pass=*/false, ctx, p.mode);
    add_gshunt_diag(slots_own_ ? slots_own_.get() : slots_shared_.get(),
                    nl.node_count() - 1, sjac_, p.gshunt);
    base_vals_ = sjac_.values();
    base_p_ = p;
    base_valid_ = true;
  } else {
    sjac_.values() = base_vals_;
  }
  rhs_ = base_rhs_;
  ckt::StampContext ctx(p.mode, x, sjac_, rhs_);
  apply_params(p, ctx);
  stamp_pass(nonlinear_, nonlinear_runs_, /*newton_pass=*/true, ctx, p.mode);
  // Fault-injection site: a device evaluation producing NaN surfaces in
  // the assembled system exactly like a real model-evaluation blow-up
  // (the Newton loop must reject the candidate as kNonFinite and
  // recover, never accept or crash).
  if (MSIM_FAULTPOINT("device_eval_nan") && !rhs_.empty())
    rhs_[0] = std::numeric_limits<double>::quiet_NaN();
  stats_.stamp_ns += stamp_clock_.end_ns();
}

void RealSystem::assemble_rhs_only(const ckt::Netlist& nl,
                                   const num::RealVector& x,
                                   const AssembleParams& p) {
  stamp_clock_.begin();
  rhs_.assign(static_cast<std::size_t>(n_), 0.0);
  ckt::StampContext ctx(p.mode, x, rhs_);
  apply_params(p, ctx);
  for (const auto& d : nl.devices()) d->stamp(ctx);
  // gshunt is Jacobian-only; nothing to add on the rhs.
  stats_.stamp_ns += stamp_clock_.end_ns();
}

bool RealSystem::factor(const char* reason) {
  ++stats_.factor_count;
  ++stats_.refactor_reasons[reason];
  g_factor_calls.fetch_add(1, std::memory_order_relaxed);
  // Fault-injection site: a forced numeric-factorization failure, seen
  // by callers exactly like a singular matrix (recovery paths: Newton
  // homotopy escalation, transient step diagnosis, AC/noise keep-prefix,
  // and the stale-LU invalidation contract in the transient workspace).
  if (MSIM_FAULTPOINT("sparse_factor_fail")) return false;
  factor_clock_.begin();
  slu_.factor(sjac_);
  stats_.factor_ns += factor_clock_.end_ns();
  if (slu_.singular()) return false;
  // A fresh analysis ran (first factor, or a pivot-floor re-analysis):
  // publish it so the netlist's other systems can adopt it.
  if (cache_ && slu_.symbolic_serial() != exported_serial_) {
    cache_->symbolic = slu_.export_symbolic();
    exported_serial_ = slu_.symbolic_serial();
  }
  return true;
}

int RealSystem::singular_col() const { return slu_.singular_col(); }

double RealSystem::min_pivot() const { return slu_.min_pivot(); }

double RealSystem::condition_estimate() const {
  return slu_.condition_estimate();
}

double RealSystem::pivot_growth() const { return slu_.pivot_growth(); }

namespace {

// Condition-estimate threshold past which a solve is cheap insurance:
// with cond(A) >= 1e12 a double solve can have lost most of its
// significant digits, so the residual check (one mat-vec) is worth its
// cost.  Well-conditioned systems -- all of them, in a healthy run --
// never pay more than the two-load estimate itself.
constexpr double kCondCheckThreshold = 1e12;

}  // namespace

void RealSystem::solve(num::RealVector& x) {
  solve_clock_.begin();
  slu_.solve(rhs_, x);

  // Numerical-health monitor: on an ill-conditioned factorization (or
  // under the deterministic "solve_perturb" fault), verify the residual
  // and run one round of iterative refinement with the cached LU.  If
  // the refined solution still fails the check, the factorization
  // itself is no longer trustworthy (stale modified-Newton LU, pivot
  // growth): force a fresh one and re-solve.
  bool force_check = false;
  if (MSIM_FAULTPOINT("solve_perturb") && !x.empty()) {
    x[0] += 1e3;  // deterministically corrupt the solution
    force_check = true;
  }
  if (force_check || slu_.condition_estimate() > kCondCheckThreshold) {
    const std::size_t n = static_cast<std::size_t>(n_);
    double rhs_inf = 0.0;
    for (std::size_t i = 0; i < n; ++i)
      rhs_inf = std::max(rhs_inf, std::abs(rhs_[i]));
    double x_inf = 0.0;
    for (std::size_t i = 0; i < n; ++i)
      x_inf = std::max(x_inf, std::abs(x[i]));
    double a_max = 0.0;
    for (double v : sjac_.values())
      a_max = std::max(a_max, std::abs(v));
    // Backward-error scale ||A||_max * ||x||_inf + ||rhs||_inf; the
    // tolerance admits ~1e-9 relative residual before intervening.
    const double tol = 1e-9 * (a_max * x_inf + rhs_inf) + 1e-300;
    auto residual_inf = [&]() {
      sjac_.multiply(x, res_);
      double rinf = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        res_[i] = rhs_[i] - res_[i];
        if (std::isnan(res_[i])) return std::numeric_limits<double>::max();
        rinf = std::max(rinf, std::abs(res_[i]));
      }
      return rinf;
    };
    if (residual_inf() > tol) {
      // One refinement round: the correction reuses the cached LU
      // (res_ already holds rhs - A x).
      slu_.solve(res_, dx_);
      for (std::size_t i = 0; i < n; ++i) x[i] += dx_[i];
      ++stats_.refine_count;
      if (MSIM_FAULTPOINT("refine_perturb") && !x.empty())
        x[0] += 1e3;  // force the refinement to "fail" deterministically
      if (residual_inf() > tol) {
        // Refinement could not rescue the cached LU: refactor the
        // freshly assembled matrix and solve against it.
        stats_.solve_ns += solve_clock_.end_ns();
        if (factor("iterative_refinement")) {
          solve_clock_.begin();
          slu_.solve(rhs_, x);
          stats_.solve_ns += solve_clock_.end_ns();
        }
        return;
      }
    }
  }
  stats_.solve_ns += solve_clock_.end_ns();
}

void RealSystem::solve_modified(const num::RealVector& x,
                                num::RealVector& x_new) {
  solve_clock_.begin();
  const std::size_t n = static_cast<std::size_t>(n_);
  // Residual of the Norton form: r = rhs - A x (fresh values, stale LU).
  sjac_.multiply(x, res_);
  for (std::size_t i = 0; i < n; ++i) res_[i] = rhs_[i] - res_[i];
  slu_.solve(res_, dx_);
  x_new.resize(n);
  for (std::size_t i = 0; i < n; ++i) x_new[i] = x[i] + dx_[i];
  ++stats_.reuse_count;
  stats_.solve_ns += solve_clock_.end_ns();
}

void RealSystem::solve_held(const num::RealVector& b, num::RealVector& y) {
  slu_.solve(b, y);
}

AcSplit split_ac(const ckt::Netlist& nl, double gshunt) {
  AcSplit split;
  // Adopt the structural work of the large-signal system (the usual
  // case: AC/noise run after solve_op).
  const int n = nl.unknown_count();
  const std::size_t ndev = nl.devices().size();
  auto& cache = nl.solver_cache();
  const bool cached = cache.skeleton && cache.unknowns == n &&
                      cache.devices == ndev &&
                      cache.structure_rev == nl.structure_revision();
  if (cached) {
    split.skeleton = cache.skeleton;
    split.symbolic = cache.symbolic;
  } else {
    split.skeleton =
        std::make_shared<const num::RealSparseMatrix>(mna_pattern(nl));
  }
  // One stamp_ac pass at omega = 1: every real part is G, every
  // imaginary part is 1 * C exactly (the stamp_ac contract).
  num::ComplexSparseMatrix a(*split.skeleton);
  split.rhs.assign(static_cast<std::size_t>(n), {0.0, 0.0});
  ckt::AcStampContext ctx(1.0, a, split.rhs);
  const auto& devs = nl.devices();
  const num::StampSlotTables* t =
      cached && cache.slots && cache.slots->skeleton == cache.skeleton.get()
          ? cache.slots.get()
          : nullptr;
  bool replayed = false;
  if (t && t->ac.recorded && t->ac.windows.size() == devs.size()) {
    replayed = true;
    for (std::size_t i = 0; i < devs.size(); ++i) {
      const auto [b, e] = t->ac.windows[i];
      ctx.arm_slot_replay(t->ac.slots.data() + b, e - b);
      devs[i]->stamp_ac(ctx);
      if (!ctx.finish_slot_replay()) replayed = false;
    }
  }
  if (!replayed) {
    // No recorded pass, or a device's writes diverged from it: one
    // searched, recording pass from scratch.
    a.clear_values();
    split.rhs.assign(static_cast<std::size_t>(n), {0.0, 0.0});
    num::StampSlotPass pass;
    pass.windows.reserve(devs.size());
    ctx.arm_slot_record(&pass.slots);
    for (const auto& d : devs) {
      const int b = static_cast<int>(pass.slots.size());
      d->stamp_ac(ctx);
      pass.windows.emplace_back(b, static_cast<int>(pass.slots.size()));
    }
    pass.recorded = true;
    if (cached) {
      // Copy-on-write: concurrent readers (MC workers holding adopted
      // shared_ptrs) may be replaying the published snapshot.  The new
      // snapshot keeps every large-signal pass already there.
      auto nt = t ? std::make_shared<num::StampSlotTables>(*t)
                  : std::make_shared<num::StampSlotTables>();
      nt->skeleton = cache.skeleton.get();
      nt->nnz = a.nnz();
      nt->ac = std::move(pass);
      cache.slots = std::move(nt);
    }
  }
  add_gshunt_diag(cached ? cache.slots.get() : nullptr, nl.node_count() - 1,
                  a, gshunt);
  const auto& v = a.values();
  split.g.resize(v.size());
  split.c.resize(v.size());
  for (std::size_t k = 0; k < v.size(); ++k) {
    split.g[k] = v[k].real();
    split.c[k] = v[k].imag();
  }
  return split;
}

void ComplexSystem::init(const AcSplit& split) {
  split_ = &split;
  sjac_ = num::ComplexSparseMatrix(*split.skeleton);
  slu_.reset();
  if (split.symbolic) slu_.adopt_symbolic(split.symbolic);
}

void ComplexSystem::assemble(double omega) {
  auto& vals = sjac_.values();
  const double* g = split_->g.data();
  const double* c = split_->c.data();
  for (std::size_t k = 0; k < vals.size(); ++k) vals[k] = {g[k], omega * c[k]};
  rhs_ = split_->rhs;
}

bool ComplexSystem::factor() {
  g_factor_calls.fetch_add(1, std::memory_order_relaxed);
  slu_.factor(sjac_);
  return !slu_.singular();
}

int ComplexSystem::singular_col() const { return slu_.singular_col(); }

double ComplexSystem::min_pivot() const { return slu_.min_pivot(); }

void ComplexSystem::solve(num::ComplexVector& x) { slu_.solve(rhs_, x); }

void ComplexSystem::solve_transpose(const num::ComplexVector& b,
                                    num::ComplexVector& x) {
  slu_.solve_transpose(b, x);
}

}  // namespace msim::an
