// Small-signal AC analysis around a saved operating point.
//
// Usage: solve_op() first (it saves every device's OP), then run_ac().
// Exactly the sources whose waveform has a non-zero AC magnitude excite
// the circuit, so transfer functions (gain, PSRR, CMRR) are selected by
// toggling AC magnitudes between runs.
#pragma once

#include <complex>
#include <vector>

#include "analysis/diag.h"
#include "analysis/mna.h"
#include "circuit/netlist.h"
#include "numeric/matrix.h"

namespace msim::an {

struct AcOptions {
  double gshunt = 1e-12;
  // Mandatory-by-default static pre-pass (an::preflight): structural
  // errors fail fast with kBadTopology (stage "lint") before any
  // complex system is assembled.  Cached clean verdicts make this a
  // hash lookup when solve_op already vetted the same netlist.
  bool lint = true;
  // Worker threads for the frequency grid: 1 = serial, 0 = auto
  // (MSIM_THREADS / hardware concurrency).  The grid is split into
  // contiguous chunks, one workspace per chunk, so results are
  // bit-identical to the serial sweep at any thread count.
  int threads = 1;
  // Optional run budget / cancel hook, polled once per frequency point
  // (in every chunk worker).  On expiry the result keeps the solved
  // prefix of the grid with `truncated = true` and a structured
  // kBudgetExceeded / kCancelled diag naming the first unsolved
  // frequency -- a partial result, never an exception.  Null =
  // unlimited.
  core::RunBudget* budget = nullptr;
};

struct AcResult {
  SolveDiag diag;  // kSingularMatrix names the zero-pivot unknown
  std::vector<double> freqs_hz;
  std::vector<num::ComplexVector> solutions;  // one per frequency
  // Budget / cancel partial-result flag: `solutions` holds the grid
  // prefix solved before the cut (freqs_hz keeps the full request).
  bool truncated = false;

  bool ok() const { return diag.ok(); }

  std::complex<double> v(std::size_t freq_idx, ckt::NodeId node) const {
    return node == ckt::kGround ? std::complex<double>{}
                                : solutions[freq_idx][node - 1];
  }
  std::complex<double> vdiff(std::size_t freq_idx, ckt::NodeId p,
                             ckt::NodeId n) const {
    return v(freq_idx, p) - v(freq_idx, n);
  }
};

// Logarithmically spaced frequency grid, `points_per_decade` per decade,
// inclusive of both endpoints.
std::vector<double> log_frequencies(double f_start_hz, double f_stop_hz,
                                    int points_per_decade);

// Non-throwing entry point: on a singular MNA matrix the result carries
// a structured diag (with the zero-pivot unknown and the frequency in
// detail) and the solutions computed so far.
AcResult run_ac_diag(ckt::Netlist& nl,
                     const std::vector<double>& freqs_hz,
                     const AcOptions& opt = {});

// Historical API: thin wrapper over run_ac_diag() that throws
// std::runtime_error carrying diag.message() on failure.
AcResult run_ac(ckt::Netlist& nl, const std::vector<double>& freqs_hz,
                const AcOptions& opt = {});

// Single-frequency transfer: complex output vdiff(p,n) given the current
// AC excitation pattern.
std::complex<double> ac_transfer(ckt::Netlist& nl, double freq_hz,
                                 ckt::NodeId p, ckt::NodeId n,
                                 const AcOptions& opt = {});

inline double to_db(double mag) { return 20.0 * std::log10(mag); }

}  // namespace msim::an
