// Output checks: the numbers a job's captured output must carry, read
// from the same bytes a msim_cli user would see.
#pragma once

#include <limits>
#include <map>
#include <string>

#include "decks.h"
#include "serve/deck.h"

namespace perfbench {

// Physical results read back from one job's output.  Which fields are
// set depends on the job kind; a field that could not be read stays NaN.
struct Readout {
  static constexpr double kUnread = std::numeric_limits<double>::quiet_NaN();
  double gain_db = kUnread;       // mic: |v(outp)-v(outn)| at 1 kHz [dB]
  double noise_avg = kUnread;     // mic: mean input noise density over the
                                  //      0.3..3.4 kHz grid points [V/rtHz]
  double thd = kUnread;           // buffer: THD of the steady period
  double pss_residual = kUnread;  // buffer: shooting residual
  double mc_mean = kUnread;       // chip: probe mean over MC samples
  double mc_stddev = kUnread;
  double ladder_mag = kUnread;    // ladder: |v(probe)| at 1 kHz
};

Readout read_job(const Job& job, const msim::serve::DeckResult& r);

// Sanity bounds every timed job must meet (any seed).  Returns an empty
// string when the job passes, else what failed.
std::string check_job(const Job& job, const msim::serve::DeckResult& r,
                      Readout* out = nullptr);

// The readout as digest entries ("<prefix>.gain_db" -> value, ...).
void add_to_digest(const Job& job, const Readout& r, const std::string& prefix,
                   std::map<std::string, double>& digest);

// Compares a digest against the checked-in one within solver tolerance.
// Returns an empty string on a match, else the first mismatch.
std::string compare_digest(const std::map<std::string, double>& got,
                           const std::map<std::string, double>& want);

// Drops the lines that carry wall-clock readings ("solver time" and the
// PSS "Phi ride-along" line), so two runs of one deck compare bytewise.
std::string strip_timing(const std::string& s);

}  // namespace perfbench
