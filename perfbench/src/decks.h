// Seeded deck generators for the end-to-end benchmark.
//
// Every job is SPICE deck text plus the msim_cli options it runs with;
// the program under test sees nothing else.  The paper rigs are
// serialized once per process (bench_util.h builders through
// spice::write_netlist); a job then rewrites the seeded values in that
// text, so generating a deck costs microseconds next to a millisecond
// job.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "numeric/rng.h"
#include "serve/deck.h"

namespace perfbench {

enum class JobKind { kMicEdit, kBuffer, kChipMc, kLadder };

struct Job {
  JobKind kind = JobKind::kMicEdit;
  std::string deck;
  msim::serve::DeckOptions opt;
  int gain_code = -1;      // kMicEdit: 0..5 (10..40 dB)
  bool noise = false;      // kMicEdit: deck carries the .noise directive
  bool repeat = false;     // kLadder: exact repeat of an earlier deck
};

// Deck text with numeric value slots (a card's value token), rendered
// with new values per job.
class DeckTemplate {
 public:
  DeckTemplate() = default;
  // Every card whose first token starts with one of `prefixes` gets a
  // slot for its last token; the tokens' values become the nominals.
  DeckTemplate(const std::string& text,
               const std::vector<std::string>& prefixes);
  const std::vector<double>& nominals() const { return nominal_; }
  std::string render(const std::vector<double>& values) const;

 private:
  std::vector<std::string> pieces_;  // pieces_.size() == slots + 1
  std::vector<double> nominal_;
};

class DeckFactory {
 public:
  DeckFactory();

  // Mic amp at `gain_code` with a 1% gaussian edit on every gain-string
  // resistor; .op + .ac, plus .noise when `noise`.
  Job mic_edit(msim::num::Rng& rng, int gain_code, bool noise) const;
  // Class-AB buffer (Fig. 9 connection, 50 ohm load) driven by a 1 kHz
  // differential sine of `amplitude` volts per side; .tran 1u 2m, PSS.
  Job buffer(double amplitude) const;
  // Full chip .op, 4-sample Monte-Carlo with seed `mc_seed`.
  Job chip_mc(std::uint64_t mc_seed) const;
  // RC ladder of `stages` stages; each stage's shunt is C or R||C, so
  // almost every ladder is a topology the registry has not seen.
  static Job ladder(msim::num::Rng& rng, int stages);

 private:
  std::vector<DeckTemplate> mic_;  // one per gain code
  std::string drv_;
  std::string chip_;
};

// The job stream of a workload.  Deterministic in `seed`; `purpose`
// separates the streams used for priming, identity checks and timed
// work, so no two of them share a deck.
class JobStream {
 public:
  JobStream(const DeckFactory& f, const std::string& workload,
            std::uint64_t seed, int purpose);
  Job next();

 private:
  Job next_mix();

  const DeckFactory& f_;
  std::string workload_;
  msim::num::Rng rng_;
  long index_ = 0;
  std::vector<int> block_;           // shuffled strata of the current block
  std::vector<Job> ladders_;  // recent fresh ladder jobs
};

// Purposes for JobStream.
inline constexpr int kTimed = 0;
inline constexpr int kPrime = 1;
inline constexpr int kIdentity = 2;

}  // namespace perfbench
