#include "decks.h"

#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "bench_util.h"
#include "spicefmt/writer.h"

namespace perfbench {
namespace {

using namespace msim;

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

// Inserts `directives` in front of the writer's closing ".end".
std::string with_directives(std::string deck, const std::string& directives) {
  deck.insert(deck.rfind(".end"), directives);
  return deck;
}

// Replaces the whole card that starts with `head` (its first token).
std::string replace_card(std::string deck, const std::string& head,
                         const std::string& card) {
  const std::size_t at = deck.find("\n" + head + " ");
  if (at == std::string::npos)
    throw std::runtime_error("perfbench: no card " + head);
  const std::size_t end = deck.find('\n', at + 1);
  deck.replace(at + 1, end - at - 1, card);
  return deck;
}

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t below(num::Rng& rng, std::uint64_t n) {
  return rng.next_u64() % n;
}

}  // namespace

DeckTemplate::DeckTemplate(const std::string& text,
                           const std::vector<std::string>& prefixes) {
  std::string piece;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    bool slot = false;
    for (const auto& p : prefixes) slot = slot || line.rfind(p, 0) == 0;
    const std::size_t sp = line.rfind(' ');
    if (slot && sp != std::string::npos) {
      piece += line.substr(0, sp + 1);
      pieces_.push_back(std::move(piece));
      nominal_.push_back(std::stod(line.substr(sp + 1)));
      piece.assign(1, '\n');
    } else {
      piece += line;
      piece += '\n';
    }
  }
  pieces_.push_back(std::move(piece));
}

std::string DeckTemplate::render(const std::vector<double>& values) const {
  std::string out = pieces_[0];
  for (std::size_t i = 0; i < values.size(); ++i) {
    out += num(values[i]);
    out += pieces_[i + 1];
  }
  return out;
}

DeckFactory::DeckFactory() {
  for (int code = 0; code < core::kMicGainCodes; ++code) {
    auto rig = bench::make_mic_rig();
    rig->mic.set_gain_code(code);
    mic_.emplace_back(spice::write_netlist(rig->nl, "perfbench mic amp"),
                      std::vector<std::string>{"r_mic.Rsp", "r_mic.Rsn"});
  }
  auto drv = bench::make_drv_rig();
  drv_ = spice::write_netlist(drv->nl, "perfbench class-AB buffer");
  auto chip = bench::make_chip_rig();
  chip_ = with_directives(spice::write_netlist(chip->nl, "perfbench chip"),
                          ".op\n");
}

Job DeckFactory::mic_edit(num::Rng& rng, int gain_code, bool noise) const {
  const DeckTemplate& t = mic_.at(static_cast<std::size_t>(gain_code));
  std::vector<double> values = t.nominals();
  for (double& v : values) v *= 1.0 + 0.01 * rng.normal();
  Job j;
  j.kind = JobKind::kMicEdit;
  j.gain_code = gain_code;
  j.noise = noise;
  j.deck = with_directives(
      t.render(values),
      std::string(".op\n.ac dec 10 10 1e6\n") +
          (noise ? ".noise mic.outp v_Vinp dec 10 10 100k\n" : ""));
  j.opt.probe_arg = "mic.outp,mic.outn";
  return j;
}

Job DeckFactory::buffer(double amplitude) const {
  std::string deck = replace_card(
      drv_, "v_Vsp", "v_Vsp src_p 0 sin(0 " + num(amplitude) + " 1000)");
  deck = replace_card(deck, "v_Vsn",
                      "v_Vsn src_n 0 sin(0 " + num(-amplitude) + " 1000)");
  Job j;
  j.kind = JobKind::kBuffer;
  j.deck = with_directives(std::move(deck), ".tran 1u 2m\n");
  j.opt.probe_arg = "drv.outp,drv.outn";
  j.opt.pss = true;
  return j;
}

Job DeckFactory::chip_mc(std::uint64_t mc_seed) const {
  Job j;
  j.kind = JobKind::kChipMc;
  j.deck = chip_;
  j.opt.probe_arg = "chip.bg.vref_p";
  j.opt.mc = 4;
  j.opt.mc_seed = mc_seed;
  return j;
}

Job DeckFactory::ladder(num::Rng& rng, int stages) {
  std::string d = "perfbench rc ladder\nv_in n0 0 dc 1 ac 1\n";
  char card[128];
  for (int s = 1; s <= stages; ++s) {
    const double r = rng.uniform(500.0, 5e3);
    const double c = rng.uniform(0.5e-9, 5e-9);
    std::snprintf(card, sizeof card, "r_%d n%d n%d %.9g\nc_%d n%d 0 %.9g\n",
                  s, s - 1, s, r, s, s, c);
    d += card;
    if (rng.uniform() < 0.5) {
      std::snprintf(card, sizeof card, "r_sh%d n%d 0 %.9g\n", s, s,
                    rng.uniform(50e3, 500e3));
      d += card;
    }
  }
  d += ".op\n.ac dec 10 1k 10meg\n.end\n";
  Job j;
  j.kind = JobKind::kLadder;
  j.deck = std::move(d);
  std::snprintf(card, sizeof card, "n%d", stages);
  j.opt.probe_arg = card;
  return j;
}

JobStream::JobStream(const DeckFactory& f, const std::string& workload,
                     std::uint64_t seed, int purpose)
    : f_(f),
      workload_(workload),
      rng_(splitmix(splitmix(seed) ^ static_cast<std::uint64_t>(purpose))) {}

Job JobStream::next() {
  const long i = index_++;
  if (workload_ == "pga-edit")
    return f_.mic_edit(rng_, static_cast<int>(i % core::kMicGainCodes), true);
  if (workload_ == "buffer-thd") {
    // Stratified uniform amplitude over 0.1..0.8 V: each block of 8 jobs
    // draws once from every eighth of the range, so the per-run mix of
    // small and large swings does not depend on the seed's luck.
    if (block_.empty()) {
      for (int s = 0; s < 8; ++s) block_.push_back(s);
      for (std::size_t k = block_.size(); k > 1; --k)
        std::swap(block_[k - 1], block_[below(rng_, k)]);
    }
    const int s = block_.back();
    block_.pop_back();
    return f_.buffer(0.1 + 0.7 * (s + rng_.uniform()) / 8.0);
  }
  if (workload_ == "daemon-mix") return next_mix();
  throw std::runtime_error("unknown workload " + workload_);
}

// Blocks of 10 jobs: 7 mic value edits, 1 chip MC, 2 RC ladders, in a
// seeded order.  Fixed proportions per block keep the heavy chip jobs
// at exactly 10% of every run.
Job JobStream::next_mix() {
  if (block_.empty()) {
    block_ = {0, 0, 0, 0, 0, 0, 0, 1, 2, 2};
    for (std::size_t k = block_.size(); k > 1; --k)
      std::swap(block_[k - 1], block_[below(rng_, k)]);
  }
  const int kind = block_.back();
  block_.pop_back();
  if (kind == 0)
    return f_.mic_edit(
        rng_, static_cast<int>(below(rng_, core::kMicGainCodes)), false);
  // Seeds travel as JSON numbers (doubles): keep them below 2^53.
  if (kind == 1) return f_.chip_mc(rng_.next_u64() >> 12);
  // A quarter of the ladders repeat one of the 16 most recent fresh
  // ladders verbatim: whole-result memo hits beside the misses.
  if (!ladders_.empty() && rng_.uniform() < 0.25) {
    Job j = ladders_[below(rng_, ladders_.size())];
    j.repeat = true;
    return j;
  }
  Job j = DeckFactory::ladder(
      rng_, 2 + static_cast<int>(below(rng_, 30)));
  ladders_.push_back(j);
  if (ladders_.size() > 16) ladders_.erase(ladders_.begin());
  return j;
}

}  // namespace perfbench
