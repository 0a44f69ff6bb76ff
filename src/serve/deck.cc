#include "serve/deck.h"

#include <atomic>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <utility>

#include "analysis/ac.h"
#include "analysis/montecarlo.h"
#include "analysis/noise.h"
#include "analysis/op.h"
#include "analysis/op_report.h"
#include "analysis/pss.h"
#include "analysis/range.h"
#include "analysis/structural.h"
#include "analysis/sweep.h"
#include "analysis/transient.h"
#include "circuit/lint.h"
#include "devices/passive.h"
#include "devices/sources.h"
#include "numeric/rng.h"
#include "numeric/units.h"
#include "spicefmt/parser.h"

namespace msim::serve {
namespace {

// printf-into-a-string sink: the directive loop below is msim_cli's
// historical run() with std::printf replaced by out.fmt and
// fprintf(stderr, ...) by err.fmt -- SAME format strings, so the
// captured bytes match a one-shot CLI run exactly.
class Sink {
 public:
  __attribute__((format(printf, 2, 3))) void fmt(const char* f, ...) {
    va_list ap;
    va_start(ap, f);
    char small[512];
    va_list ap2;
    va_copy(ap2, ap);
    const int n = std::vsnprintf(small, sizeof small, f, ap);
    if (n >= 0 && n < static_cast<int>(sizeof small)) {
      buf_.append(small, static_cast<std::size_t>(n));
    } else if (n > 0) {
      std::string big(static_cast<std::size_t>(n) + 1, '\0');
      std::vsnprintf(big.data(), big.size(), f, ap2);
      big.resize(static_cast<std::size_t>(n));
      buf_ += big;
    }
    va_end(ap2);
    va_end(ap);
  }
  void puts(const std::string& s) { buf_ += s; }
  std::string take() { return std::move(buf_); }

 private:
  std::string buf_;
};

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (c == ',') {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

std::vector<ckt::NodeId> resolve_probes(ckt::Netlist& nl,
                                        const std::string& probe_arg,
                                        Sink& err) {
  std::vector<ckt::NodeId> probes;
  if (!probe_arg.empty()) {
    for (const auto& name : split_csv(probe_arg)) {
      const ckt::NodeId n = nl.find_node(name);
      if (n == ckt::kInvalidNode) {
        err.fmt("warning: probe node '%s' not in netlist; ignored\n",
                name.c_str());
        continue;
      }
      probes.push_back(n);
    }
    return probes;
  }
  for (int n = 1; n < nl.node_count() && probes.size() < 8; ++n) {
    const auto& name = nl.node_name(n);
    if (name.rfind('_', 0) == 0) continue;  // skip internal nodes
    probes.push_back(n);
  }
  return probes;
}

void print_probe_header(Sink& out, const ckt::Netlist& nl, const char* x_name,
                        const std::vector<ckt::NodeId>& probes) {
  out.fmt("%s", x_name);
  for (auto p : probes) out.fmt(",v(%s)", nl.node_name(p).c_str());
  out.fmt("\n");
}

double arg_num(const spice::AnalysisDirective& d, std::size_t i) {
  if (i >= d.args.size())
    throw std::runtime_error("missing argument in ." + d.kind);
  return spice::parse_value(d.args[i]);
}

bool finite_positive(double v) { return std::isfinite(v) && v > 0.0; }

// The frequency grid of ".ac dec N f1 f2" / ".noise ... dec N f1 f2".
// Points per decade and both frequencies must be finite and positive
// (an unchecked NaN or huge N reaching the int cast is undefined
// behaviour), N must be an integer as in SPICE (a fractional N would be
// truncated), the sweep must run upward, and the grid must stay under
// the point cap.
std::vector<double> checked_log_grid(const spice::AnalysisDirective& d,
                                     double ppd, double f1, double f2) {
  if (!finite_positive(ppd) || !finite_positive(f1) || !finite_positive(f2))
    throw std::runtime_error(
        "." + d.kind +
        " needs finite, positive points per decade and frequencies");
  if (ppd != std::floor(ppd))
    throw std::runtime_error("." + d.kind +
                             " needs an integer points per decade");
  if (f2 < f1)
    throw std::runtime_error("." + d.kind +
                             " stop frequency is below start frequency");
  if (ppd >= kMaxDirectivePoints ||
      std::abs(std::log10(f2) - std::log10(f1)) * ppd >=
          kMaxDirectivePoints)
    throw std::runtime_error("." + d.kind + " grid exceeds 1e6 points");
  return an::log_frequencies(f1, f2, static_cast<int>(ppd));
}

// Publishes the netlist's solver structure back to the registry when
// the job ends, however it ends (early lint exit, solver failure,
// exception): whatever structure got built is valid and worth keeping.
struct PublishGuard {
  CacheRegistry* reg = nullptr;
  const ckt::Netlist* nl = nullptr;
  bool lint_clean = false;
  ~PublishGuard() {
    if (reg && nl) reg->publish_from(*nl, lint_clean);
  }
};

int run_deck_impl(const std::string& deck_text, const DeckOptions& cli,
                  CacheRegistry* registry, Sink& out, Sink& err,
                  bool& warm) {
  auto parsed = spice::parse_netlist(deck_text);
  auto& nl = *parsed.netlist;
  const double temp_k = num::celsius_to_kelvin(parsed.temp_c);
  const auto probes = resolve_probes(nl, cli.probe_arg, err);

  // Static pre-pass: all registered passes (including the analysis
  // layer's structural-rank check), every issue surfaced, errors abort.
  an::register_analysis_lint_passes();
  if (!nl.devices().empty()) nl.assign_unknowns();

  // Registry warm-up: adopt the shared solver structure for this
  // topology (fingerprint hit + structural-key check) before anything
  // solves, publish whatever this job built on the way out.
  AdoptOutcome adopted;
  PublishGuard publish{registry, &nl, false};
  if (registry && !nl.devices().empty()) {
    adopted = registry->adopt_into(nl);
    warm = adopted.warm;
  }

  ckt::LintOptions lint_opt;
  lint_opt.disable = cli.lint_disable;
  // A warm topology whose priming run's full lint was clean skips the
  // value-independent passes: same fingerprint means the structural
  // passes reproduce the priming run's zero issues.  The value-dependent
  // passes (finite_params, value_range) still run -- the fingerprint
  // excludes device values, so a same-topology deck can smuggle in a
  // NaN parameter or a fresh range violation the priming run never saw,
  // and skipping them would simulate what a cold run refuses.  Either
  // way the issue list matches a cold run of this exact deck.  Any
  // custom pass selection falls back to the full run.
  lint_opt.value_dependent_only =
      adopted.warm && adopted.lint_clean && cli.lint_disable.empty();
  const std::vector<ckt::LintIssue> issues = ckt::lint(nl, lint_opt);
  publish.lint_clean =
      issues.empty() && cli.lint_disable.empty() && !nl.devices().empty();
  if (cli.range_json) {
    // Machine-readable value-range report: interval node bounds,
    // supply hull, headroom, dead devices, conditioning forecast.
    out.fmt("%s\n", an::range_json(an::range_analysis(nl, {})).c_str());
    return ckt::lint_has_errors(issues) ? 3 : 0;
  }
  if (cli.lint_json) {
    out.fmt("%s\n", ckt::lint_json(issues).c_str());
    if (ckt::lint_has_errors(issues)) return 3;
    return issues.empty() ? 0 : (cli.lint_strict ? 3 : 1);
  }
  if (!issues.empty()) err.puts(ckt::lint_report(issues));
  if (ckt::lint_has_errors(issues) ||
      (cli.lint_strict && !issues.empty())) {
    err.fmt("netlist lint failed; not simulating\n");
    return 3;
  }
  if (cli.lint_only) return issues.empty() ? 0 : 1;

  if (parsed.directives.empty()) {
    err.fmt("no analysis directives; running .op\n");
    parsed.directives.push_back({"op", {}});
  }

  // One shared budget across every directive of the run: the wall-clock
  // limit bounds the whole invocation, not each analysis separately.
  // An external budget (daemon cancellation hook) takes precedence.
  core::RunBudget local_budget(cli.budget_ms);
  core::RunBudget* budget_p = cli.budget
                                  ? cli.budget
                                  : (cli.budget_ms > 0.0 ? &local_budget
                                                         : nullptr);

  an::OpOptions op_opt;
  op_opt.temp_k = temp_k;
  op_opt.budget = budget_p;
  // One operating point serves every .op/.ac/.noise directive of the
  // deck: those leave device state exactly as solve_op's save_op left
  // it, so each sees the OP a single-directive deck would solve.  Any
  // other directive drops it (.dc moves a source and re-saves the OP at
  // every sweep point, .tran/PSS advance integration history, MC solves
  // perturbed copies).
  std::optional<an::OpResult> shared_op;
  auto operating_point = [&]() -> const an::OpResult& {
    if (!shared_op) shared_op = an::solve_op(nl, op_opt);
    return *shared_op;
  };

  for (const auto& d : parsed.directives) {
    out.fmt("* .%s", d.kind.c_str());
    for (const auto& a : d.args) out.fmt(" %s", a.c_str());
    out.fmt("  (T = %.1f C)\n", parsed.temp_c);

    if (!((d.kind == "op" && cli.mc <= 1) || d.kind == "ac" ||
          d.kind == "noise"))
      shared_op.reset();

    if (d.kind == "op" && cli.mc > 1) {
      // Monte-Carlo job: N samples of the deck's operating point with a
      // 1% gaussian resistor spread; statistics over the first probe.
      // Sample 0 primes (or adopts from the registry) the shared solver
      // structure, later samples adopt it -- the monte_carlo_shared
      // idiom, so statistics are bit-identical at any thread count.
      //
      // Sample 0 also seeds the operating point: it solves from zero
      // and every later sample starts Newton from its converged x,
      // which a 1% resistor spread leaves a few plain-Newton steps
      // away.  This relies on monte_carlo_shared building and
      // measuring sample 0 serially before any other sample starts,
      // so every later sample reads the same finished seed at any
      // thread count.  Sample 0 is the primer whether or not a
      // registry is attached (only adoption and publication need
      // one), so cold, warm and daemon runs seed alike and print the
      // same bytes.  If sample 0 fails, later samples start from zero;
      // a seeded sample whose plain Newton fails still gets solve_op's
      // gmin/source ladder.
      if (probes.empty()) {
        err.fmt("mc: no probe nodes\n");
        return 1;
      }
      num::Rng rng(cli.mc_seed);
      an::McOptions mo;
      mo.budget = budget_p;
      std::atomic<const ckt::Netlist*> primer{nullptr};
      num::RealVector seed_x;  // written by sample 0 only, read after
      const auto stats = an::monte_carlo_shared(
          cli.mc, rng,
          [&](num::Rng& r, ckt::Netlist& snl) {
            auto sample = spice::parse_netlist(deck_text);
            snl = std::move(*sample.netlist);
            for (const auto& dv : snl.devices())
              if (auto* res = dynamic_cast<dev::Resistor*>(dv.get()))
                res->set_resistance(res->nominal_resistance() *
                                    (1.0 + 0.01 * r.normal()));
            snl.assign_unknowns();
            // The serial sample-0 build adopts the registry structure;
            // every other sample inherits it through the MC driver's
            // own sample-0 adoption.
            const ckt::Netlist* none = nullptr;
            if (primer.compare_exchange_strong(none, &snl) && registry) {
              if (registry->adopt_into(snl).warm) warm = true;
            }
          },
          [&](ckt::Netlist& snl) {
            const bool is_primer = primer.load() == &snl;
            an::OpOptions o = op_opt;
            if (!is_primer) o.initial_guess = seed_x;
            const auto op = an::solve_op(snl, o);
            if (is_primer) {
              if (op.converged) seed_x = op.x;
              // Only the samples solve, never the parent netlist, so
              // the structure sample 0 built is what the registry
              // keeps for the next job over this topology.
              if (registry) registry->publish_from(snl, publish.lint_clean);
            }
            if (!op.converged) return an::McTrial::failed(op.diag);
            return an::McTrial::of(op.v(probes[0]));
          },
          mo);
      out.fmt("mc,%d samples,%d failures\n", cli.mc, stats.failures);
      out.fmt("probe,mean,stddev,min,max\n");
      out.fmt("v(%s),%.6g,%.6g,%.6g,%.6g\n",
              nl.node_name(probes[0]).c_str(), stats.mean(), stats.stddev(),
              stats.min(), stats.max());
      if (budget_p && budget_p->exhausted()) {
        err.fmt("mc truncated: %d of %d samples solved\n",
                static_cast<int>(stats.samples.size()), cli.mc);
        return 4;
      }
    } else if (d.kind == "op") {
      const an::OpResult& op = operating_point();
      if (!op.converged) {
        err.fmt("operating point failed: %s\n", op.diag.message().c_str());
        return 1;
      }
      out.puts(an::op_report(nl, op));
    } else if (d.kind == "dc") {
      if (d.args.empty())
        throw std::runtime_error(".dc needs a source name");
      auto* src = nl.find_as<dev::VSource>(d.args[0]);
      if (!src)
        throw std::runtime_error("source not found: " + d.args[0]);
      const double start = arg_num(d, 1), stop = arg_num(d, 2),
                   step = arg_num(d, 3);
      // A zero, non-finite or wrong-direction step never reaches stop:
      // the loop below would pin a worker (or allocate unboundedly)
      // until the process dies, beyond the reach of cancel/budget
      // checks.  Reject before building the value grid, and cap the
      // point count so a tiny-but-valid step cannot exhaust memory.
      if (!std::isfinite(start) || !std::isfinite(stop) ||
          !std::isfinite(step) || step == 0.0 ||
          (stop - start) * step < 0.0)
        throw std::runtime_error(
            ".dc needs a finite, nonzero step from start toward stop");
      if (std::abs(stop - start) / std::abs(step) >= kMaxDirectivePoints)
        throw std::runtime_error(".dc sweep exceeds 1e6 points");
      print_probe_header(out, nl, "v_sweep", probes);
      std::vector<double> values;
      for (double v = start; v <= stop + 0.5 * step; v += step)
        values.push_back(v);
      const auto sweep = an::dc_sweep(
          nl, values,
          [&](double v) { src->set_waveform(dev::Waveform::dc(v)); },
          op_opt);
      for (const auto& pt : sweep) {
        if (!pt.op.converged) {
          err.fmt("sweep point %g failed: %s\n", pt.value,
                  pt.op.diag.message().c_str());
          continue;
        }
        out.fmt("%g", pt.value);
        for (auto p : probes) out.fmt(",%.6g", pt.op.v(p));
        out.fmt("\n");
      }
    } else if (d.kind == "ac") {
      // .ac dec N fstart fstop
      const auto freqs =
          checked_log_grid(d, arg_num(d, 1), arg_num(d, 2), arg_num(d, 3));
      const an::OpResult& op = operating_point();
      if (!op.converged) {
        err.fmt("operating point failed: %s\n", op.diag.message().c_str());
        return 1;
      }
      an::AcOptions aopt;
      aopt.budget = budget_p;
      const auto ac = an::run_ac_diag(nl, freqs, aopt);
      if (!ac.ok() && !ac.truncated) {
        err.fmt("ac analysis failed: %s\n", ac.diag.message().c_str());
        return 1;
      }
      out.fmt("freq");
      for (auto p : probes)
        out.fmt(",mag(%s),phase_deg(%s)", nl.node_name(p).c_str(),
                nl.node_name(p).c_str());
      out.fmt("\n");
      for (std::size_t i = 0; i < ac.solutions.size(); ++i) {
        out.fmt("%g", freqs[i]);
        for (auto p : probes) {
          const auto v = ac.v(i, p);
          out.fmt(",%.6g,%.4g", std::abs(v), std::arg(v) * 180.0 / M_PI);
        }
        out.fmt("\n");
      }
      if (ac.truncated) {
        err.fmt("ac grid truncated: %s\n", ac.diag.message().c_str());
        return 4;
      }
    } else if (d.kind == "tran") {
      an::TranOptions t;
      t.dt = arg_num(d, 0);
      t.t_stop = arg_num(d, 1);
      // A zero or non-finite step never reaches t_stop, exactly like a
      // degenerate .dc step.
      if (!finite_positive(t.dt) || !finite_positive(t.t_stop))
        throw std::runtime_error(
            ".tran needs a finite, positive step and stop");
      if (t.t_stop / t.dt >= kMaxDirectivePoints)
        throw std::runtime_error(".tran exceeds 1e6 steps");
      t.temp_k = temp_k;
      t.budget = budget_p;
      if (cli.pss) {
        // Shooting-Newton PSS: the deck's tone fixes the period, the
        // .tran step is the sample-spacing request (snapped coherent).
        an::PssOptions po;
        po.tran.dt = t.dt;
        po.tran.temp_k = temp_k;
        po.budget = budget_p;
        const auto r = an::run_pss_shooting(nl, po);
        if (cli.telemetry) err.puts(r.telemetry.summary());
        if (cli.tran_stats) out.fmt("%s\n", r.telemetry.json().c_str());
        if (!r.ok && !r.truncated) {
          err.fmt("pss failed: %s\n", r.diag.message().c_str());
          return 1;
        }
        print_probe_header(out, nl, "time", probes);
        for (std::size_t i = 0; i < r.time.size(); ++i) {
          out.fmt("%g", r.time[i]);
          for (auto p : probes)
            out.fmt(",%.6g", p == ckt::kGround ? 0.0 : r.x[i][p - 1]);
          out.fmt("\n");
        }
        if (r.truncated) {
          err.fmt("pss truncated: %s\n", r.diag.message().c_str());
          return 4;
        }
        continue;
      }
      const an::TranResult res = an::run_transient(nl, t);
      if (cli.telemetry) err.puts(res.telemetry.summary());
      if (cli.tran_stats)
        out.fmt("%s\n", res.telemetry.reuse_stats_json().c_str());
      if (!res.ok && !res.truncated) {
        err.fmt("transient failed: %s\n", res.diag.message().c_str());
        return 1;
      }
      print_probe_header(out, nl, "time", probes);
      for (std::size_t i = 0; i < res.time.size(); ++i) {
        out.fmt("%g", res.time[i]);
        for (auto p : probes)
          out.fmt(",%.6g", p == ckt::kGround ? 0.0 : res.x[i][p - 1]);
        out.fmt("\n");
      }
      if (res.truncated) {
        err.fmt("transient truncated: %s\n", res.diag.message().c_str());
        return 4;
      }
    } else if (d.kind == "noise") {
      // .noise out_node input_src dec N fstart fstop
      if (d.args.size() < 6)
        throw std::runtime_error(
            ".noise out_node input_src dec N fstart fstop");
      const auto freqs =
          checked_log_grid(d, arg_num(d, 3), arg_num(d, 4), arg_num(d, 5));
      const an::OpResult& op = operating_point();
      if (!op.converged) {
        err.fmt("operating point failed: %s\n", op.diag.message().c_str());
        return 1;
      }
      an::NoiseOptions nopt;
      nopt.out_p = nl.node(d.args[0]);
      nopt.input_source = d.args[1];
      nopt.temp_k = temp_k;
      nopt.budget = budget_p;
      const auto res = an::run_noise_diag(nl, freqs, nopt);
      if (!res.ok() && !res.truncated) {
        err.fmt("noise analysis failed: %s\n", res.diag.message().c_str());
        return 1;
      }
      out.fmt("freq,onoise_V2_per_Hz,inoise_V_per_rtHz\n");
      for (const auto& p : res.points)
        out.fmt("%g,%.6g,%.6g\n", p.freq_hz, p.s_out, std::sqrt(p.s_in));
      if (res.truncated) {
        err.fmt("noise grid truncated: %s\n", res.diag.message().c_str());
        return 4;
      }
    } else {
      err.fmt("unsupported directive .%s (skipped)\n", d.kind.c_str());
    }
  }
  return 0;
}

// Whole-result memo payload: "<exit>\n<warm>\n<out bytes>\n<out><err>".
std::string encode_result(const DeckResult& r) {
  std::string s = std::to_string(r.exit_code);
  s += '\n';
  s += r.warm ? '1' : '0';
  s += '\n';
  s += std::to_string(r.out.size());
  s += '\n';
  s += r.out;
  s += r.err;
  return s;
}

bool decode_result(const std::string& s, DeckResult& r) {
  std::size_t p = s.find('\n');
  if (p == std::string::npos) return false;
  std::size_t q = s.find('\n', p + 1);
  if (q == std::string::npos) return false;
  std::size_t z = s.find('\n', q + 1);
  if (z == std::string::npos) return false;
  try {
    r.exit_code = std::stoi(s.substr(0, p));
    r.warm = s[p + 1] == '1';
    const std::size_t nout =
        static_cast<std::size_t>(std::stoul(s.substr(q + 1, z - q - 1)));
    if (z + 1 + nout > s.size()) return false;
    r.out = s.substr(z + 1, nout);
    r.err = s.substr(z + 1 + nout);
  } catch (...) {
    return false;
  }
  return true;
}

}  // namespace

std::string options_signature(const DeckOptions& o) {
  std::ostringstream sig;
  sig << "probe=" << o.probe_arg << "|lo=" << o.lint_only
      << "|lj=" << o.lint_json << "|ls=" << o.lint_strict
      << "|rj=" << o.range_json << "|tel=" << o.telemetry
      << "|ts=" << o.tran_stats << "|pss=" << o.pss << "|mc=" << o.mc
      << "|seed=" << o.mc_seed << "|dis=";
  for (const auto& d : o.lint_disable) sig << d << ',';
  return sig.str();
}

DeckResult run_deck(const std::string& deck_text, const DeckOptions& opt,
                    CacheRegistry* registry) {
  DeckResult r;
  // A job under any budget limit can truncate at a wall-clock-dependent
  // point; its bytes are not a function of (deck, options), so it never
  // touches the whole-result memo.  A cancel-only budget is fine: a
  // fired cancel always surfaces as a non-zero exit, and only exit-0
  // results are stored.
  const bool budget_limited =
      opt.budget_ms > 0.0 ||
      (opt.budget && (opt.budget->max_wall_ms > 0.0 ||
                      opt.budget->max_newton_iterations > 0 ||
                      opt.budget->max_steps > 0));
  std::string key;
  if (registry && opt.use_result_cache && !budget_limited) {
    key = options_signature(opt);
    key += '\x1f';
    key += deck_text;
    if (const auto hit = registry->find_result(key)) {
      if (decode_result(*hit, r)) {
        r.result_cached = true;
        return r;
      }
      r = DeckResult{};
    }
  }
  Sink out, err;
  int code = 1;
  try {
    code = run_deck_impl(deck_text, opt, registry, out, err, r.warm);
  } catch (const std::exception& e) {
    err.fmt("error: %s\n", e.what());
    code = 1;
  }
  r.exit_code = code;
  r.out = out.take();
  r.err = err.take();
  if (!key.empty() && code == 0)
    registry->store_result(key,
                           std::make_shared<const std::string>(encode_result(r)));
  return r;
}

bool read_file(const std::string& path, std::string& out) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return false;
  std::ostringstream ss;
  ss << f.rdbuf();
  out = ss.str();
  return true;
}

bool count_in_range(double v, double cap) {
  return std::isfinite(v) && v >= 0.0 && v < cap && v == std::floor(v);
}

bool parse_cli_args(int argc, const char* const* argv, CliArgs& out) {
  auto split_csv = [](const std::string& s) {
    std::vector<std::string> v;
    std::string cur;
    for (char c : s) {
      if (c == ',') {
        if (!cur.empty()) v.push_back(cur);
        cur.clear();
      } else {
        cur.push_back(c);
      }
    }
    if (!cur.empty()) v.push_back(cur);
    return v;
  };
  DeckOptions& opt = out.opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--probe" && has_value)
      opt.probe_arg = argv[++i];
    else if (a == "--lint-only")
      opt.lint_only = true;
    else if (a == "--lint")
      opt.lint_json = true;
    else if (a == "--lint-strict")
      opt.lint_strict = true;
    else if (a == "--range")
      opt.range_json = true;
    else if (a == "--lint-disable" && has_value)
      opt.lint_disable = split_csv(argv[++i]);
    else if (a == "--no-telemetry")
      opt.telemetry = false;
    else if (a == "--tran-stats")
      opt.tran_stats = true;
    else if (a == "--budget-ms" && has_value) {
      opt.budget_ms = std::strtod(argv[++i], nullptr);
      if (!std::isfinite(opt.budget_ms) || opt.budget_ms < 0.0) return false;
    } else if (a == "--pss")
      opt.pss = true;
    else if (a == "--mc" && has_value) {
      const double v = std::strtod(argv[++i], nullptr);
      if (!count_in_range(v, kMaxDirectivePoints)) return false;
      opt.mc = static_cast<int>(v);
    } else if (a == "--mc-seed" && has_value) {
      const double v = std::strtod(argv[++i], nullptr);
      if (!count_in_range(v, kMaxExactSeed)) return false;
      opt.mc_seed = static_cast<std::uint64_t>(v);
    } else if (a == "--jobs" && has_value)
      out.jobs_path = argv[++i];
    else if (a == "--no-result-cache")
      opt.use_result_cache = false;
    else if (a.size() > 1 && a[0] == '-')
      return false;  // unknown option, or a known one missing its value
    else if (!out.path.empty())
      return false;  // a second deck path
    else
      out.path = a;
  }
  return !out.path.empty() || !out.jobs_path.empty();
}

BatchResult run_batch(const std::vector<std::string>& paths,
                      const DeckOptions& opt, CacheRegistry& registry,
                      std::string& out, std::string& err) {
  BatchResult b;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    out += "* job " + std::to_string(i) + ": " + paths[i] + "\n";
    std::string text;
    if (!read_file(paths[i], text)) {
      err += "error: cannot read " + paths[i] + "\n";
      b.exit_code = std::max(b.exit_code, 2);
      continue;
    }
    const DeckResult r = run_deck(text, opt, &registry);
    out += r.out;
    err += r.err;
    ++b.jobs;
    if (r.warm) ++b.warm_jobs;
    if (r.result_cached) ++b.cached_jobs;
    b.exit_code = std::max(b.exit_code, r.exit_code);
  }
  return b;
}

}  // namespace msim::serve
