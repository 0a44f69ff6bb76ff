#include "trace.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <optional>

#include "analysis/ac.h"
#include "analysis/montecarlo.h"
#include "analysis/noise.h"
#include "analysis/op.h"
#include "analysis/pss.h"
#include "analysis/structural.h"
#include "circuit/lint.h"
#include "devices/passive.h"
#include "numeric/rng.h"
#include "numeric/units.h"
#include "spicefmt/parser.h"

namespace perfbench {
namespace {

using namespace msim;
using Clock = std::chrono::steady_clock;

// Adds its lifetime to `acc` (ms).
class Span {
 public:
  explicit Span(double& acc) : acc_(acc), t0_(Clock::now()) {}
  ~Span() {
    acc_ += std::chrono::duration<double, std::milli>(Clock::now() - t0_)
                .count();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  double& acc_;
  Clock::time_point t0_;
};

void add_factor_stats(const an::FactorStats& s, LayerTotals& t) {
  t.stamp_ms += s.stamp_ns / 1e6;
  t.factor_ms += s.factor_ns / 1e6;
  t.solve_ms += s.solve_ns / 1e6;
  t.factor_count += s.factor_count;
  t.reuse_count += s.reuse_count;
}

bool solve_op_span(ckt::Netlist& nl, const an::OpOptions& o,
                   LayerTotals& t) {
  an::OpResult op;
  {
    Span s(t.op_ms);
    op = an::solve_op(nl, o);
  }
  ++t.op_solves;
  t.op_newton_iters += op.iterations;
  add_factor_stats(op.solver_stats, t);
  return op.converged;
}

double arg(const spice::AnalysisDirective& d, std::size_t i) {
  return spice::parse_value(d.args.at(i));
}

}  // namespace

bool replay_deck(const Job& job, serve::CacheRegistry& reg, LayerTotals& t) {
  std::optional<spice::ParseResult> parsed;
  {
    Span s(t.parse_ms);
    parsed = spice::parse_netlist(job.deck);
    an::register_analysis_lint_passes();
    if (!parsed->netlist->devices().empty())
      parsed->netlist->assign_unknowns();
  }
  ckt::Netlist& nl = *parsed->netlist;
  serve::AdoptOutcome adopted;
  {
    Span s(t.adopt_ms);
    adopted = reg.adopt_into(nl);
  }
  ckt::LintOptions lint_opt;
  lint_opt.value_dependent_only = adopted.warm && adopted.lint_clean;
  bool lint_clean = false;
  {
    Span s(t.lint_ms);
    lint_clean = ckt::lint(nl, lint_opt).empty();
  }
  bool ok = lint_clean;
  an::OpOptions op_opt;
  op_opt.temp_k = num::celsius_to_kelvin(parsed->temp_c);
  for (const auto& d : parsed->directives) {
    if (!ok) break;
    if (d.kind == "op" && job.opt.mc > 1) {
      // serve::run_deck's Monte-Carlo .op: every sample re-parses the
      // deck, takes a 1% resistor spread, and sample 0 adopts the
      // registry structure.
      const std::string probe =
          job.opt.probe_arg.substr(0, job.opt.probe_arg.find(','));
      const ckt::NodeId pn = nl.find_node(probe);
      Span s(t.mc_ms);
      num::Rng rng(job.opt.mc_seed);
      std::atomic<bool> first{true};
      const auto stats = an::monte_carlo_shared(
          job.opt.mc, rng,
          [&](num::Rng& r, ckt::Netlist& snl) {
            auto sample = spice::parse_netlist(job.deck);
            snl = std::move(*sample.netlist);
            for (const auto& dv : snl.devices())
              if (auto* res = dynamic_cast<dev::Resistor*>(dv.get()))
                res->set_resistance(res->nominal_resistance() *
                                    (1.0 + 0.01 * r.normal()));
            snl.assign_unknowns();
            if (first.exchange(false)) reg.adopt_into(snl);
          },
          [&](ckt::Netlist& snl) {
            const auto op = an::solve_op(snl, op_opt);
            if (!op.converged) return an::McTrial::failed(op.diag);
            return an::McTrial::of(op.v(pn));
          });
      ++t.mc_jobs;
      ok = stats.failures == 0;
    } else if (d.kind == "op") {
      ok = solve_op_span(nl, op_opt, t);
    } else if (d.kind == "ac") {
      ok = solve_op_span(nl, op_opt, t);
      if (!ok) break;
      Span s(t.ac_ms);
      const auto freqs = an::log_frequencies(arg(d, 2), arg(d, 3),
                                             static_cast<int>(arg(d, 1)));
      ok = an::run_ac_diag(nl, freqs, {}).ok();
      t.ac_points += static_cast<long>(freqs.size());
    } else if (d.kind == "noise") {
      ok = solve_op_span(nl, op_opt, t);
      if (!ok) break;
      Span s(t.noise_ms);
      an::NoiseOptions nopt;
      nopt.out_p = nl.node(d.args.at(0));
      nopt.input_source = d.args.at(1);
      nopt.temp_k = op_opt.temp_k;
      const auto freqs = an::log_frequencies(arg(d, 4), arg(d, 5),
                                             static_cast<int>(arg(d, 3)));
      ok = an::run_noise_diag(nl, freqs, nopt).ok();
      t.noise_points += static_cast<long>(freqs.size());
    } else if (d.kind == "tran" && job.opt.pss) {
      an::PssOptions po;
      po.tran.dt = arg(d, 0);
      po.tran.temp_k = op_opt.temp_k;
      an::PssResult r;
      {
        Span s(t.pss_ms);
        r = an::run_pss_shooting(nl, po);
      }
      const auto& tel = r.telemetry;
      ++t.pss_jobs;
      t.pss_periods += tel.periods_integrated;
      t.pss_shooting_iters += tel.shooting_iterations;
      t.phi_solves += tel.phi_solve_count;
      t.tran_newton_iters += tel.tran.newton_iterations;
      t.tran_accepted_steps += tel.tran.accepted_steps;
      t.tran_rejected_steps += tel.tran.rejected_total();
      t.stamp_ms += tel.tran.stamp_ns / 1e6;
      t.factor_ms += tel.tran.factor_ns / 1e6;
      t.solve_ms += tel.tran.solve_ns / 1e6;
      t.factor_count += tel.tran.factor_count;
      t.reuse_count += tel.tran.reuse_count;
      ok = r.ok;
    } else {
      ok = false;  // the workloads use no other directive
    }
  }
  {
    Span s(t.publish_ms);
    reg.publish_from(nl, lint_clean);
  }
  ++t.jobs;
  return ok;
}

namespace {

bool send_all(int fd, const std::string& s) {
  std::size_t off = 0;
  while (off < s.size()) {
    const ssize_t n = ::send(fd, s.data() + off, s.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

// Next newline-terminated JSON message from `fd`.
bool next_message(int fd, std::string& pending, serve::Json& msg) {
  for (;;) {
    const std::size_t nl = pending.find('\n');
    if (nl != std::string::npos) {
      msg = serve::Json::parse(pending.substr(0, nl));
      pending.erase(0, nl + 1);
      return msg.is_object();
    }
    char buf[1 << 16];
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    pending.append(buf, static_cast<std::size_t>(n));
  }
}

}  // namespace

bool submit_timed(const std::string& socket_path, const serve::Json& submit,
                  serve::DeckResult& r, double& ack_ms, std::string* err) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    if (err) *err = std::strerror(errno);
    return false;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, socket_path.c_str(), sizeof addr.sun_path - 1);
  const auto t0 = Clock::now();
  bool ok = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) ==
                0 &&
            send_all(fd, submit.dump() + "\n");
  std::string pending;
  serve::Json msg;
  while (ok && (ok = next_message(fd, pending, msg)) &&
         msg["op"].as_string() != "submit") {
  }
  ack_ms = std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  ok = ok && msg["ok"].as_bool(false);
  const std::string id = msg["id"].as_string();
  while (ok && (ok = next_message(fd, pending, msg)) &&
         !(msg["op"].as_string() == "result" && msg["id"].as_string() == id)) {
  }
  ::close(fd);
  if (!ok) {
    if (err) *err = "daemon submit failed";
    return false;
  }
  r.exit_code = static_cast<int>(msg["exit_code"].as_number(1));
  r.out = msg["out"].as_string();
  r.err = msg["err"].as_string();
  r.warm = msg["warm"].as_bool(false);
  r.result_cached = msg["cached"].as_bool(false);
  return true;
}

}  // namespace perfbench
