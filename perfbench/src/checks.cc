#include "checks.h"

#include <cmath>
#include <complex>
#include <cstdlib>
#include <sstream>
#include <vector>

#include "signal/meter.h"

namespace perfbench {
namespace {

std::vector<double> fields(const std::string& line) {
  std::vector<double> v;
  std::size_t pos = 0;
  while (pos <= line.size()) {
    std::size_t comma = line.find(',', pos);
    if (comma == std::string::npos) comma = line.size();
    v.push_back(std::strtod(line.c_str() + pos, nullptr));
    pos = comma + 1;
  }
  return v;
}

// Lines of the table printed under the first directive header that
// starts with `marker` (e.g. "* .ac"), header row excluded.
std::vector<std::string> section(const std::string& out,
                                 const std::string& marker) {
  std::vector<std::string> rows;
  std::size_t at = out.find(marker);
  if (at == std::string::npos) return rows;
  std::istringstream in(out.substr(at));
  std::string line;
  std::getline(in, line);  // the "* .xx" header
  bool header = false;
  while (std::getline(in, line)) {
    if (line.rfind("* .", 0) == 0) break;
    if (!header) {
      header = line.find(',') != std::string::npos;  // the CSV header
      continue;
    }
    rows.push_back(line);
  }
  return rows;
}

const std::vector<double>* row_at(const std::vector<std::vector<double>>& t,
                                  double x) {
  for (const auto& r : t)
    if (!r.empty() && std::abs(r[0] - x) <= 1e-9 * x) return &r;
  return nullptr;
}

std::vector<std::vector<double>> table(const std::vector<std::string>& rows) {
  std::vector<std::vector<double>> t;
  for (const auto& r : rows) t.push_back(fields(r));
  return t;
}

bool finite(double v) { return std::isfinite(v); }

}  // namespace

Readout read_job(const Job& job, const msim::serve::DeckResult& r) {
  Readout o;
  switch (job.kind) {
    case JobKind::kMicEdit: {
      const auto ac = table(section(r.out, "* .ac"));
      if (const auto* row = row_at(ac, 1e3); row && row->size() >= 5) {
        const double d2r = M_PI / 180.0;
        const auto vp = std::polar((*row)[1], (*row)[2] * d2r);
        const auto vn = std::polar((*row)[3], (*row)[4] * d2r);
        o.gain_db = 20.0 * std::log10(std::abs(vp - vn));
      }
      if (job.noise) {
        double sum = 0.0;
        int n = 0;
        for (const auto& row : table(section(r.out, "* .noise")))
          if (row.size() >= 3 && row[0] >= 300.0 && row[0] <= 3400.0) {
            sum += row[2];
            ++n;
          }
        if (n > 0) o.noise_avg = sum / n;
      }
      break;
    }
    case JobKind::kBuffer: {
      const auto t = table(section(r.out, "* .tran"));
      std::vector<double> w;
      for (const auto& row : t)
        if (row.size() >= 3) w.push_back(row[1] - row[2]);
      if (w.size() > 16) {
        const double dt = t[1][0] - t[0][0];
        o.thd = msim::sig::measure_harmonics(w, dt, 1e3).thd;
      }
      const std::size_t at = r.err.find("residual ");
      if (at != std::string::npos)
        o.pss_residual = std::strtod(r.err.c_str() + at + 9, nullptr);
      break;
    }
    case JobKind::kChipMc: {
      const std::size_t at = r.out.find("\nv(" + job.opt.probe_arg + "),");
      if (at != std::string::npos) {
        const auto f = fields(r.out.substr(r.out.find(',', at) + 1));
        if (f.size() >= 2) {
          o.mc_mean = f[0];
          o.mc_stddev = f[1];
        }
      }
      break;
    }
    case JobKind::kLadder: {
      const auto ac = table(section(r.out, "* .ac"));
      if (const auto* row = row_at(ac, 1e3); row && row->size() >= 2)
        o.ladder_mag = (*row)[1];
      break;
    }
  }
  return o;
}

std::string check_job(const Job& job, const msim::serve::DeckResult& r,
                      Readout* out) {
  if (r.exit_code != 0)
    return "exit code " + std::to_string(r.exit_code) + ": " + r.err;
  const Readout o = read_job(job, r);
  if (out) *out = o;
  switch (job.kind) {
    case JobKind::kMicEdit: {
      // 1% edits on the gain string move the gain by a few 0.01 dB.
      const double ideal = 10.0 + 6.0 * job.gain_code;
      if (!finite(o.gain_db) || std::abs(o.gain_db - ideal) > 0.5)
        return "mic gain " + std::to_string(o.gain_db) + " dB at code " +
               std::to_string(job.gain_code);
      if (job.noise && !(o.noise_avg > 1e-9 && o.noise_avg < 1e-7))
        return "mic noise density " + std::to_string(o.noise_avg);
      break;
    }
    case JobKind::kBuffer:
      if (!(o.thd > 0.0 && o.thd < 0.1))
        return "buffer thd " + std::to_string(o.thd);
      // The shooting tolerance is 1e-7 + 1e-6 * max|x| with |x| < 1.3 V.
      if (!(o.pss_residual >= 0.0 && o.pss_residual <= 1.5e-6))
        return "pss residual " + std::to_string(o.pss_residual);
      break;
    case JobKind::kChipMc:
      if (!(o.mc_mean > 0.5 && o.mc_mean < 0.7 && o.mc_stddev > 0.0 &&
            o.mc_stddev < 0.05))
        return "chip mc " + std::to_string(o.mc_mean) + " +- " +
               std::to_string(o.mc_stddev);
      break;
    case JobKind::kLadder:
      if (!(o.ladder_mag > 0.0 && o.ladder_mag <= 1.0 + 1e-9))
        return "ladder |v| " + std::to_string(o.ladder_mag);
      break;
  }
  return {};
}

void add_to_digest(const Job& job, const Readout& r, const std::string& p,
                   std::map<std::string, double>& d) {
  switch (job.kind) {
    case JobKind::kMicEdit:
      d[p + ".gain_db"] = r.gain_db;
      if (job.noise) d[p + ".noise_avg"] = r.noise_avg;
      break;
    case JobKind::kBuffer:
      d[p + ".thd"] = r.thd;
      break;
    case JobKind::kChipMc:
      d[p + ".mc_mean"] = r.mc_mean;
      d[p + ".mc_stddev"] = r.mc_stddev;
      break;
    case JobKind::kLadder:
      d[p + ".ladder_mag"] = r.ladder_mag;
      break;
  }
}

std::string compare_digest(const std::map<std::string, double>& got,
                           const std::map<std::string, double>& want) {
  if (got.size() != want.size())
    return "digest has " + std::to_string(want.size()) + " entries, run has " +
           std::to_string(got.size());
  for (const auto& [key, w] : want) {
    const auto it = got.find(key);
    if (it == got.end()) return "digest entry " + key + " not produced";
    const double g = it->second;
    // Tolerances sit at the printed precision of the quantity (6
    // significant digits; THD is a small difference of such values).
    double tol = 1e-4 * std::abs(w);
    if (key.ends_with(".gain_db")) tol = 1e-3;
    if (key.ends_with(".thd")) tol = 2e-3 * std::abs(w) + 1e-9;
    if (key.ends_with(".mc_stddev")) tol = 1e-3 * std::abs(w);
    if (!(std::abs(g - w) <= tol))
      return "digest " + key + ": got " + std::to_string(g) + ", want " +
             std::to_string(w);
  }
  return {};
}

std::string strip_timing(const std::string& s) {
  std::string out;
  std::istringstream in(s);
  std::string line;
  while (std::getline(in, line))
    if (line.find("solver time") == std::string::npos &&
        line.find("Phi ride-along") == std::string::npos)
      out += line + '\n';
  return out;
}

}  // namespace perfbench
