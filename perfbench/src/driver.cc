// perfbench_driver: one workload, one seed, one process.
//
//   perfbench_driver --workload pga-edit|buffer-thd|daemon-mix --seed N
//                    --seconds S --trace 0|1 --digest FILE
//   perfbench_driver --workload W --write-digest FILE
//
// A run starts and primes the program, checks identity and the
// fixed-seed digest, then drives the workload's closed loop for S
// seconds, with fresh timed cold starts (setup_s) spread through it.
// The last stdout line is the JSON verdict: end-to-end metrics with
// --trace 0, per-layer metrics with --trace 1.
#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "checks.h"
#include "decks.h"
#include "numeric/sparse.h"
#include "serve/deck.h"
#include "serve/json.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "trace.h"

namespace perfbench {
namespace {

using namespace msim;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// The digest and the priming decks use fixed seeds, whatever seed the
// run was given: set-up then does the same work on every run.
constexpr std::uint64_t kDigestSeed = 1995;
constexpr std::uint64_t kPrimeSeed = 1995;
// daemon-mix scheduler workers.  Every workload has one closed-loop
// client: with two daemon clients both workers stay busy, and on a host
// with CPU steal that made daemon-mix's A/A spread exceed its bounds
// (see README.md).
constexpr int kDaemonWorkers = 2;

struct Workload {
  std::string name;
  int setup_starts;     // fresh cold starts behind setup_s's median, one
                        // before each equal slice of the timed loop
  double tail_pct;      // tail_ms percentile, fixed per workload
  int identity_jobs;    // cold-vs-warm (or daemon-vs-direct) pairs
  int digest_jobs;      // fixed-seed jobs checked against the digest
  long warmup_jobs;     // untimed jobs before the timed loop
  long rss_jobs;        // peak_rss_mb is read after this many timed jobs
};

// Each warm-up is about a second of work on a 4-core x86 host, and a
// whole number of the generators' blocks (6 gain codes, 8 amplitude
// strata, 10 mix slots), so the timed loop starts at a block boundary.
// rss_jobs is about a third of the jobs a 25 s run completes on that
// host, so the reading covers the memo's and registry's growth under
// the timed stream, yet does not depend on how fast the program is.
const Workload kWorkloads[] = {
    {"pga-edit", 30, 95.0, 6, 6, 300, 3000},
    {"buffer-thd", 30, 90.0, 2, 2, 16, 120},
    {"daemon-mix", 30, 95.0, 10, 10, 50, 500},
};

// Job accounting and every failed check of the run.
class Verdict {
 public:
  void check(const std::string& failure) {
    ++attempted_;
    if (failure.empty()) return;
    ++failed_;
    std::fprintf(stderr, "perfbench: FAILED: %.400s\n", failure.c_str());
  }
  long attempted() const { return attempted_; }
  long failed() const { return failed_; }

 private:
  long attempted_ = 0;
  long failed_ = 0;
};

std::string job_key(const Job& j) {
  return serve::options_signature(j.opt) + '\x1f' + j.deck;
}

serve::Json submit_json(const Job& j) {
  serve::Json s = serve::Json::object();
  s.set("op", "submit");
  s.set("deck", j.deck);
  s.set("probe", j.opt.probe_arg);
  s.set("pss", j.opt.pss);
  s.set("mc", j.opt.mc);
  s.set("mc_seed", static_cast<double>(j.opt.mc_seed));
  return s;
}

serve::DeckResult submit(const std::string& sock, const Job& j) {
  serve::DeckResult r;
  std::string err;
  r.exit_code = serve::submit_and_wait(sock, submit_json(j), r.out, r.err,
                                       &err, &r.warm, &r.result_cached);
  if (r.exit_code < 0) r.err = "daemon: " + err;
  return r;
}

std::string same_bytes(const serve::DeckResult& a,
                       const serve::DeckResult& b) {
  if (a.exit_code != b.exit_code) return "exit codes differ";
  if (strip_timing(a.out) != strip_timing(b.out)) return "stdout differs";
  if (strip_timing(a.err) != strip_timing(b.err)) return "stderr differs";
  return {};
}

// Nearest-rank percentile.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * v.size()));
  return v[std::max<std::size_t>(rank, 1) - 1];
}

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

// Samples strictly beyond the nearest-rank percentile.
long beyond(std::size_t n, double p) {
  return static_cast<long>(n) -
         static_cast<long>(std::ceil(p / 100.0 * static_cast<double>(n)));
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return u.ru_maxrss / 1024.0;
}

// Reads peak_rss_mb once the timed loop has run `at` jobs.
struct RssProbe {
  long at = 0;
  long done = 0;
  double mb = 0.0;
  void job_done() {
    if (++done == at) mb = peak_rss_mb();
  }
};

// Keeps the calling thread on the quickest core.  On a shared host a
// core runs up to ~1.8x slower while a neighbour's work shares its
// physical core, for spells of milliseconds to seconds, and each core
// has its own spells.  A single-client loop that stays where the kernel
// put it inherits one core's spells, so its latencies mix two speeds in
// proportions that change from run to run.  pick() times a short fixed
// kernel on every core the process may use and pins the thread to the
// quickest, so the loop measures the program rather than the neighbours.
// With `whole_process`, every thread of the process follows the client:
// a daemon job passes from the client to the daemon's reader and worker
// threads and back, one thread at a time, so on one core each hand-off
// is a plain switch rather than a wake-up of another, possibly idle or
// slow, core.
class QuietCore {
 public:
  explicit QuietCore(bool whole_process) : whole_process_(whole_process) {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &set)) cpus_.push_back(c);
  }
  void pick() {
    if (cpus_.size() < 2) return;
    int best = cpus_[0];
    double best_ms = 1e300;
    for (int c : cpus_) {
      pin(c);
      const double ms = std::min(probe_ms(), probe_ms());
      if (ms < best_ms) {
        best_ms = ms;
        best = c;
      }
    }
    pin(best);
    if (whole_process_) pin_process(best);
    best_ms_.push_back(best_ms);
  }
  // The quickest core's probe times, one per pick: the host's speed
  // over the run.
  const std::vector<double>& best_ms() const { return best_ms_; }

 private:
  static void pin(int cpu, pid_t tid = 0) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(tid, sizeof one, &one);
  }
  // Threads started later inherit their starter's core; a thread that
  // ends meanwhile just fails its call.
  static void pin_process(int cpu) {
    DIR* d = opendir("/proc/self/task");
    if (!d) return;
    while (const dirent* e = readdir(d)) {
      const pid_t tid = static_cast<pid_t>(std::atoi(e->d_name));
      if (tid > 0) pin(cpu, tid);
    }
    closedir(d);
  }
  // About 50 us of dependent floating-point work over an L1-sized array.
  double probe_ms() {
    const auto t0 = Clock::now();
    double acc = 0.0;
    for (int pass = 0; pass < 16; ++pass)
      for (double& x : buf_) {
        acc += x * 1.0000001;
        x = acc * 1e-9 + 1.0;
      }
    sink_ = acc;
    return ms_since(t0);
  }

  bool whole_process_;
  std::vector<int> cpus_;
  std::vector<double> best_ms_;
  std::vector<double> buf_ = std::vector<double>(4096, 1.0);
  volatile double sink_ = 0.0;
};
// How long the client stays on a core before it looks again.
constexpr double kRepickMs = 200.0;

// The cold priming jobs: one per topology the workload uses.
std::vector<Job> prime_jobs(const DeckFactory& f, const std::string& w) {
  JobStream s(f, w, kPrimeSeed, kPrime);
  if (w != "daemon-mix") return {s.next()};
  std::vector<Job> jobs;
  for (JobKind k : {JobKind::kMicEdit, JobKind::kChipMc, JobKind::kLadder}) {
    Job j = s.next();
    while (j.kind != k) j = s.next();
    jobs.push_back(std::move(j));
  }
  return jobs;
}

// ---- generator guards -------------------------------------------------

void check_generator(const DeckFactory& f, const std::string& w,
                     std::uint64_t seed, Verdict& v) {
  JobStream a(f, w, seed, kTimed), b(f, w, seed, kTimed),
      c(f, w, seed + 1, kTimed);
  std::string failure;
  for (int i = 0; i < 12 && failure.empty(); ++i) {
    const std::string ka = job_key(a.next());
    if (ka != job_key(b.next())) failure = "same seed gave different decks";
    if (ka == job_key(c.next())) failure = "different seeds gave one deck";
  }
  v.check(failure);
}

// ---- digest -------------------------------------------------------------

std::map<std::string, double> run_digest(const DeckFactory& f,
                                         const Workload& w, Verdict& v) {
  std::map<std::string, double> d;
  JobStream s(f, w.name, kDigestSeed, kTimed);
  for (int i = 0; i < w.digest_jobs; ++i) {
    const Job j = s.next();
    Readout ro;
    v.check(check_job(j, serve::run_deck(j.deck, j.opt), &ro));
    add_to_digest(j, ro, std::to_string(i), d);
  }
  return d;
}

bool load_digest(const std::string& path, serve::Json& out) {
  std::string text;
  if (!serve::read_file(path, text)) return false;
  out = serve::Json::parse(text);
  return out.is_object();
}

void check_digest(const DeckFactory& f, const Workload& w,
                  const std::string& path, Verdict& v) {
  serve::Json all;
  std::map<std::string, double> want;
  if (load_digest(path, all))
    for (const auto& [k, val] : all[w.name].members())
      want[k] = val.as_number();
  const auto got = run_digest(f, w, v);
  v.check(want.empty() ? "no digest for " + w.name + " in " + path
                       : compare_digest(got, want));
}

int write_digest(const DeckFactory& f, const Workload& w,
                 const std::string& path) {
  serve::Json all;
  if (!load_digest(path, all)) all = serve::Json::object();
  Verdict v;
  serve::Json entry = serve::Json::object();
  for (const auto& [k, val] : run_digest(f, w, v)) entry.set(k, val);
  if (v.failed() > 0) return 1;
  all.set(w.name, entry);
  std::ofstream(path) << all.dump() << "\n";
  return 0;
}

// ---- closed loops -------------------------------------------------------

const char* kind_name(const Job& j) {
  switch (j.kind) {
    case JobKind::kMicEdit: return "mic";
    case JobKind::kBuffer: return "buffer";
    case JobKind::kChipMc: return "chip-mc";
    case JobKind::kLadder: return j.repeat ? "ladder-repeat" : "ladder";
  }
  return "?";
}

struct LoopStats {
  std::vector<double> latency_ms;
  std::map<std::string, std::vector<double>> by_kind;
  double wall_s = 0.0;
  long memo_hits = 0;
  long mc_jobs = 0;
  long mc_warm = 0;
  LayerTotals layers;              // traced loops only
  std::vector<double> ack_ms;      // traced daemon loop only
  std::vector<double> roundtrip_overhead_ms;

  void add(const Job& j, const serve::DeckResult& r, double ms) {
    latency_ms.push_back(ms);
    by_kind[kind_name(j)].push_back(ms);
    memo_hits += r.result_cached ? 1 : 0;
    if (j.kind == JobKind::kChipMc) {
      ++mc_jobs;
      mc_warm += r.warm ? 1 : 0;
    }
  }
};

// A loop runs until `seconds` have passed or `jobs` jobs were started.
struct StopRule {
  double seconds = 1e9;
  long jobs = -1;
};

// Where a loop sends its jobs: run_deck on `reg`, or the daemon socket.
struct Target {
  serve::CacheRegistry* reg = nullptr;
  std::string sock;
};

// The traced loop's registries: the replay's own, and for daemon jobs
// the shadow that runs each job directly (roundtrip overhead = daemon
// latency - direct time).
struct Tracer {
  serve::CacheRegistry replay;
  serve::CacheRegistry shadow;
};

// One closed-loop client: the next job goes out when the previous one
// has returned.  Adds the loop's jobs and wall to `st`.  With `unique`,
// a repeated deck or a memo hit fails the job.  With `tr`, every job is
// replayed span by span after it ran.  With `core`, the client moves
// to the quickest core every kRepickMs; the picks are not in the wall.
void closed_loop(JobStream& stream, const Target& to, StopRule stop,
                 Verdict& v, std::unordered_set<std::size_t>* unique,
                 Tracer* tr, QuietCore* core, RssProbe* rss, LoopStats& st) {
  const auto t0 = Clock::now();
  auto on_core = t0;
  double pick_ms = 0.0;
  for (long n = 0; n != stop.jobs && ms_since(t0) < 1e3 * stop.seconds;
       ++n) {
    if (core && (n == 0 || ms_since(on_core) >= kRepickMs)) {
      const auto tp = Clock::now();
      core->pick();
      on_core = Clock::now();
      pick_ms += ms_since(tp);
    }
    const Job j = stream.next();
    if (unique && !unique->insert(std::hash<std::string>{}(job_key(j))).second)
      v.check("duplicate timed deck");
    serve::DeckResult r;
    double ack_ms = 0.0;
    const auto tj = Clock::now();
    if (to.reg) {
      r = serve::run_deck(j.deck, j.opt, to.reg);
    } else if (tr) {
      std::string err;
      if (!submit_timed(to.sock, submit_json(j), r, ack_ms, &err)) {
        r.exit_code = -1;
        r.err = err;
      }
    } else {
      r = submit(to.sock, j);
    }
    const double ms = ms_since(tj);
    st.add(j, r, ms);
    std::string failure = check_job(j, r);
    if (failure.empty() && unique && r.result_cached)
      failure = "accidental memo hit";
    if (failure.empty() && tr) {
      double parent_ms = ms;
      bool memo = r.result_cached;
      if (!to.reg) {
        st.ack_ms.push_back(ack_ms);
        const auto td = Clock::now();
        memo = serve::run_deck(j.deck, j.opt, &tr->shadow).result_cached;
        parent_ms = ms_since(td);
        st.roundtrip_overhead_ms.push_back(ms - parent_ms);
      }
      // Memo-served jobs ran no layer below the memo: nothing to replay.
      if (!memo) {
        st.layers.parent_ms += parent_ms;
        if (!replay_deck(j, tr->replay, st.layers)) failure = "replay failed";
      }
    }
    v.check(failure);
    if (rss) rss->job_done();
  }
  st.wall_s += (ms_since(t0) - pick_ms) / 1e3;
}

// ---- the run ------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_verdict(const Verdict& v, const std::vector<Metric>& metrics) {
  std::string m;
  for (const auto& x : metrics) {
    char buf[128];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  m.empty() ? "" : ", ", x.name.c_str(),
                  std::isfinite(x.value) ? x.value : 0.0, x.unit.c_str());
    m += buf;
  }
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": {%s}}\n",
              v.failed() == 0 ? "true" : "false", v.attempted(), v.failed(),
              m.c_str());
  std::fflush(stdout);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  int trace = 0;
  std::string digest;
  std::string write_digest;
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Registry counters over one loop.
struct RegistryDelta {
  serve::RegistryStats a;
  explicit RegistryDelta(serve::CacheRegistry& r) : a(r.stats()) {}
  void finish(serve::CacheRegistry& r) {
    const auto b = r.stats();
    lookups = (b.hits + b.misses) - (a.hits + a.misses);
    hits = b.hits - a.hits;
    memo_lookups =
        (b.result_hits + b.result_misses) - (a.result_hits + a.result_misses);
    memo_hits = b.result_hits - a.result_hits;
    evictions = (b.evictions + b.result_evictions) -
                (a.evictions + a.result_evictions);
  }
  long lookups = 0, hits = 0, memo_lookups = 0, memo_hits = 0, evictions = 0;
};

int run(const Args& a) {
  const Workload* wp = nullptr;
  for (const auto& w : kWorkloads)
    if (w.name == a.workload) wp = &w;
  if (!wp) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 a.workload.c_str());
    return 2;
  }
  const Workload& w = *wp;
  const DeckFactory f;
  if (!a.write_digest.empty()) return write_digest(f, w, a.write_digest);

  Verdict v;
  const bool daemon = w.name == "daemon-mix";
  const std::string sock = ".bench_build/perfbench-" +
                           std::to_string(::getpid()) + ".sock";

  // A fresh start: a registry, or a daemon on `path`, plus one cold
  // priming job per topology the workload uses.  Returns its seconds,
  // or a negative value when the daemon did not start.  Deck generation
  // is excluded.
  const std::vector<Job> primes = prime_jobs(f, w.name);
  const auto start = [&](const std::string& path,
                         std::unique_ptr<serve::CacheRegistry>& reg,
                         std::unique_ptr<serve::Server>& server) {
    const auto t0 = Clock::now();
    std::vector<serve::DeckResult> results;
    if (daemon) {
      serve::ServerOptions so;
      so.socket_path = path;
      so.workers = kDaemonWorkers;
      server = std::make_unique<serve::Server>(so);
      std::string err;
      if (!server->start(&err)) {
        std::fprintf(stderr, "perfbench: daemon start: %s\n", err.c_str());
        return -1.0;
      }
      for (const auto& j : primes) results.push_back(submit(path, j));
    } else {
      reg = std::make_unique<serve::CacheRegistry>();
      for (const auto& j : primes)
        results.push_back(serve::run_deck(j.deck, j.opt, reg.get()));
    }
    const double s = ms_since(t0) / 1e3;
    for (std::size_t k = 0; k < primes.size(); ++k)
      v.check(check_job(primes[k], results[k]));
    return s;
  };
  std::unique_ptr<serve::CacheRegistry> reg;
  std::unique_ptr<serve::Server> server;
  if (start(sock, reg, server) < 0.0) return 1;
  serve::CacheRegistry& registry = daemon ? server->registry() : *reg;

  // Checks outside the timed loop.
  check_generator(f, w.name, a.seed, v);
  check_digest(f, w, a.digest, v);
  {
    JobStream ids(f, w.name, a.seed, kIdentity);
    for (int i = 0; i < w.identity_jobs; ++i) {
      const Job j = ids.next();
      const serve::DeckResult cold = serve::run_deck(j.deck, j.opt);
      v.check(check_job(j, cold));
      serve::DeckResult other;
      if (daemon) {
        other = submit(sock, j);
      } else {
        serve::DeckOptions o = j.opt;
        o.use_result_cache = false;
        other = serve::run_deck(j.deck, o, &registry);
        if (!other.warm) other.err += "\n(warm run did not adopt)";
      }
      std::string failure = check_job(j, other);
      if (failure.empty()) failure = same_bytes(cold, other);
      v.check(failure.empty() ? failure
                              : (daemon ? "daemon vs direct: " : "cold vs warm: ") +
                                    failure);
    }
  }

  JobStream stream(f, w.name, a.seed, kTimed);
  // daemon-mix repeats ladder decks on purpose; the others never repeat.
  std::unordered_set<std::size_t> seen;
  const Target to{daemon ? nullptr : &registry, sock};
  // The client stays on the quickest core; on daemon-mix the daemon's
  // threads go with it.
  QuietCore core(daemon);
  const auto loop = [&](StopRule stop, Tracer* tr, RssProbe* rss,
                        LoopStats& st) {
    closed_loop(stream, to, stop, v, daemon ? nullptr : &seen, tr, &core,
                rss, st);
  };
  // Warm-up: fixed work, so caches are filled before timing.
  {
    LoopStats warm;
    loop({1e9, w.warmup_jobs}, nullptr, nullptr, warm);
  }

  std::vector<Metric> metrics;
  if (a.trace == 0) {
    // The timed loop in setup_starts equal slices, each after a fresh
    // cold start beside the serving one: the set-up samples spread over
    // the run like the jobs do, rather than sharing the first second's
    // host speed.
    long searches = 0;
    RegistryDelta rd(registry);
    LoopStats st;
    RssProbe rss{w.rss_jobs};
    std::vector<double> starts;
    for (int i = 0; i < w.setup_starts; ++i) {
      {
        std::unique_ptr<serve::CacheRegistry> cold_reg;
        std::unique_ptr<serve::Server> cold_server;
        starts.push_back(start(sock + ".setup", cold_reg, cold_server));
      }
      if (starts.back() < 0.0) return 1;
      const long s0 = num::sparse_search_count();
      loop({a.seconds / w.setup_starts}, nullptr, &rss, st);
      searches += num::sparse_search_count() - s0;
    }
    rd.finish(registry);
    const auto n = st.latency_ms.size();
    if (rss.done < rss.at) {
      rss.mb = peak_rss_mb();
      std::fprintf(stderr, "perfbench: warning: peak_rss_mb read after "
                   "%ld timed jobs, not %ld\n", rss.done, rss.at);
    }
    std::printf("perfbench: %s seed %llu: %zu jobs in %.3f s, tail p%g "
                "with %ld samples beyond, %ld memo hits, %ld registry "
                "hits of %ld, %ld pattern searches, setup median of %d, "
                "peak RSS after %ld jobs\n",
                w.name.c_str(), static_cast<unsigned long long>(a.seed), n,
                st.wall_s, w.tail_pct, beyond(n, w.tail_pct), st.memo_hits,
                rd.hits, rd.lookups, searches, w.setup_starts,
                std::min(rss.done, rss.at));
    std::printf("perfbench: latency percentiles p10 %.4g, p25 %.4g, p75 %.4g, "
                "p90 %.4g, p95 %.4g, p99 %.4g ms; %ld MC jobs, %ld of them "
                "warm\n",
                percentile(st.latency_ms, 10), percentile(st.latency_ms, 25),
                percentile(st.latency_ms, 75),
                percentile(st.latency_ms, 90), percentile(st.latency_ms, 95),
                percentile(st.latency_ms, 99), st.mc_jobs, st.mc_warm);
    for (const auto& [k, lat] : st.by_kind)
      std::printf("perfbench: %s jobs: %zu, p50 %.4g ms\n", k.c_str(),
                  lat.size(), median(lat));
    std::printf("perfbench: quickest-core probe p50 %.4g us, p90 %.4g us "
                "over %zu picks\n", 1e3 * median(core.best_ms()),
                1e3 * percentile(core.best_ms(), 90), core.best_ms().size());
    if (beyond(n, w.tail_pct) < 10)
      std::fprintf(stderr, "perfbench: warning: tail p%g has fewer than 10 "
                   "samples beyond it\n", w.tail_pct);
    metrics = {
        {"jobs_per_s", n / st.wall_s, "1/s"},
        {"p50_ms", median(st.latency_ms), "ms"},
        {"tail_ms", percentile(st.latency_ms, w.tail_pct), "ms"},
        {"setup_s", median(starts), "s"},
        {"peak_rss_mb", rss.mb, "MB"},
    };
  } else {
    // A third of the time untraced (counters, and the baseline the
    // trace's overhead is read against), then the traced loop.
    const long s0 = num::sparse_search_count();
    RegistryDelta rd(registry);
    LoopStats plain;
    loop({a.seconds / 3.0}, nullptr, nullptr, plain);
    rd.finish(registry);
    const long searches = num::sparse_search_count() - s0;

    // The replay and shadow registries start primed like the parent's,
    // so their warm/cold pattern follows it.
    Tracer tr;
    for (const auto& j : primes) {
      LayerTotals scratch;
      replay_deck(j, tr.replay, scratch);
      serve::run_deck(j.deck, j.opt, &tr.shadow);
    }
    LoopStats st;
    loop({2.0 * a.seconds / 3.0}, &tr, nullptr, st);
    const LayerTotals& t = st.layers;
    const double jobs = static_cast<double>(t.jobs);
    const double plain_n = static_cast<double>(plain.latency_ms.size());
    std::printf("perfbench: %s seed %llu traced: %ld replayed jobs, %zu "
                "untraced jobs\n",
                w.name.c_str(), static_cast<unsigned long long>(a.seed),
                t.jobs, plain.latency_ms.size());
    metrics = {
        {"trace.jobs", jobs, "count"},
        {"serve.run_deck_ms", ratio(t.parent_ms, jobs), "ms"},
        {"spicefmt.parse_ms", ratio(t.parse_ms, jobs), "ms"},
        {"circuit.lint_ms", ratio(t.lint_ms, jobs), "ms"},
        {"serve.adopt_ms", ratio(t.adopt_ms, jobs), "ms"},
        {"serve.publish_ms", ratio(t.publish_ms, jobs), "ms"},
        {"serve.registry_lookups", static_cast<double>(rd.lookups), "count"},
        {"serve.registry_hit_ratio", ratio(rd.hits, rd.lookups), "ratio"},
        {"serve.memo_lookups", static_cast<double>(rd.memo_lookups), "count"},
        {"serve.memo_hits", static_cast<double>(rd.memo_hits), "count"},
        {"serve.memo_hit_ratio", ratio(rd.memo_hits, rd.memo_lookups),
         "ratio"},
        {"serve.evictions", static_cast<double>(rd.evictions), "count"},
        {"serve.mc_jobs", static_cast<double>(plain.mc_jobs), "count"},
        {"serve.mc_warm_jobs", static_cast<double>(plain.mc_warm), "count"},
        {"numeric.pattern_searches_per_job", ratio(searches, plain_n),
         "count"},
        {"analysis.op_ms", ratio(t.op_ms, jobs), "ms"},
        {"analysis.op_solves_per_job", ratio(t.op_solves, jobs), "count"},
        {"analysis.op_newton_iters", ratio(t.op_newton_iters, t.op_solves),
         "count"},
        {"analysis.ac_ms_per_point", ratio(t.ac_ms, t.ac_points), "ms"},
        {"analysis.ac_points_per_job", ratio(t.ac_points, jobs), "count"},
        {"analysis.noise_ms_per_point", ratio(t.noise_ms, t.noise_points),
         "ms"},
        {"analysis.noise_points_per_job", ratio(t.noise_points, jobs),
         "count"},
        {"analysis.mc_ms", ratio(t.mc_ms, t.mc_jobs), "ms"},
        {"analysis.pss_ms", ratio(t.pss_ms, t.pss_jobs), "ms"},
        {"analysis.pss_periods", ratio(t.pss_periods, t.pss_jobs), "count"},
        {"analysis.pss_shooting_iters",
         ratio(t.pss_shooting_iters, t.pss_jobs), "count"},
        {"analysis.phi_solves", ratio(t.phi_solves, t.pss_jobs), "count"},
        {"analysis.tran_newton_iters", ratio(t.tran_newton_iters, t.pss_jobs),
         "count"},
        {"analysis.tran_accepted_steps",
         ratio(t.tran_accepted_steps, t.pss_jobs), "count"},
        {"analysis.tran_rejected_steps",
         ratio(t.tran_rejected_steps, t.pss_jobs), "count"},
        {"numeric.stamp_ms", ratio(t.stamp_ms, jobs), "ms"},
        {"numeric.factor_ms", ratio(t.factor_ms, jobs), "ms"},
        {"numeric.solve_ms", ratio(t.solve_ms, jobs), "ms"},
        {"numeric.factor_count", ratio(t.factor_count, jobs), "count"},
        {"numeric.reuse_ratio",
         ratio(t.reuse_count, t.factor_count + t.reuse_count), "ratio"},
        {"serve.deck_self_ms", ratio(t.parent_ms - t.spans_ms(), jobs), "ms"},
        {"serve.roundtrip_overhead_ms", median(st.roundtrip_overhead_ms),
         "ms"},
        {"serve.ack_ms", median(st.ack_ms), "ms"},
        {"trace.coverage", ratio(t.spans_ms(), t.parent_ms), "ratio"},
        {"trace.overhead",
         ratio(median(st.latency_ms), median(plain.latency_ms)) - 1.0, "ratio"},
    };
  }
  if (server) server->shutdown();
  print_verdict(v, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], val = argv[i + 1];
    if (k == "--workload") a.workload = val;
    else if (k == "--seed") a.seed = std::stoull(val);
    else if (k == "--seconds") a.seconds = std::stod(val);
    else if (k == "--trace") a.trace = std::stoi(val);
    else if (k == "--digest") a.digest = val;
    else if (k == "--write-digest") a.write_digest = val;
    else {
      std::fprintf(stderr, "perfbench: unknown option %s\n", k.c_str());
      return 2;
    }
  }
  try {
    return perfbench::run(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
