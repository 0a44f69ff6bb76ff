// Serve layer: JSON protocol codec, the cross-request solver-cache
// registry (adopt/publish/collision-guard/LRU), the shared deck runner
// (CLI-equivalent bytes, warm zero-search repeats, whole-result memo,
// Monte-Carlo mode), msim_cli's argument parser, the work-stealing
// scheduler (bit-identity at any worker count) and the Unix-socket
// daemon end to end (including refusal of out-of-range request fields).
//
// Run under TSan by tools/run_static_checks.sh: the concurrent
// adopt/evict stress and the daemon smoke are the data-race gates for
// the shared-immutable cache design.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/mna.h"
#include "analysis/montecarlo.h"
#include "analysis/op.h"
#include "bench_util.h"
#include "core/budget.h"
#include "devices/passive.h"
#include "numeric/rng.h"
#include "numeric/sparse.h"
#include "serve/deck.h"
#include "serve/json.h"
#include "serve/registry.h"
#include "serve/scheduler.h"
#include "serve/server.h"
#include "spicefmt/parser.h"
#include "spicefmt/writer.h"

namespace {

using namespace msim;
using serve::CacheRegistry;
using serve::DeckOptions;
using serve::DeckResult;
using serve::Json;

// -------------------------------------------------------------------
// Test decks (all lint-clean).

// Divider + .op only.
constexpr const char* kOpDeck =
    "* divider\n"
    "v1 in 0 dc 1.0\n"
    "r1 in out 1k\n"
    "r2 out 0 1k\n"
    ".op\n"
    ".end\n";

// RC low-pass, .op + .ac (exercises the shared AC slot pass).
constexpr const char* kAcDeck =
    "* rc low-pass\n"
    "v1 in 0 dc 0 ac 1\n"
    "r1 in out 1k\n"
    "c1 out 0 100n\n"
    ".op\n"
    ".ac dec 5 10 10k\n"
    ".end\n";

// RC step response, short transient.
constexpr const char* kTranDeck =
    "* rc step\n"
    "v1 in 0 pulse(0 1 1u 1u 1u 50u 100u)\n"
    "r1 in out 1k\n"
    "c1 out 0 1n\n"
    ".tran 1u 40u\n"
    ".end\n";

// Diode-clamped RC low-pass driven by a 1 kHz tone (PSS mode).
constexpr const char* kPssDeck =
    "* clamped rc, pss\n"
    ".model dm d is=1e-14\n"
    "v1 in 0 sin(0 1 1k)\n"
    "r1 in out 1k\n"
    "c1 out 0 100n\n"
    "d1 out 0 dm\n"
    ".tran 10u 1m\n"
    ".end\n";

// Diode-loaded divider for the shared-OP tests; directives appended.
constexpr const char* kSmallSignalBody =
    "* diode divider, small signal\n"
    ".model dm d is=1e-14\n"
    "v1 in 0 dc 2 ac 1\n"
    "r1 in out 1k\n"
    "c1 out 0 100n\n"
    "d1 out 0 dm\n";

// Distinct topology (three-node ladder) for multi-entry registry tests.
constexpr const char* kLadderDeck =
    "* ladder\n"
    "v1 in 0 dc 2.0\n"
    "r1 in a 1k\n"
    "r2 a b 2k\n"
    "r3 b 0 3k\n"
    ".op\n"
    ".end\n";

// Drops the wall-clock-dependent "solver time: ..." telemetry line; the
// rest of an op report is deterministic.
std::string strip_timing(const std::string& s) {
  std::string out;
  std::size_t pos = 0;
  while (pos < s.size()) {
    std::size_t nl = s.find('\n', pos);
    if (nl == std::string::npos) nl = s.size() - 1;
    const std::string line = s.substr(pos, nl - pos + 1);
    if (line.rfind("solver time:", 0) != 0) out += line;
    pos = nl + 1;
  }
  return out;
}

// Sends one raw request line and parses the reply line: puts bytes on
// the wire that Json::dump never writes (inf, nan, 1e999).
Json raw_request(const std::string& socket_path, const std::string& line) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return Json();
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::snprintf(addr.sun_path, sizeof addr.sun_path, "%s",
                socket_path.c_str());
  std::string reply;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof addr) == 0) {
    const std::string msg = line + "\n";
    if (::write(fd, msg.data(), msg.size()) ==
        static_cast<ssize_t>(msg.size())) {
      char c = 0;
      while (::read(fd, &c, 1) == 1 && c != '\n') reply.push_back(c);
    }
  }
  ::close(fd);
  return Json::parse(reply);
}

DeckResult run_no_memo(const std::string& deck, CacheRegistry* reg,
                       DeckOptions opt = {}) {
  opt.use_result_cache = false;
  return serve::run_deck(deck, opt, reg);
}

// -------------------------------------------------------------------
// JSON codec.

TEST(ServeJson, RoundTripAndDeterministicDump) {
  Json j = Json::object();
  j.set("b", true);
  j.set("a", 42);
  j.set("s", "line\nbreak \"quoted\" \\ tab\t");
  j.set("x", 1.25);
  Json arr = Json::array();
  arr.push(1);
  arr.push("two");
  arr.push(Json());
  j.set("list", std::move(arr));

  const std::string d = j.dump();
  // Sorted keys, one line.
  EXPECT_EQ(d.find('\n'), std::string::npos);
  EXPECT_LT(d.find("\"a\""), d.find("\"b\""));

  std::string err;
  const Json back = Json::parse(d, &err);
  EXPECT_TRUE(err.empty()) << err;
  EXPECT_EQ(back["a"].as_number(), 42.0);
  EXPECT_TRUE(back["b"].as_bool());
  EXPECT_EQ(back["s"].as_string(), j["s"].as_string());
  EXPECT_EQ(back["list"].items().size(), 3u);
  EXPECT_EQ(back["list"].items()[1].as_string(), "two");
  EXPECT_TRUE(back["list"].items()[2].is_null());
  // dump(parse(dump(x))) is a fixed point.
  EXPECT_EQ(back.dump(), d);
}

TEST(ServeJson, NumbersAndEscapes) {
  EXPECT_EQ(Json(3.0).dump(), "3");
  EXPECT_EQ(Json(-17).dump(), "-17");
  EXPECT_EQ(Json::parse("1e3")["x"].is_null(), true);  // scalar, no keys
  EXPECT_EQ(Json::parse("1e3").as_number(), 1000.0);
  EXPECT_EQ(Json::parse("\"a\\u0041b\"").as_string(), "aAb");
  const std::string rt = Json(0.1).dump();
  EXPECT_EQ(Json::parse(rt).as_number(), 0.1);  // shortest round-trip
}

TEST(ServeJson, MalformedInputsReportErrors) {
  for (const char* bad :
       {"{", "[1,", "\"unterminated", "{\"a\":}", "tru", "{} extra",
        "{\"a\" 1}"}) {
    std::string err;
    const Json j = Json::parse(bad, &err);
    EXPECT_TRUE(j.is_null()) << bad;
    EXPECT_FALSE(err.empty()) << bad;
  }
}

// -------------------------------------------------------------------
// Registry: adopt / publish / collision guard / LRU.

TEST(ServeRegistry, ColdMissThenWarmHitSameBytes) {
  CacheRegistry reg;
  const DeckResult cold = run_no_memo(kOpDeck, &reg);
  ASSERT_EQ(cold.exit_code, 0) << cold.err;
  EXPECT_FALSE(cold.warm);

  const DeckResult warm = run_no_memo(kOpDeck, &reg);
  ASSERT_EQ(warm.exit_code, 0) << warm.err;
  EXPECT_TRUE(warm.warm);
  // Identical deck values -> identical symbolic -> identical bytes
  // modulo the wall-clock telemetry line.
  EXPECT_EQ(strip_timing(warm.out), strip_timing(cold.out));
  EXPECT_EQ(warm.err, cold.err);

  const serve::RegistryStats s = reg.stats();
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.hits, 1);
  EXPECT_EQ(s.misses, 1);
  EXPECT_EQ(s.fingerprint_collisions, 0);
  EXPECT_GT(s.bytes, 0u);
}

TEST(ServeRegistry, CollisionGuardRejectsWrongStructuralKey) {
  CacheRegistry reg;
  ASSERT_EQ(run_no_memo(kOpDeck, &reg).exit_code, 0);

  // Poison the deck's entry: same fingerprint, wrong structural key --
  // the shape a 64-bit hash collision would take.
  auto parsed = spice::parse_netlist(kOpDeck);
  auto& nl = *parsed.netlist;
  nl.assign_unknowns();
  const std::uint64_t fp = nl.topology_fingerprint();
  serve::StructuralKey wrong{nl.node_count() + 1,
                             static_cast<int>(nl.devices().size()),
                             nl.unknown_count()};
  reg.publish_raw(fp, wrong, nl.solver_cache(), nl.structural_verdict(),
                  true);

  const DeckResult r = run_no_memo(kOpDeck, &reg);
  ASSERT_EQ(r.exit_code, 0) << r.err;
  EXPECT_FALSE(r.warm);  // guard refused the poisoned entry
  EXPECT_GE(reg.stats().fingerprint_collisions, 1);
}

TEST(ServeRegistry, LruEvictionUnderByteCap) {
  CacheRegistry reg(/*max_bytes=*/1, /*max_result_bytes=*/1u << 20);
  ASSERT_EQ(run_no_memo(kOpDeck, &reg).exit_code, 0);
  ASSERT_EQ(run_no_memo(kLadderDeck, &reg).exit_code, 0);
  const serve::RegistryStats s = reg.stats();
  // A 1-byte cap cannot hold any entry: every publish evicts.
  EXPECT_GE(s.evictions, 2);
  EXPECT_EQ(s.entries, 0u);
  // Eviction never broke a job.
  const DeckResult r = run_no_memo(kOpDeck, &reg);
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_FALSE(r.warm);
}

TEST(ServeRegistry, ClearDropsEverything) {
  CacheRegistry reg;
  ASSERT_EQ(serve::run_deck(kOpDeck, {}, &reg).exit_code, 0);
  EXPECT_EQ(reg.stats().entries, 1u);
  EXPECT_EQ(reg.stats().result_entries, 1u);
  reg.clear();
  EXPECT_EQ(reg.stats().entries, 0u);
  EXPECT_EQ(reg.stats().result_entries, 0u);
  EXPECT_EQ(reg.stats().bytes, 0u);
}

// -------------------------------------------------------------------
// Deck runner: warm jobs pay zero pattern searches.

TEST(ServeDeck, WarmOpJobZeroPatternSearches) {
  CacheRegistry reg;
  ASSERT_EQ(run_no_memo(kOpDeck, &reg).exit_code, 0);
  const long s0 = num::sparse_search_count();
  const DeckResult warm = run_no_memo(kOpDeck, &reg);
  ASSERT_EQ(warm.exit_code, 0) << warm.err;
  ASSERT_TRUE(warm.warm);
  EXPECT_EQ(num::sparse_search_count() - s0, 0)
      << "warm .op repeat fell back to pattern searches";
}

TEST(ServeDeck, WarmAcJobZeroPatternSearches) {
  CacheRegistry reg;
  ASSERT_EQ(run_no_memo(kAcDeck, &reg).exit_code, 0);
  const long s0 = num::sparse_search_count();
  const DeckResult warm = run_no_memo(kAcDeck, &reg);
  ASSERT_EQ(warm.exit_code, 0) << warm.err;
  ASSERT_TRUE(warm.warm);
  EXPECT_EQ(num::sparse_search_count() - s0, 0)
      << "warm .ac repeat fell back to pattern searches "
         "(AC slot pass not shared through the registry?)";
}

TEST(ServeDeck, WarmPssJobZeroPatternSearches) {
  // The shooting analysis builds its history matrix on the netlist's
  // cached skeleton and slot tables, like the transient steps it rides.
  CacheRegistry reg;
  DeckOptions opt;
  opt.pss = true;
  const DeckResult cold = run_no_memo(kPssDeck, &reg, opt);
  ASSERT_EQ(cold.exit_code, 0) << cold.err;
  const long s0 = num::sparse_search_count();
  const DeckResult warm = run_no_memo(kPssDeck, &reg, opt);
  ASSERT_EQ(warm.exit_code, 0) << warm.err;
  ASSERT_TRUE(warm.warm);
  EXPECT_EQ(num::sparse_search_count() - s0, 0)
      << "warm PSS repeat fell back to pattern searches";
  EXPECT_EQ(warm.out, cold.out);
}

// -------------------------------------------------------------------
// Deck runner: .op/.ac/.noise directives share one operating point.

std::string small_signal_deck(const std::string& directives) {
  return std::string(kSmallSignalBody) + directives + ".end\n";
}

// Runs `deck` cold and returns the LU factorizations it made.
long factorizations(const std::string& deck, DeckResult* r = nullptr) {
  const long f0 = an::factor_call_count();
  const DeckResult res = run_no_memo(deck, nullptr);
  EXPECT_EQ(res.exit_code, 0) << res.err;
  if (r) *r = res;
  return an::factor_call_count() - f0;
}

TEST(ServeDeck, SmallSignalDirectivesShareOneOperatingPoint) {
  const std::string ac = ".ac dec 5 10 100k\n";
  const std::string noise = ".noise out v1 dec 5 10 100k\n";
  DeckResult r_op, r_ac, r_noise, r_all;
  const long f_op = factorizations(small_signal_deck(".op\n"), &r_op);
  const long f_ac = factorizations(small_signal_deck(ac), &r_ac);
  const long f_noise = factorizations(small_signal_deck(noise), &r_noise);
  const long f_all =
      factorizations(small_signal_deck(".op\n" + ac + noise), &r_all);
  ASSERT_GT(f_op, 1);  // the diode takes Newton iterations
  // One OP solve, then one factorization per sweep point.
  EXPECT_EQ(f_all, f_ac + f_noise - f_op);
  // Each directive prints what its single-directive deck prints.
  EXPECT_EQ(strip_timing(r_all.out),
            strip_timing(r_op.out + r_ac.out + r_noise.out));
  EXPECT_EQ(r_all.err, r_op.err + r_ac.err + r_noise.err);
  // A repeated .op is free.
  EXPECT_EQ(factorizations(small_signal_deck(".op\n.op\n")), f_op);
}

TEST(ServeDeck, DcOrTranBetweenDirectivesForcesFreshOperatingPoint) {
  for (const std::string mid : {".dc v1 0 1 0.5\n", ".tran 10u 100u\n"}) {
    const long without = factorizations(small_signal_deck(".op\n" + mid));
    const long with =
        factorizations(small_signal_deck(".op\n" + mid + ".ac dec 1 1k 1k\n"));
    // The trailing .ac solves a fresh OP (Newton on the diode) besides
    // its one sweep point.
    EXPECT_GT(with, without + 1) << mid;
  }
}

TEST(ServeDeck, WarmJobStillRunsValueDependentLint) {
  // Same topology as kOpDeck (the fingerprint excludes values), but r2
  // carries a NaN value: a cold run refuses to simulate at lint, exit
  // 3.  A warm run adopting the clean priming verdict may skip the
  // structural passes, but must still run the value-dependent ones and
  // refuse with the exact same bytes -- skipping them would stamp NaN
  // into the MNA matrix and "succeed" with garbage.
  constexpr const char* kNanDeck =
      "* divider\n"
      "v1 in 0 dc 1.0\n"
      "r1 in out 1k\n"
      "r2 out 0 nan\n"
      ".op\n"
      ".end\n";
  CacheRegistry fresh;
  const DeckResult cold = run_no_memo(kNanDeck, &fresh);
  EXPECT_EQ(cold.exit_code, 3);
  EXPECT_NE(cold.err.find("non_finite_param"), std::string::npos)
      << cold.err;

  CacheRegistry reg;
  ASSERT_EQ(run_no_memo(kOpDeck, &reg).exit_code, 0);  // clean priming
  const DeckResult warm = run_no_memo(kNanDeck, &reg);
  EXPECT_TRUE(warm.warm);
  EXPECT_EQ(warm.exit_code, 3);
  EXPECT_EQ(warm.out, cold.out);
  EXPECT_EQ(warm.err, cold.err);

  // The refusal must not poison the topology entry: a clean repeat of
  // the priming deck still warms and still succeeds.
  const DeckResult again = run_no_memo(kOpDeck, &reg);
  EXPECT_TRUE(again.warm);
  EXPECT_EQ(again.exit_code, 0) << again.err;
}

TEST(ServeDeck, DcSweepRejectsDegenerateSteps) {
  auto divider_dc = [](const char* sweep) {
    return std::string(
               "* divider sweep\n"
               "v1 in 0 dc 1.0\n"
               "r1 in out 1k\n"
               "r2 out 0 1k\n") +
           sweep + ".end\n";
  };
  // A zero, non-finite or wrong-direction step would loop forever
  // (unbounded allocation a cancel/budget check never reaches); the
  // runner must reject it up front.
  for (const char* bad : {".dc v1 0 1 0\n", ".dc v1 0 1 -0.5\n",
                          ".dc v1 1 0 0.5\n", ".dc v1 0 inf 1\n",
                          ".dc v1 0 1 nan\n"}) {
    const DeckResult r = serve::run_deck(divider_dc(bad), {}, nullptr);
    EXPECT_EQ(r.exit_code, 1) << bad;
    EXPECT_NE(r.err.find("error:"), std::string::npos) << bad << r.err;
  }
  // A sweep past the point cap is refused rather than OOM-killed.
  const DeckResult huge =
      serve::run_deck(divider_dc(".dc v1 0 1 1e-9\n"), {}, nullptr);
  EXPECT_EQ(huge.exit_code, 1);
  EXPECT_NE(huge.err.find("exceeds"), std::string::npos) << huge.err;
  // And a well-formed sweep still runs.
  const DeckResult ok =
      serve::run_deck(divider_dc(".dc v1 0 1 0.25\n"), {}, nullptr);
  EXPECT_EQ(ok.exit_code, 0) << ok.err;
  EXPECT_NE(ok.out.find("v_sweep"), std::string::npos);
  EXPECT_NE(ok.out.find("\n1,"), std::string::npos);  // reached stop
}

TEST(ServeDeck, TranAcNoiseRejectDegenerateGrids) {
  auto rc = [](const char* directive) {
    return std::string(
               "* rc\n"
               "v1 in 0 dc 1 ac 1\n"
               "r1 in out 1k\n"
               "c1 out 0 100n\n") +
           directive + ".end\n";
  };
  // A zero or non-finite .tran step never reaches stop (the worker
  // pins like a degenerate .dc), and a NaN/huge points-per-decade value
  // reaching the int cast is undefined behaviour: all refused up front,
  // as is any grid or step count past the cap, a fractional points per
  // decade (SPICE's dec N is an integer; it used to be truncated) and a
  // stop frequency below start (it used to run a descending grid).
  for (const char* bad :
       {".tran 0 1m\n", ".tran -1u 1m\n", ".tran 1u 0\n", ".tran nan 1m\n",
        ".tran 1u inf\n", ".tran 1e-12 1\n", ".ac dec 10 0 1e6\n",
        ".ac dec 0 10 1e6\n", ".ac dec nan 10 1e6\n", ".ac dec 10 10 inf\n",
        ".ac dec 1e12 10 1e6\n", ".ac dec 10 -1 1e6\n",
        ".noise out v1 dec 10 0 1e6\n", ".noise out v1 dec nan 10 1e6\n",
        ".noise out v1 dec 1e9 1 1e6\n", ".ac dec 0.5 10 1e6\n",
        ".ac dec 10 1e6 10\n", ".noise out v1 dec 2.5 10 1e6\n",
        ".noise out v1 dec 10 1e6 10\n"}) {
    const DeckResult r = serve::run_deck(rc(bad), {}, nullptr);
    EXPECT_EQ(r.exit_code, 1) << bad;
    EXPECT_NE(r.err.find("error:"), std::string::npos) << bad << r.err;
    EXPECT_EQ(r.out.find(",-nan"), std::string::npos) << bad << r.out;
  }
  // Well-formed decks still run, with finite rows.
  for (const char* good : {".tran 10u 100u\n", ".ac dec 10 10 1e6\n",
                           ".noise out v1 dec 10 10 100k\n"}) {
    const DeckResult r = serve::run_deck(rc(good), {}, nullptr);
    EXPECT_EQ(r.exit_code, 0) << good << r.err;
    EXPECT_NE(r.out.find("\n1"), std::string::npos) << good << r.out;
    EXPECT_EQ(r.out.find("nan,"), std::string::npos) << good << r.out;
    EXPECT_EQ(r.out.find(",-nan"), std::string::npos) << good << r.out;
  }
}

// -------------------------------------------------------------------
// msim_cli's argument parser.

TEST(ServeCli, ParsesOptionsAndOneDeck) {
  const char* argv[] = {"msim_cli",  "deck.sp", "--probe",   "out,mid",
                        "--mc",      "8",       "--mc-seed", "5",
                        "--tran-stats", "--no-telemetry"};
  serve::CliArgs a;
  ASSERT_TRUE(serve::parse_cli_args(10, argv, a));
  EXPECT_EQ(a.path, "deck.sp");
  EXPECT_TRUE(a.jobs_path.empty());
  EXPECT_EQ(a.opt.probe_arg, "out,mid");
  EXPECT_EQ(a.opt.mc, 8);
  EXPECT_EQ(a.opt.mc_seed, 5u);
  EXPECT_TRUE(a.opt.tran_stats);
  EXPECT_FALSE(a.opt.telemetry);

  const char* jobs[] = {"msim_cli", "--jobs", "list.txt"};
  serve::CliArgs b;
  ASSERT_TRUE(serve::parse_cli_args(3, jobs, b));
  EXPECT_EQ(b.jobs_path, "list.txt");
}

// An unknown option, an option missing its value, an out-of-range
// count, seed or budget, a second deck path or no input at all is
// refused (msim_cli prints its usage and exits 2) instead of being read
// as the deck path or cast past its range.
TEST(ServeCli, RefusesUnknownOptionsAndStrayPaths) {
  const std::vector<std::vector<const char*>> bad = {
      {"msim_cli"},
      {"msim_cli", "deck.sp", "--bogus"},
      {"msim_cli", "--ensemble", "4", "deck.sp"},
      {"msim_cli", "a.sp", "b.sp"},
      {"msim_cli", "deck.sp", "--probe"},
      {"msim_cli", "-x", "deck.sp"},
      {"msim_cli", "deck.sp", "--mc", "-1"},
      {"msim_cli", "deck.sp", "--mc", "1e8"},
      {"msim_cli", "deck.sp", "--mc", "99999999999"},
      {"msim_cli", "deck.sp", "--mc-seed", "1.5"},
      {"msim_cli", "deck.sp", "--mc-seed", "inf"},
      {"msim_cli", "deck.sp", "--budget-ms", "nan"},
      {"msim_cli", "deck.sp", "--budget-ms", "-5"},
  };
  for (const auto& argv : bad) {
    serve::CliArgs a;
    EXPECT_FALSE(serve::parse_cli_args(static_cast<int>(argv.size()),
                                       argv.data(), a))
        << argv.back();
  }
}

// -------------------------------------------------------------------
// Deck runner: whole-result memoization.

TEST(ServeDeck, ResultMemoReturnsVerbatimBytes) {
  CacheRegistry reg;
  const DeckResult first = serve::run_deck(kAcDeck, {}, &reg);
  ASSERT_EQ(first.exit_code, 0) << first.err;
  EXPECT_FALSE(first.result_cached);

  const DeckResult repeat = serve::run_deck(kAcDeck, {}, &reg);
  EXPECT_TRUE(repeat.result_cached);
  // Verbatim: including the timing line -- no solve ran at all.
  EXPECT_EQ(repeat.out, first.out);
  EXPECT_EQ(repeat.err, first.err);
  EXPECT_EQ(repeat.exit_code, 0);

  // Different options -> different memo key.
  DeckOptions probed;
  probed.probe_arg = "out";
  const DeckResult other = serve::run_deck(kAcDeck, probed, &reg);
  EXPECT_FALSE(other.result_cached);
  EXPECT_NE(other.out, first.out);
}

TEST(ServeDeck, BudgetedJobsNeverMemoized) {
  CacheRegistry reg;
  DeckOptions opt;
  opt.budget_ms = 10000.0;  // armed but far from firing
  const DeckResult a = serve::run_deck(kOpDeck, opt, &reg);
  ASSERT_EQ(a.exit_code, 0);
  const DeckResult b = serve::run_deck(kOpDeck, opt, &reg);
  EXPECT_FALSE(b.result_cached);
  EXPECT_EQ(reg.stats().result_entries, 0u);
}

TEST(ServeDeck, CancelledJobFailsAndIsNeverMemoized) {
  core::CancelToken token;
  token.request();  // cancelled before the run starts
  core::RunBudget budget;
  budget.cancel = &token;
  DeckOptions opt;
  opt.budget = &budget;
  CacheRegistry reg;
  // A cancel that fires before the first timestep kills the initial DC
  // solve: the engine reports a failed (not truncated) run, exit 1.  A
  // cancel mid-waveform truncates with exit 4; either way the result
  // must stay out of the memo.
  const DeckResult r = serve::run_deck(kTranDeck, opt, &reg);
  EXPECT_NE(r.exit_code, 0);
  EXPECT_NE(r.err.find("transient failed"), std::string::npos) << r.err;
  EXPECT_EQ(reg.stats().result_entries, 0u);
}

// -------------------------------------------------------------------
// Deck runner: Monte-Carlo mode.

TEST(ServeDeck, MonteCarloDeterministicAcrossRepeats) {
  DeckOptions opt;
  opt.mc = 8;
  opt.mc_seed = 7;
  opt.probe_arg = "out";
  const DeckResult a = serve::run_deck(kOpDeck, opt, nullptr);
  ASSERT_EQ(a.exit_code, 0) << a.err;
  EXPECT_NE(a.out.find("mc,8 samples,0 failures"), std::string::npos)
      << a.out;
  EXPECT_NE(a.out.find("probe,mean,stddev,min,max"), std::string::npos);

  const DeckResult b = serve::run_deck(kOpDeck, opt, nullptr);
  EXPECT_EQ(b.out, a.out);  // same seed -> bit-identical statistics

  opt.mc_seed = 8;
  const DeckResult c = serve::run_deck(kOpDeck, opt, nullptr);
  EXPECT_NE(c.out, a.out);  // different seed -> different spread
}

TEST(ServeDeck, MonteCarloAdoptsRegistryStructure) {
  CacheRegistry reg;
  // Prime the topology with a plain .op job, then run MC over the same
  // deck: sample 0's build adopts the registry structure (MC
  // perturbations move values, never topology).
  ASSERT_EQ(run_no_memo(kOpDeck, &reg).exit_code, 0);
  DeckOptions opt;
  opt.mc = 4;
  opt.probe_arg = "out";
  const DeckResult mc = run_no_memo(kOpDeck, &reg, opt);
  ASSERT_EQ(mc.exit_code, 0) << mc.err;
  EXPECT_TRUE(mc.warm);
  // Registry-warm and registry-cold MC produce the same statistics:
  // adoption changes where the structure comes from, not the values.
  const DeckResult cold = run_no_memo(kOpDeck, nullptr, opt);
  EXPECT_EQ(cold.out, mc.out);
}

TEST(ServeDeck, RepeatMonteCarloJobGoesWarm) {
  // Only the MC samples solve, never the deck's own netlist, so the
  // registry must keep sample 0's structure: a repeat MC job over the
  // topology then adopts it, searches less, and prints the same bytes
  // as a registry-less run.
  CacheRegistry reg;
  DeckOptions opt;
  opt.mc = 4;
  opt.probe_arg = "out";
  const long s0 = num::sparse_search_count();
  const DeckResult first = run_no_memo(kOpDeck, &reg, opt);
  const long s1 = num::sparse_search_count();
  ASSERT_EQ(first.exit_code, 0) << first.err;
  EXPECT_FALSE(first.warm);
  const DeckResult second = run_no_memo(kOpDeck, &reg, opt);
  const long s2 = num::sparse_search_count();
  ASSERT_EQ(second.exit_code, 0) << second.err;
  EXPECT_TRUE(second.warm);
  EXPECT_LT(s2 - s1, s1 - s0);
  const DeckResult cold = run_no_memo(kOpDeck, nullptr, opt);
  EXPECT_EQ(second.out, cold.out);
  EXPECT_EQ(second.err, cold.err);
}

// The full chip (bandgap, PGA, drivers) as a .op deck.  Its cold
// operating point needs the gmin ladder -- plain Newton limit-cycles --
// so it is the deck where seeding MC samples from sample 0 matters.
std::string chip_op_deck() {
  auto chip = bench::make_chip_rig();
  std::string deck = spice::write_netlist(chip->nl, "chip mc");
  deck.insert(deck.rfind(".end"), ".op\n");
  return deck;
}

DeckOptions chip_mc_options() {
  DeckOptions opt;
  opt.mc = 4;
  opt.mc_seed = 5;
  opt.probe_arg = "chip.bg.vref_p";
  return opt;
}

TEST(ServeDeck, SeededMonteCarloSameBytesColdWarmAndRepeated) {
  // Sample 0 seeds every later sample whether or not a registry is
  // attached, so a registry-less run, the priming registry run and a
  // warm registry run all print the same bytes, as does a repeat.
  // Seeded samples converge in a few Newton steps, so each MC job
  // factors well under twice what one cold operating point does (four
  // cold solves would factor about four times as much).
  const std::string deck = chip_op_deck();
  const DeckOptions opt = chip_mc_options();
  DeckOptions single;
  single.probe_arg = opt.probe_arg;
  const long f0 = an::factor_call_count();
  ASSERT_EQ(run_no_memo(deck, nullptr, single).exit_code, 0);
  const long one_op = an::factor_call_count() - f0;

  const long f1 = an::factor_call_count();
  const DeckResult cold = run_no_memo(deck, nullptr, opt);
  EXPECT_LT(an::factor_call_count() - f1, 2 * one_op);
  ASSERT_EQ(cold.exit_code, 0) << cold.err;
  EXPECT_NE(cold.out.find("mc,4 samples,0 failures"), std::string::npos)
      << cold.out;
  CacheRegistry reg;
  const DeckResult primed = run_no_memo(deck, &reg, opt);
  const long f2 = an::factor_call_count();
  const DeckResult warm = run_no_memo(deck, &reg, opt);
  EXPECT_LT(an::factor_call_count() - f2, 2 * one_op);
  ASSERT_EQ(warm.exit_code, 0) << warm.err;
  EXPECT_FALSE(primed.warm);
  EXPECT_TRUE(warm.warm);
  EXPECT_EQ(primed.out, cold.out);
  EXPECT_EQ(warm.out, cold.out);
  EXPECT_EQ(warm.err, cold.err);
  const DeckResult again = run_no_memo(deck, nullptr, opt);
  EXPECT_EQ(again.out, cold.out);
  EXPECT_EQ(again.err, cold.err);
}

TEST(ServeDeck, SeededMonteCarloMatchesFromZeroOracle) {
  // Oracle: the same samples (same re-parse, same 1% resistor spread,
  // same per-sample RNG streams) with every operating point solved from
  // zero.  Seeding changes where Newton starts, not the solution, so
  // the printed statistics agree.
  const std::string deck = chip_op_deck();
  const DeckOptions opt = chip_mc_options();
  const DeckResult seeded = run_no_memo(deck, nullptr, opt);
  ASSERT_EQ(seeded.exit_code, 0) << seeded.err;

  auto parsed = spice::parse_netlist(deck);
  const ckt::NodeId probe = parsed.netlist->find_node(opt.probe_arg);
  num::Rng rng(opt.mc_seed);
  const auto oracle = an::monte_carlo_shared(
      opt.mc, rng,
      [&](num::Rng& r, ckt::Netlist& snl) {
        snl = std::move(*spice::parse_netlist(deck).netlist);
        for (const auto& dv : snl.devices())
          if (auto* res = dynamic_cast<dev::Resistor*>(dv.get()))
            res->set_resistance(res->nominal_resistance() *
                                (1.0 + 0.01 * r.normal()));
        snl.assign_unknowns();
      },
      [&](ckt::Netlist& snl) {
        an::OpOptions o;
        o.temp_k = num::celsius_to_kelvin(parsed.temp_c);
        const auto op = an::solve_op(snl, o);
        if (!op.converged) return an::McTrial::failed(op.diag);
        return an::McTrial::of(op.v(probe));
      });
  ASSERT_EQ(oracle.failures, 0);
  char row[160];
  std::snprintf(row, sizeof row, "v(%s),%.6g,%.6g,%.6g,%.6g\n",
                opt.probe_arg.c_str(), oracle.mean(), oracle.stddev(),
                oracle.min(), oracle.max());
  EXPECT_NE(seeded.out.find(row), std::string::npos)
      << "oracle " << row << "seeded run:\n" << seeded.out;
}

// -------------------------------------------------------------------
// Batch mode.

TEST(ServeBatch, SharedRegistryWarmsRepeats) {
  const std::string dir = ::testing::TempDir();
  const std::string p1 = dir + "serve_batch_a.sp";
  const std::string p2 = dir + "serve_batch_b.sp";
  { std::ofstream(p1) << kOpDeck; }
  { std::ofstream(p2) << kLadderDeck; }

  serve::CacheRegistry reg;
  DeckOptions opt;
  opt.use_result_cache = false;  // measure structural warmth, not memo
  std::string out, err;
  const serve::BatchResult b =
      serve::run_batch({p1, p2, p1, p2, p1}, opt, reg, out, err);
  EXPECT_EQ(b.exit_code, 0) << err;
  EXPECT_EQ(b.jobs, 5);
  EXPECT_EQ(b.warm_jobs, 3);  // 2 topologies cold once each
  EXPECT_EQ(b.cached_jobs, 0);
  EXPECT_NE(out.find("* job 0: " + p1), std::string::npos);

  // Unreadable file: exit 2, other jobs unaffected.
  std::string out2, err2;
  const serve::BatchResult bad = serve::run_batch(
      {p1, dir + "missing_deck.sp"}, opt, reg, out2, err2);
  EXPECT_EQ(bad.exit_code, 2);
  EXPECT_EQ(bad.jobs, 1);
  EXPECT_NE(err2.find("cannot read"), std::string::npos);
}

// -------------------------------------------------------------------
// Scheduler.

TEST(ServeScheduler, ExecutesEverythingAndDrains) {
  serve::JobScheduler sched(4);
  std::atomic<int> done{0};
  for (int i = 0; i < 64; ++i)
    sched.submit([&] { done.fetch_add(1); });
  sched.wait_idle();
  EXPECT_EQ(done.load(), 64);
  const serve::SchedulerStats st = sched.stats();
  EXPECT_EQ(st.submitted, 64);
  EXPECT_EQ(st.executed, 64);
  EXPECT_EQ(st.workers, 4u);
  sched.stop();
}

TEST(ServeScheduler, StealingSpreadsOneHotQueue) {
  // Round-robin submit fills all queues, but jobs that block until the
  // gate opens force idle workers to steal the stragglers.
  serve::JobScheduler sched(4);
  std::atomic<int> done{0};
  for (int i = 0; i < 32; ++i)
    sched.submit([&] { done.fetch_add(1); });
  sched.wait_idle();
  sched.stop();
  EXPECT_EQ(done.load(), 32);
}

TEST(ServeScheduler, BitIdenticalResultsAtAnyWorkerCount) {
  const std::vector<std::string> decks = {kOpDeck, kAcDeck, kLadderDeck,
                                          kOpDeck, kAcDeck, kLadderDeck};
  // Serial baseline, fresh registry.
  std::vector<std::string> serial(decks.size());
  {
    CacheRegistry reg;
    for (std::size_t i = 0; i < decks.size(); ++i)
      serial[i] = strip_timing(run_no_memo(decks[i], &reg).out);
  }
  for (const std::size_t workers : {1u, 2u, 8u}) {
    CacheRegistry reg;
    serve::JobScheduler sched(workers);
    std::vector<std::string> outs(decks.size());
    for (std::size_t i = 0; i < decks.size(); ++i)
      sched.submit([&, i] {
        outs[i] = strip_timing(run_no_memo(decks[i], &reg).out);
      });
    sched.wait_idle();
    sched.stop();
    for (std::size_t i = 0; i < decks.size(); ++i)
      EXPECT_EQ(outs[i], serial[i])
          << "deck " << i << " differs at " << workers << " workers";
  }
}

// -------------------------------------------------------------------
// Concurrent adoption/eviction stress (the TSan gate).

TEST(ServeStress, ConcurrentAdoptPublishEvictClear) {
  const std::vector<std::string> decks = {kOpDeck, kAcDeck, kLadderDeck};
  // Serial per-deck baseline.
  std::vector<std::string> baseline;
  {
    CacheRegistry reg;
    for (const auto& d : decks)
      baseline.push_back(strip_timing(run_no_memo(d, &reg).out));
  }
  CacheRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kRepeats = 6;
  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  threads.reserve(kThreads + 1);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRepeats; ++r) {
        const std::size_t which =
            static_cast<std::size_t>(t + r) % decks.size();
        const DeckResult res = run_no_memo(decks[which], &reg);
        if (res.exit_code != 0 ||
            strip_timing(res.out) != baseline[which])
          mismatches.fetch_add(1);
      }
    });
  // Concurrent churn: clearing mid-flight exercises eviction while
  // adopters hold shared_ptrs into the evicted entries.
  threads.emplace_back([&] {
    for (int i = 0; i < 10; ++i) {
      reg.clear();
      std::this_thread::yield();
    }
  });
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  // Every job either adopted or missed; nothing else.
  const serve::RegistryStats s = reg.stats();
  EXPECT_EQ(s.hits + s.misses, kThreads * kRepeats);
  EXPECT_EQ(s.fingerprint_collisions, 0);
}

// -------------------------------------------------------------------
// Daemon end to end (the serve_smoke ctest runs exactly this fixture).

TEST(ServeSmoke, MixedJobsWarmHitsAndCleanShutdown) {
  serve::ServerOptions so;
  so.socket_path =
      ::testing::TempDir() + "msim_serve_" + std::to_string(::getpid()) +
      ".sock";
  so.workers = 2;
  serve::Server server(so);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;
  std::thread runner([&] { server.run(); });

  auto submit = [&](const char* deck, bool memo) {
    Json j = Json::object();
    j.set("op", "submit");
    j.set("deck", deck);
    j.set("result_cache", memo);
    std::string out, errs, terr;
    bool warm = false, cached = false;
    const int code = serve::submit_and_wait(so.socket_path, j, out, errs,
                                            &terr, &warm, &cached);
    EXPECT_EQ(code, 0) << terr << errs;
    return std::tuple<std::string, bool, bool>(std::move(out), warm,
                                               cached);
  };

  // Three mixed jobs: op (cold), ac (cold), op repeat (warm structure,
  // memo off so the solve really runs).
  const auto [op1, w1, c1] = submit(kOpDeck, false);
  const auto [ac1, w2, c2] = submit(kAcDeck, false);
  const auto [op2, w3, c3] = submit(kOpDeck, false);
  EXPECT_FALSE(w1);
  EXPECT_FALSE(w2);
  EXPECT_TRUE(w3);
  EXPECT_EQ(strip_timing(op2), strip_timing(op1));

  // And a memoized repeat: verbatim bytes, no solve.
  const auto [ac2a, w4, c4] = submit(kAcDeck, true);
  const auto [ac2b, w5, c5] = submit(kAcDeck, true);
  EXPECT_TRUE(c5);
  EXPECT_EQ(ac2b, ac2a);

  // Unknown-id cancel answers found:false (deterministic; an in-flight
  // cancel race is exercised by CancelledJobTruncatesWithExit4).
  Json cancel = Json::object();
  cancel.set("op", "cancel");
  cancel.set("id", "no-such-job");
  const Json cr = serve::request(so.socket_path, cancel, &err);
  EXPECT_TRUE(cr["ok"].as_bool()) << err;
  EXPECT_FALSE(cr["found"].as_bool(true));

  Json statreq = Json::object();
  statreq.set("op", "stats");
  const Json stats = serve::request(so.socket_path, statreq, &err);
  ASSERT_TRUE(stats["ok"].as_bool()) << err;
  EXPECT_GT(stats["registry"]["hits"].as_number(), 0.0);
  EXPECT_EQ(stats["jobs"]["completed"].as_number(), 5.0);
  EXPECT_GT(stats["jobs"]["warm"].as_number(), 0.0);
  EXPECT_GT(stats["jobs"]["cached"].as_number(), 0.0);
  EXPECT_EQ(stats["registry"]["fingerprint_collisions"].as_number(), 0.0);

  Json bye = Json::object();
  bye.set("op", "shutdown");
  const Json ack = serve::request(so.socket_path, bye, &err);
  EXPECT_TRUE(ack["ok"].as_bool()) << err;
  runner.join();
  // Socket unlinked on shutdown.
  EXPECT_NE(::access(so.socket_path.c_str(), F_OK), 0);
}

TEST(ServeSmoke, DuplicateIdsRejectedAndConnectionsReaped) {
  serve::ServerOptions so;
  so.socket_path = ::testing::TempDir() + "msim_serve_dup_" +
                   std::to_string(::getpid()) + ".sock";
  so.workers = 1;
  serve::Server server(so);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;
  std::thread runner([&] { server.run(); });

  // A slow job under id "dup": 5000-sample MC keeps it in flight long
  // past the next round-trip.  The submitting connection closes right
  // after the ack, so the job's result line lands on a reaped
  // connection and must be dropped cleanly.
  Json slow = Json::object();
  slow.set("op", "submit");
  slow.set("deck", kOpDeck);
  slow.set("id", "dup");
  slow.set("mc", 5000);
  slow.set("probe", "out");
  slow.set("result_cache", false);
  const Json a1 = serve::request(so.socket_path, slow, &err);
  ASSERT_TRUE(a1["ok"].as_bool(false)) << err;

  // Same id while the first job is live: rejected, not shadowed.
  Json dup = Json::object();
  dup.set("op", "submit");
  dup.set("deck", kOpDeck);
  dup.set("id", "dup");
  dup.set("result_cache", false);
  const Json a2 = serve::request(so.socket_path, dup, &err);
  EXPECT_FALSE(a2["ok"].as_bool(true)) << a2.dump();
  EXPECT_NE(a2["error"].as_string().find("already in flight"),
            std::string::npos)
      << a2.dump();

  // Disconnected clients are reaped immediately (fd closed, thread
  // handle parked), so the live gauge drains to just the stats
  // connection itself once the MC job finishes.
  Json statreq = Json::object();
  statreq.set("op", "stats");
  double conns = 1e9, completed = 0;
  for (int i = 0; i < 500; ++i) {
    const Json s = serve::request(so.socket_path, statreq, &err);
    ASSERT_TRUE(s["ok"].as_bool(false)) << err;
    conns = s["connections"].as_number(1e9);
    completed = s["jobs"]["completed"].as_number(0);
    if (conns <= 1.0 && completed >= 1.0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_LE(conns, 1.0);
  EXPECT_EQ(completed, 1.0);  // the rejected duplicate never ran

  server.shutdown();
  runner.join();
}

// Numeric request fields arrive as strtod doubles; a non-finite,
// negative, fractional or over-cap count must be refused with ok:false
// before any integer conversion, and the daemon keeps serving.  (A bare
// `nan` already fails the JSON parse; `-nan`, `inf` and `1e999` reach
// strtod.)
TEST(ServeSmoke, OutOfRangeNumericFieldsRefused) {
  serve::ServerOptions so;
  so.socket_path = ::testing::TempDir() + "msim_serve_num_" +
                   std::to_string(::getpid()) + ".sock";
  so.workers = 1;
  serve::Server server(so);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;
  std::thread runner([&] { server.run(); });

  const std::string head = "{\"op\":\"submit\",\"deck\":" +
                           Json(kOpDeck).dump() + ",";
  for (const char* bad :
       {"\"mc\":inf", "\"mc\":-nan", "\"mc\":nan", "\"mc\":1e999",
        "\"mc\":-1", "\"mc\":2.5", "\"mc\":1e6", "\"mc\":1e8",
        "\"mc_seed\":inf", "\"mc_seed\":-nan", "\"mc_seed\":-1",
        "\"mc_seed\":1.5", "\"mc_seed\":1e300", "\"budget_ms\":-nan",
        "\"budget_ms\":nan", "\"budget_ms\":inf", "\"budget_ms\":-1"}) {
    const Json r = raw_request(so.socket_path, head + bad + "}");
    EXPECT_TRUE(r.is_object()) << bad;
    EXPECT_FALSE(r["ok"].as_bool(true)) << bad << " -> " << r.dump();
    EXPECT_FALSE(r["error"].as_string().empty()) << bad;
  }

  // The daemon still runs a well-formed MC job, and no refused request
  // was counted as submitted.
  Json good = Json::object();
  good.set("op", "submit");
  good.set("deck", kOpDeck);
  good.set("mc", 4);
  good.set("mc_seed", 9007199254740991.0);  // 2^53 - 1
  good.set("probe", "out");
  std::string out, errs;
  EXPECT_EQ(serve::submit_and_wait(so.socket_path, good, out, errs, &err),
            0)
      << err << errs;
  EXPECT_NE(out.find("mc"), std::string::npos) << out;
  Json statreq = Json::object();
  statreq.set("op", "stats");
  const Json st = serve::request(so.socket_path, statreq, &err);
  EXPECT_EQ(st["jobs"]["submitted"].as_number(0), 1.0) << st.dump();

  server.shutdown();
  runner.join();
}

TEST(ServeSmoke, MalformedAndUnknownRequestsAnswerErrors) {
  serve::ServerOptions so;
  so.socket_path = ::testing::TempDir() + "msim_serve_err_" +
                   std::to_string(::getpid()) + ".sock";
  so.workers = 1;
  serve::Server server(so);
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;
  std::thread runner([&] { server.run(); });

  Json bogus = Json::object();
  bogus.set("op", "frobnicate");
  const Json r1 = serve::request(so.socket_path, bogus, &err);
  EXPECT_FALSE(r1["ok"].as_bool(true));
  EXPECT_NE(r1["error"].as_string().find("unknown op"), std::string::npos);

  Json nodeck = Json::object();
  nodeck.set("op", "submit");
  const Json r2 = serve::request(so.socket_path, nodeck, &err);
  EXPECT_FALSE(r2["ok"].as_bool(true));

  server.shutdown();
  runner.join();
}

}  // namespace
