// Thread-pool and parallel-executor tests: the deterministic
// parallel_for contract, exception propagation, and bit-identical
// Monte-Carlo / AC results at every thread count.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include "analysis/ac.h"
#include "analysis/montecarlo.h"
#include "analysis/noise.h"
#include "analysis/op.h"
#include "bench_util.h"
#include "core/mic_amp.h"
#include "core/parallel.h"
#include "devices/sources.h"
#include "numeric/rng.h"
#include "process/process.h"

namespace {

using namespace msim;

TEST(ParallelFor, RunsEveryIndexExactlyOnce) {
  constexpr std::size_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  core::parallel_for(4, n, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelFor, ResultsIdenticalAtEveryThreadCount) {
  // Each index writes only its own slot, so any schedule must produce
  // the same bits.
  constexpr std::size_t n = 257;
  auto run = [](int threads) {
    std::vector<double> out(n);
    core::parallel_for(threads, n, [&](std::size_t i) {
      out[i] = std::sin(0.1 * static_cast<double>(i)) /
               (1.0 + static_cast<double>(i));
    });
    return out;
  };
  const auto serial = run(1);
  EXPECT_EQ(serial, run(2));
  EXPECT_EQ(serial, run(8));
  EXPECT_EQ(serial, run(0));  // auto
}

TEST(ParallelFor, EmptyAndSingleRangesWork) {
  int calls = 0;
  core::parallel_for(8, 0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  core::parallel_for(8, 1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, FirstExceptionPropagatesToCaller) {
  EXPECT_THROW(
      core::parallel_for(4, 100,
                         [](std::size_t i) {
                           if (i == 37)
                             throw std::runtime_error("index 37 failed");
                         }),
      std::runtime_error);
  // The pool must stay usable after a throwing job.
  std::atomic<int> ok{0};
  core::parallel_for(4, 10, [&](std::size_t) {
    ok.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(ok.load(), 10);
}

// ---- Monte-Carlo determinism ----------------------------------------

an::McStats mic_gain_mc(int samples, int threads) {
  const auto pm = proc::ProcessModel::cmos12();
  auto nominal = bench::make_mic_rig();
  nominal->mic.set_gain_code(5);
  (void)an::solve_op(nominal->nl);

  num::Rng rng(77);
  an::McOptions mo;
  mo.threads = threads;
  return an::monte_carlo(
      samples, rng,
      [&](num::Rng& srng) {
        auto r = bench::make_mic_rig();
        for (auto* seg : r->mic.string_segments_p)
          seg->apply_relative_error(pm.sample_resistor_mismatch(srng));
        for (auto* seg : r->mic.string_segments_n)
          seg->apply_relative_error(pm.sample_resistor_mismatch(srng));
        r->mic.set_gain_code(5);
        r->nl.adopt_solver_cache(nominal->nl);
        const auto op = an::solve_op(r->nl);
        if (!op.converged) return std::nan("");
        const auto ac = an::run_ac(r->nl, {1e3});
        return an::to_db(std::abs(ac.vdiff(0, r->mic.outp, r->mic.outn)));
      },
      mo);
}

TEST(MonteCarloParallel, StatisticsBitIdenticalAcrossThreadCounts) {
  const auto s1 = mic_gain_mc(16, 1);
  const auto s2 = mic_gain_mc(16, 2);
  const auto s8 = mic_gain_mc(16, 8);
  ASSERT_EQ(s1.samples.size(), 16u);
  EXPECT_EQ(s1.failures, 0);
  // Bitwise, not approximately: the seeds are pre-derived and every
  // sample owns its result slot.
  EXPECT_EQ(s1.samples, s2.samples);
  EXPECT_EQ(s1.samples, s8.samples);
}

TEST(MonteCarloParallel, FailureDiagsSortedAndOrderIndependent) {
  // A trial that fails deterministically per-sample: the parallel run
  // must report the same failures, sorted by sample index.
  auto run = [](int threads) {
    num::Rng rng(5);
    an::McOptions mo;
    mo.threads = threads;
    return an::monte_carlo_diag(
        64, rng,
        [](num::Rng& srng) {
          const double u = srng.uniform();
          if (u < 0.3) {
            an::SolveDiag diag;
            diag.status = an::SolveStatus::kNonConvergence;
            return an::McTrial::failed(diag);
          }
          return an::McTrial::of(u);
        },
        mo);
  };
  const auto serial = run(1);
  const auto parallel = run(8);
  ASSERT_GT(serial.failures, 0);
  EXPECT_EQ(serial.samples, parallel.samples);
  ASSERT_EQ(serial.failure_diags.size(), parallel.failure_diags.size());
  for (std::size_t i = 0; i < serial.failure_diags.size(); ++i) {
    EXPECT_EQ(serial.failure_diags[i].sample,
              parallel.failure_diags[i].sample);
    if (i > 0) {
      EXPECT_LT(parallel.failure_diags[i - 1].sample,
                parallel.failure_diags[i].sample);
    }
  }
}

// ---- parallel frequency grids ---------------------------------------

TEST(AcParallel, GridBitIdenticalToSerial) {
  auto rig = bench::make_mic_rig();
  const auto op = an::solve_op(rig->nl);
  ASSERT_TRUE(op.converged);
  const auto freqs = an::log_frequencies(10.0, 10e6, 5);

  an::AcOptions serial;
  serial.threads = 1;
  an::AcOptions parallel;
  parallel.threads = 8;
  const auto rs = an::run_ac(rig->nl, freqs, serial);
  const auto rp = an::run_ac(rig->nl, freqs, parallel);
  ASSERT_EQ(rs.solutions.size(), freqs.size());
  ASSERT_EQ(rp.solutions.size(), freqs.size());
  for (std::size_t k = 0; k < freqs.size(); ++k)
    EXPECT_EQ(rs.solutions[k], rp.solutions[k]) << "f = " << freqs[k];
}

TEST(NoiseParallel, SpectrumBitIdenticalToSerial) {
  auto rig = bench::make_mic_rig();
  const auto op = an::solve_op(rig->nl);
  ASSERT_TRUE(op.converged);
  const auto freqs = an::log_frequencies(10.0, 100e3, 4);

  an::NoiseOptions ns;
  ns.out_p = rig->mic.outp;
  ns.out_n = rig->mic.outn;
  ns.input_source = "Vinp";
  ns.threads = 1;
  an::NoiseOptions np = ns;
  np.threads = 8;
  const auto rs = an::run_noise(rig->nl, freqs, ns);
  const auto rp = an::run_noise(rig->nl, freqs, np);
  ASSERT_EQ(rs.points.size(), rp.points.size());
  for (std::size_t k = 0; k < rs.points.size(); ++k) {
    EXPECT_EQ(rs.points[k].s_out, rp.points[k].s_out);
    EXPECT_EQ(rs.points[k].s_in, rp.points[k].s_in);
    EXPECT_EQ(rs.points[k].gain_mag, rp.points[k].gain_mag);
  }
}

// Structure-shared Monte-Carlo driver: same statistics contract as
// monte_carlo_diag (bit-identical across thread counts) while adopting
// the sample-0 solver cache everywhere.
TEST(MonteCarloParallel, SharedDeterministicAcrossThreads) {
  const auto pm = proc::ProcessModel::cmos12();
  auto build = [&pm](num::Rng& srng, ckt::Netlist& nl) {
    const auto nvdd = nl.node("vdd");
    const auto nvss = nl.node("vss");
    const auto inp = nl.node("inp");
    const auto inn = nl.node("inn");
    nl.add<dev::VSource>("Vdd", nvdd, ckt::kGround, 1.3);
    nl.add<dev::VSource>("Vss", nvss, ckt::kGround, -1.3);
    nl.add<dev::VSource>("Vinp", inp, ckt::kGround, 0.0);
    nl.add<dev::VSource>("Vinn", inn, ckt::kGround, 0.0);
    auto mic = core::build_mic_amp(nl, pm, {}, nvdd, nvss, ckt::kGround,
                                   inp, inn);
    for (auto* seg : mic.string_segments_p)
      seg->apply_relative_error(pm.sample_resistor_mismatch(srng));
    for (auto* seg : mic.string_segments_n)
      seg->apply_relative_error(pm.sample_resistor_mismatch(srng));
    mic.set_gain_code(5);
  };
  auto measure = [](ckt::Netlist& nl) {
    an::OpOptions oo;
    const auto op = an::solve_op(nl, oo);
    if (!op.converged) return an::McTrial::failed(op.diag);
    return an::McTrial::of(op.x[0]);
  };

  an::McStats ref;
  for (int threads : {1, 2, 8}) {
    num::Rng rng(42);
    an::McOptions mo;
    mo.threads = threads;
    const auto st =
        an::monte_carlo_shared(12, rng, build, measure, mo);
    EXPECT_EQ(st.failures, 0);
    ASSERT_EQ(st.samples.size(), 12u);
    if (threads == 1) {
      ref = st;
      EXPECT_GT(st.stddev(), 0.0);  // perturbations actually vary
    } else {
      for (std::size_t i = 0; i < ref.samples.size(); ++i)
        EXPECT_EQ(st.samples[i], ref.samples[i]) << "threads=" << threads;
    }
  }
}

}  // namespace
