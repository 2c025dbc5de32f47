// reliability_flow: the device-to-array write reliability flow.
//
// A pass runs three stages on the shared pool, each one timed operation:
//   1. an importance-sampled LLGS WerScenario overlay (10 points x 2000
//      trajectories) on a seeded jitter of the paper-style pulse grid;
//   2. an analytic-only WerScenario over a large seeded grid;
//   3. a Table-1-style VaetStt::monte_carlo grid through sweep::Runner;
// and then the SPICE array stage (array.hpp), whose calls count as
// attempted operations but not as timed ones: SPICE speed on a shared host
// drifts by several times more than the physics stages' does, so it moves
// only the pass time, diluted, and its per-layer metrics.
// Every table must be finite, the IS-MC relative error bounded, and every
// table bit-identical on every pass of the run.
#include <cmath>
#include <optional>
#include <string>

#include "array.hpp"
#include "common.hpp"
#include "core/pdk.hpp"
#include "core/wer_scenario.hpp"
#include "sweep/experiment.hpp"
#include "vaet/estimator.hpp"

namespace perfbench {
namespace {

using mss::core::WerScenario;
using mss::core::WerScenarioConfig;
using mss::core::WerScenarioPoint;

constexpr double kPassesPerS = 0.4; ///< a pass takes 2.2-2.7 s on a 4-core host
constexpr std::size_t kSetups = 31;
constexpr double kMaxRelErr = 1.0; ///< IS-MC estimates beyond this are noise
constexpr std::size_t kVaetSamples = 2000;

struct Inputs {
  WerScenarioConfig is_mc;
  WerScenarioConfig analytic;
  mss::sweep::ParamSpace vaet_space;
  std::uint64_t vaet_seed = 0;
};

Inputs make_inputs(std::uint64_t seed) {
  Gen g(seed ^ 0x4E11ull);
  Inputs in;
  auto& mc = in.is_mc;
  mc.direction = mss::core::WriteDirection::ToAntiparallel;
  for (const double w : {3e-9, 4e-9, 5e-9, 7e-9, 10e-9}) {
    mc.pulse_widths.push_back(w * g.uniform(0.97, 1.03));
  }
  mc.voltages = {0.45 * g.uniform(0.98, 1.02)};
  mc.temperatures = {300.0, 350.0};
  mc.sigma_ic_rel = 0.2;
  mc.trajectories = 2000;
  mc.seed = g.next();

  auto& an = in.analytic;
  const double lo = g.uniform(1e-9, 2e-9);
  const double hi = g.uniform(15e-9, 25e-9);
  for (std::size_t i = 0; i < 250; ++i) {
    an.pulse_widths.push_back(lo * std::pow(hi / lo, double(i) / 249.0));
  }
  for (std::size_t i = 0; i < 16; ++i) {
    an.voltages.push_back(0.35 + 0.2 * double(i) / 15.0 + g.uniform(0.0, 0.005));
  }
  for (std::size_t i = 0; i < 10; ++i) {
    an.temperatures.push_back(250.0 + 15.0 * double(i) + g.uniform(0.0, 1.0));
  }
  an.sigma_ic_rel = g.uniform(0.03, 0.2);

  in.vaet_space.cross(mss::sweep::Axis::list(
                          "node", std::vector<std::string>{"45nm", "65nm"}))
      .cross(mss::sweep::Axis::list(
          "rows", std::vector<std::int64_t>{256, 512, 1024}));
  in.vaet_seed = g.next();
  return in;
}

void digest_config(Digest& d, const WerScenarioConfig& c) {
  d.add(std::uint64_t(c.direction)).add(c.sigma_ic_rel).add(c.seed);
  d.add(std::uint64_t(c.trajectories));
  for (const double v : c.pulse_widths) d.add(v);
  for (const double v : c.voltages) d.add(v);
  for (const double v : c.temperatures) d.add(v);
}

std::string digest_inputs(const Inputs& in, const ArrayStage& array) {
  Digest d;
  digest_config(d, in.is_mc);
  digest_config(d, in.analytic);
  for (std::size_t i = 0; i < in.vaet_space.size(); ++i) {
    d.add(in.vaet_space.at(i).key());
  }
  d.add(in.vaet_seed);
  array.digest(d);
  return d.hex();
}

/// Digest of a WER table; `bad` names the first non-finite or unresolved
/// value.
std::uint64_t check_wer(const std::vector<WerScenarioPoint>& pts, bool mc,
                        std::string& bad) {
  Digest d;
  for (const auto& p : pts) {
    const double v[] = {p.pulse_width, p.voltage, p.temperature, p.i_write,
                        p.log10_wer_behavioural, p.log10_wer_analytic,
                        p.mc.wer, p.mc.rel_error, p.mc.ess};
    for (const double x : v) {
      d.add(x);
      if (!std::isfinite(x) && bad.empty()) bad = "non-finite WER table value";
    }
    d.add(std::uint64_t(p.mc.n_trajectories)).add(std::uint64_t(p.mc.n_failures));
    if (mc && bad.empty() &&
        (p.mc.n_failures == 0 || !(p.mc.rel_error <= kMaxRelErr))) {
      bad = "IS-MC estimate unresolved (rel_err " +
            std::to_string(p.mc.rel_error) + ")";
    }
  }
  return d.value();
}

std::uint64_t check_vaet(const std::vector<mss::vaet::VaetResult>& rs,
                         std::string& bad) {
  Digest d;
  for (const auto& r : rs) {
    for (const auto* s : {&r.write_latency, &r.write_energy, &r.read_latency,
                          &r.read_energy}) {
      const double v[] = {s->nominal, s->mean, s->sigma, s->min, s->max, s->p99};
      for (const double x : v) {
        d.add(x);
        if (!(std::isfinite(x) && x >= 0.0) && bad.empty()) {
          bad = "VAET summary not finite and non-negative";
        }
      }
    }
  }
  return d.value();
}

} // namespace

std::string reliability_flow_inputs(std::uint64_t seed) {
  return digest_inputs(make_inputs(seed), ArrayStage(seed));
}

Outcome run_reliability_flow(const Config& cfg, Tracer& tr) {
  Outcome out;
  const Inputs in = make_inputs(cfg.seed);
  ArrayStage array(cfg.seed);
  out.inputs_digest = digest_inputs(in, array);

  // Set-up: constructing the scenarios and estimators, plus one reduced
  // call of each physics stage so the pool, the special-function tables
  // and the array models are warm before timing, and building the write
  // netlist of every array size.
  std::optional<WerScenario> is_mc;
  std::optional<WerScenario> analytic;
  for (std::size_t i = 0; i < kSetups; ++i) {
    const double t0 = now_s();
    is_mc.emplace(in.is_mc);
    analytic.emplace(in.analytic);
    WerScenarioConfig small = in.is_mc;
    small.pulse_widths.resize(1);
    small.temperatures.resize(1);
    small.trajectories = 64;
    (void)WerScenario(small).run();
    mss::vaet::VaetOptions vo;
    vo.mc_samples = 64;
    mss::util::Rng rng(in.vaet_seed);
    (void)mss::vaet::VaetStt(mss::core::Pdk::mss45(),
                             mss::nvsim::ArrayOrg{256, 256, 256}, vo)
        .monte_carlo(rng);
    array.build_netlists(tr, 0);
    out.setup_s.push_back(now_s() - t0);
  }

  const std::size_t passes = passes_for(cfg.seconds, kPassesPerS);
  std::uint64_t first[3] = {0, 0, 0};
  for (std::size_t p = 0; p < passes && !over_budget(out.pass_s, cfg.seconds);
       ++p) {
    const std::uint64_t group = p + 1;
    const std::uint64_t pass_span = tr.open();
    const double t0 = now_s();
    std::uint64_t digest[3] = {0, 0, 0};
    std::string bad[3];
    double op_t[3] = {0, 0, 0};
    std::size_t rows[3] = {0, 0, 0};
    try {
      double a = now_s();
      const auto mc_pts = is_mc->run();
      double b = now_s();
      tr.record("physics.wer_is", a, b, group, pass_span);
      op_t[0] = b - a;
      rows[0] = mc_pts.size();
      digest[0] = check_wer(mc_pts, true, bad[0]);
      for (const auto& pt : mc_pts) {
        tr.count("physics.trajectories", double(pt.mc.n_trajectories));
        tr.count("physics.ess", pt.mc.ess);
      }

      a = now_s();
      const auto an_pts = analytic->run();
      b = now_s();
      tr.record("core.wer_analytic", a, b, group, pass_span);
      op_t[1] = b - a;
      rows[1] = an_pts.size();
      digest[1] = check_wer(an_pts, false, bad[1]);

      a = now_s();
      const std::uint64_t sweep_span = tr.open();
      const auto exp = mss::sweep::make_experiment(
          "vaet-grid",
          [&](const mss::sweep::Point& pt, mss::util::Rng& rng) {
            mss::vaet::VaetOptions vo;
            vo.mc_samples = kVaetSamples;
            const auto rows_n = std::size_t(pt.integer("rows"));
            const mss::vaet::VaetStt vaet(
                mss::core::Pdk::for_node(
                    mss::core::node_from_string(pt.str("node"))),
                mss::nvsim::ArrayOrg{rows_n, rows_n, 256}, vo);
            Scope s(tr, "vaet.mc", group, sweep_span);
            tr.count("vaet.samples", double(kVaetSamples));
            return vaet.monte_carlo(rng);
          });
      mss::sweep::RunOptions ropt;
      ropt.threads = 1; // serial outer sweep; the MC shards across the pool
      ropt.seed = in.vaet_seed;
      const auto vaet = mss::sweep::Runner(ropt).run(in.vaet_space, exp);
      b = now_s();
      tr.close(sweep_span, "sweep.run", a, b, group, pass_span);
      op_t[2] = b - a;
      rows[2] = vaet.size();
      digest[2] = check_vaet(vaet, bad[2]);
    } catch (const std::exception& e) {
      bad[0] = e.what();
    }
    const double a0 = now_s();
    const std::uint64_t array_span = tr.open();
    array.run(p, tr, array_span, out);
    const double t1 = now_s();
    tr.close(array_span, "cells.array", a0, t1, group, pass_span);
    tr.close(pass_span, "reliability.pass", t0, t1, group);
    out.pass_s.push_back(t1 - t0);
    static const char* const kStage[3] = {"IS-MC WER", "analytic WER", "VAET grid"};
    for (std::size_t s = 0; s < 3; ++s) {
      ++out.attempted;
      out.op_ms.push_back(1e3 * op_t[s]);
      if (p == 0) first[s] = digest[s];
      if (bad[s].empty() && digest[s] != first[s]) bad[s] = "table differs from pass 1";
      if (!bad[s].empty()) {
        out.fail(std::string(kStage[s]) + ": " + bad[s]);
      } else {
        out.results += double(rows[s]);
      }
    }
  }
  out.rss_peak_mb = rss_peak_mb();
  return out;
}

} // namespace perfbench
