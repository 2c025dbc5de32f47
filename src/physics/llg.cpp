#include "physics/llg.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "physics/constants.hpp"
#include "physics/vec3_batch.hpp"
#include "util/parallel.hpp"

namespace mss::physics {

double LlgParams::stt_field(double i_amps) const {
  const double j = i_amps / area;
  return kHbar * polarization * j /
         (2.0 * kElectronCharge * kMu0 * ms * t_fl);
}

double LlgParams::delta() const {
  const double keff = 0.5 * kMu0 * ms * hk_eff;
  return keff * volume / thermal_energy(temperature);
}

LlgSolver::LlgSolver(LlgParams params) : params_(params) {
  if (params_.ms <= 0.0 || params_.volume <= 0.0 || params_.area <= 0.0 ||
      params_.t_fl <= 0.0 || params_.alpha <= 0.0) {
    throw std::invalid_argument("LlgSolver: non-physical parameters");
  }
}

Vec3 LlgSolver::effective_field(const Vec3& m) const {
  // Uniaxial perpendicular anisotropy: H_ani = Hk_eff * m_z * e_z.
  return Vec3{0.0, 0.0, params_.hk_eff * m.z} + params_.h_applied;
}

Vec3 LlgSolver::rhs(const Vec3& m, const Vec3& h, double i_amps) const {
  const double gp = kGamma * kMu0; // torque prefactor for H in A/m
  const double alpha = params_.alpha;
  const double inv = 1.0 / (1.0 + alpha * alpha);

  const Vec3 m_x_h = m.cross(h);
  const Vec3 m_x_m_x_h = m.cross(m_x_h);

  Vec3 dmdt = (-gp * inv) * (m_x_h + alpha * m_x_m_x_h);

  if (i_amps != 0.0) {
    // Slonczewski in-plane torque with equivalent field a_j.
    const double aj = params_.stt_field(i_amps);
    const Vec3& p = params_.polarizer;
    const Vec3 m_x_p = m.cross(p);
    const Vec3 m_x_m_x_p = m.cross(m_x_p);
    dmdt += (-gp * inv * aj) * (m_x_m_x_p - alpha * m_x_p);
  }
  return dmdt;
}

namespace {

// Per-step drift correction; the batched kernel mirrors this expression
// lane-wise (see Vec3::renormalized and Vec3Batch::normalized).
Vec3 renormalize(const Vec3& m) { return m.renormalized(); }

} // namespace

LlgRun LlgSolver::integrate(const Vec3& m0, double duration, double dt,
                            double i_amps, std::size_t record_stride) const {
  if (dt <= 0.0 || duration <= 0.0) {
    throw std::invalid_argument("LlgSolver::integrate: bad time step");
  }
  LlgRun run;
  Vec3 m = renormalize(m0);
  const double mz0_sign = (m.z >= 0.0) ? 1.0 : -1.0;
  const auto steps = static_cast<std::size_t>(std::ceil(duration / dt));
  const bool record = record_stride != 0;
  if (record) run.trajectory.push_back({0.0, m});
  for (std::size_t k = 0; k < steps; ++k) {
    const double t = double(k) * dt;
    const Vec3 k1 = rhs(m, effective_field(m), i_amps);
    const Vec3 m2 = renormalize(m + k1 * (dt / 2.0));
    const Vec3 k2 = rhs(m2, effective_field(m2), i_amps);
    const Vec3 m3 = renormalize(m + k2 * (dt / 2.0));
    const Vec3 k3 = rhs(m3, effective_field(m3), i_amps);
    const Vec3 m4 = renormalize(m + k3 * dt);
    const Vec3 k4 = rhs(m4, effective_field(m4), i_amps);
    m = renormalize(m + (k1 + 2.0 * k2 + 2.0 * k3 + k4) * (dt / 6.0));
    if (!run.switched && m.z * mz0_sign < 0.0) {
      run.switched = true;
      run.switch_time = t + dt;
    }
    if (record && (k + 1) % record_stride == 0) {
      run.trajectory.push_back({t + dt, m});
    }
  }
  if (record && run.trajectory.back().t < duration) {
    run.trajectory.push_back({duration, m});
  }
  run.m_final = m;
  return run;
}

LlgRun LlgSolver::integrate_thermal(const Vec3& m0, double duration, double dt,
                                    double i_amps, mss::util::Rng& rng,
                                    std::size_t record_stride) const {
  if (dt <= 0.0 || duration <= 0.0) {
    throw std::invalid_argument("LlgSolver::integrate_thermal: bad time step");
  }
  LlgRun run;
  Vec3 m = renormalize(m0);
  const double mz0_sign = (m.z >= 0.0) ? 1.0 : -1.0;
  const auto steps = static_cast<std::size_t>(std::ceil(duration / dt));
  const bool record = record_stride != 0;
  if (record) run.trajectory.push_back({0.0, m});

  // Brown thermal-field standard deviation per component for step dt.
  const double sigma_h =
      std::sqrt(2.0 * params_.alpha *
                thermal_energy(params_.temperature) /
                (kGamma * kMu0 * kMu0 * params_.ms * params_.volume * dt));

  for (std::size_t k = 0; k < steps; ++k) {
    const double t = double(k) * dt;
    const Vec3 h_th{sigma_h * rng.normal(), sigma_h * rng.normal(),
                    sigma_h * rng.normal()};
    // Heun predictor-corrector; the thermal field is held fixed across the
    // two stages (Stratonovich interpretation).
    const Vec3 f1 = rhs(m, effective_field(m) + h_th, i_amps);
    const Vec3 mp = renormalize(m + f1 * dt);
    const Vec3 f2 = rhs(mp, effective_field(mp) + h_th, i_amps);
    m = renormalize(m + (f1 + f2) * (0.5 * dt));
    if (!run.switched && m.z * mz0_sign < 0.0) {
      run.switched = true;
      run.switch_time = t + dt;
    }
    if (record && (k + 1) % record_stride == 0) {
      run.trajectory.push_back({t + dt, m});
    }
  }
  if (record && run.trajectory.back().t < duration) {
    run.trajectory.push_back({duration, m});
  }
  run.m_final = m;
  return run;
}

namespace {

/// Lane-uniform coefficients of the batched Heun step, hoisted out of the
/// hot loop. Each value mirrors the corresponding scalar-path expression
/// exactly (same order, same association), so batched lanes reproduce the
/// scalar trajectory bit-for-bit.
struct BatchCoeffs {
  std::size_t steps = 0;
  double dt = 0.0;
  double sigma_h = 0.0; ///< Brown thermal-field sigma per component
  double alpha = 0.0;
  double c_prec = 0.0; ///< -gamma mu0 / (1 + alpha^2)
  bool stt = false;
  /// c_prec * a_j per lane. Lane-uniform runs broadcast one value, the
  /// rare-event estimator folds its per-trajectory switching-threshold
  /// scale in here (scaling the spin-torque prefactor is exactly a
  /// per-device critical-current scale).
  std::array<double, LlgSolver::kLanes> c_stt{};
  Vec3 pol;           ///< polariser direction
  double hax = 0.0, hay = 0.0, haz = 0.0; ///< applied field (x, y folded)
  double hk = 0.0;    ///< perpendicular anisotropy field
  bool stop_on_switch = false;
};

/// Mirrors LlgSolver::rhs for one lane with the lane-uniform coefficients
/// prefolded. `STT` is the (lane-uniform) i_amps != 0 branch, lifted to a
/// template parameter so the lane loop body stays branch-free and
/// vectorizable; `c_stt` is the lane's spin-torque coefficient.
template <bool STT>
[[gnu::always_inline]] inline Vec3 rhs_lane(const BatchCoeffs& c,
                                            const Vec3& m, const Vec3& h,
                                            double c_stt) {
  const Vec3 m_x_h = m.cross(h);
  const Vec3 m_x_m_x_h = m.cross(m_x_h);
  Vec3 dmdt = (m_x_h + c.alpha * m_x_m_x_h) * c.c_prec;
  if constexpr (STT) {
    const Vec3 m_x_p = m.cross(c.pol);
    const Vec3 m_x_m_x_p = m.cross(m_x_p);
    dmdt += (m_x_m_x_p - c.alpha * m_x_p) * c_stt;
  }
  return dmdt;
}

/// One Heun step of all lanes: a countable loop whose body is the
/// straight-line scalar step, which is what the loop vectorizer needs (the
/// register-resident Batch-expression form never vectorized — SLP seeds
/// from store groups, and there were none). Each lane mirrors the scalar
/// `integrate_thermal` step expression-for-expression, with
/// `effective_field(m) + h_th` folded through the prefolded transverse
/// sums in `BatchCoeffs`.
constexpr std::size_t kLanes = LlgSolver::kLanes;
using LaneBatch = Vec3Batch<kLanes>;
using LaneScalars = mss::util::Batch<double, kLanes>;

template <bool STT>
[[gnu::always_inline]] inline void heun_step_lanes(const BatchCoeffs& c,
                                                   LaneBatch& m,
                                                   const LaneBatch& h_th) {
  for (std::size_t l = 0; l < kLanes; ++l) {
    const Vec3 ml{m.x[l], m.y[l], m.z[l]};
    const Vec3 ht{h_th.x[l], h_th.y[l], h_th.z[l]};
    const double cs = c.c_stt[l];
    const Vec3 h1{c.hax + ht.x, c.hay + ht.y, (ml.z * c.hk + c.haz) + ht.z};
    const Vec3 f1 = rhs_lane<STT>(c, ml, h1, cs);
    const Vec3 mp = (ml + f1 * c.dt).renormalized();
    const Vec3 h2{c.hax + ht.x, c.hay + ht.y, (mp.z * c.hk + c.haz) + ht.z};
    const Vec3 f2 = rhs_lane<STT>(c, mp, h2, cs);
    const Vec3 mn = (ml + (f1 + f2) * (0.5 * c.dt)).renormalized();
    m.x[l] = mn.x;
    m.y[l] = mn.y;
    m.z[l] = mn.z;
  }
}

/// The Heun step loop over the structure-of-arrays lanes, compiled once
/// per ISA by MSS_SIMD_CLONES; the loop itself contains lane-wise
/// operations only. The clones change throughput only: with contraction
/// disabled globally every ISA executes the identical IEEE-754 operation
/// sequence per lane.
MSS_SIMD_CLONES LlgBatchRun heun_batch(const BatchCoeffs& c, LaneBatch m,
                                       LaneScalars mz0_sign,
                                       std::uint32_t active,
                                       mss::util::Rng* lane_rngs) {
  LlgBatchRun out;
  // Lanes still integrating. Idle lanes (masked out, or frozen after a
  // switch under stop_on_switch) draw nothing from their streams and stop
  // updating results; the arithmetic still runs full-width — per-lane
  // branches in the SoA loops would cost more than the wasted flops.
  std::uint32_t run_mask = active;
  std::uint32_t switched_mask = 0;

  LaneBatch raw = LaneBatch::broadcast({0.0, 0.0, 0.0});
  LaneBatch h_th;
  for (std::size_t k = 0; k < c.steps && run_mask != 0; ++k) {
    const double t = double(k) * c.dt;
    // Masked per-lane thermal draws: lane l consumes x, y, z from its own
    // substream (each lane owns a stream, so component-major fill order is
    // the scalar per-trajectory order); idle lanes draw nothing. Scaling
    // runs full-width — idle lanes just rescale their stale draw.
    mss::util::Rng::normal_batch<kLanes>(lane_rngs, raw.x.lane, run_mask);
    mss::util::Rng::normal_batch<kLanes>(lane_rngs, raw.y.lane, run_mask);
    mss::util::Rng::normal_batch<kLanes>(lane_rngs, raw.z.lane, run_mask);
    h_th.x = raw.x * c.sigma_h;
    h_th.y = raw.y * c.sigma_h;
    h_th.z = raw.z * c.sigma_h;
    // Heun predictor-corrector; the thermal field is held fixed across the
    // two stages (Stratonovich interpretation).
    if (c.stt) {
      heun_step_lanes<true>(c, m, h_th);
    } else {
      heun_step_lanes<false>(c, m, h_th);
    }
    ++out.steps_run;

    for (std::size_t l = 0; l < kLanes; ++l) {
      const std::uint32_t bit = 1u << l;
      if ((run_mask & bit) && !(switched_mask & bit) &&
          m.z[l] * mz0_sign[l] < 0.0) {
        switched_mask |= bit;
        out.switch_time[l] = t + c.dt;
        if (c.stop_on_switch) {
          out.m_final[l] = m.lane(l);
          run_mask &= ~bit;
        }
      }
    }
  }

  for (std::size_t l = 0; l < kLanes; ++l) {
    const std::uint32_t bit = 1u << l;
    if (active & bit) {
      out.switched[l] = (switched_mask & bit) != 0;
      // Lanes that ran to the end of the pulse (everyone unless frozen by
      // stop_on_switch) report the final magnetisation.
      if (run_mask & bit) out.m_final[l] = m.lane(l);
    }
  }
  return out;
}

} // namespace

LlgBatchRun LlgSolver::integrate_thermal_batch(
    const std::array<Vec3, kLanes>& m0, double duration, double dt,
    double i_amps, mss::util::Rng* lane_rngs, std::uint32_t active_mask,
    bool stop_on_switch, const std::array<double, kLanes>* stt_scale) const {
  if (dt <= 0.0 || duration <= 0.0) {
    throw std::invalid_argument(
        "LlgSolver::integrate_thermal_batch: bad time step");
  }
  const std::uint32_t active = active_mask & ((1u << kLanes) - 1u);

  LaneBatch m = LaneBatch::broadcast({0.0, 0.0, 1.0});
  LaneScalars mz0_sign = LaneScalars::broadcast(1.0);
  for (std::size_t l = 0; l < kLanes; ++l) {
    if (active >> l & 1u) {
      const Vec3 ml = m0[l].renormalized();
      m.set_lane(l, ml);
      mz0_sign[l] = (ml.z >= 0.0) ? 1.0 : -1.0;
    }
  }

  BatchCoeffs c;
  c.steps = static_cast<std::size_t>(std::ceil(duration / dt));
  c.dt = dt;
  // Brown thermal-field standard deviation per component for step dt.
  c.sigma_h =
      std::sqrt(2.0 * params_.alpha *
                thermal_energy(params_.temperature) /
                (kGamma * kMu0 * kMu0 * params_.ms * params_.volume * dt));
  const double gp = kGamma * kMu0;
  c.alpha = params_.alpha;
  const double inv = 1.0 / (1.0 + c.alpha * c.alpha);
  c.c_prec = -gp * inv;
  c.stt = i_amps != 0.0;
  const double aj = c.stt ? params_.stt_field(i_amps) : 0.0;
  const double c_stt_base = -gp * inv * aj;
  // Lane-uniform runs broadcast the base coefficient (multiplying by a
  // per-lane scale of exactly 1.0 would also be bit-identical, but the
  // broadcast keeps the no-scale path untouched).
  for (std::size_t l = 0; l < kLanes; ++l) {
    c.c_stt[l] = stt_scale ? c_stt_base * (*stt_scale)[l] : c_stt_base;
  }
  c.pol = params_.polarizer;
  c.hax = 0.0 + params_.h_applied.x;
  c.hay = 0.0 + params_.h_applied.y;
  c.haz = params_.h_applied.z;
  c.hk = params_.hk_eff;
  c.stop_on_switch = stop_on_switch;

  return heun_batch(c, m, mz0_sign, active, lane_rngs);
}

namespace {

/// Chunk size of the trajectory-parallel ensemble, in trajectories. Fixed
/// (never a function of the thread count), so the chunk -> trajectory
/// layout and the accumulation order (strictly ascending trajectory index
/// within a chunk, chunks merged in index order) are identical for any
/// thread count — which is what makes the reduced statistics bit-identical.
/// The value itself is part of the results: `RunningStats::merge` rounds
/// differently from sequential `add`, so a different chunk size would move
/// the last bits of every ensemble and WER statistic.
constexpr std::size_t kChunkTrajectories = 8;

struct EnsembleChunkStats {
  std::size_t switched = 0;
  mss::util::RunningStats switch_time;
  double mz_final_sum = 0.0;
};

LlgEnsembleResult ensemble_run(const LlgSolver& solver, std::size_t n,
                               const Vec3& m0, double duration, double dt,
                               double i_amps,
                               const std::vector<mss::util::Rng>& streams,
                               const LlgEnsembleOptions& options) {
  const bool start_up = m0.z >= 0.0;
  const auto map_chunk = [&](std::size_t, std::size_t begin,
                             std::size_t end) {
    EnsembleChunkStats st;
    for (std::size_t b = begin; b < end; b += kLanes) {
      const std::size_t lanes = std::min(kLanes, end - b);
      std::array<mss::util::Rng, kLanes> lane_rngs;
      std::array<Vec3, kLanes> starts;
      starts.fill(Vec3{0.0, 0.0, 1.0});
      std::uint32_t mask = 0;
      for (std::size_t l = 0; l < lanes; ++l) {
        // Lane l steps trajectory b + l on that trajectory's own stream;
        // the start draw comes from the same stream, exactly like the
        // scalar reference.
        lane_rngs[l] = streams[b + l];
        mask |= 1u << l;
      }
      solver.thermal_initial_state_batch(start_up, lane_rngs.data(), mask,
                                         starts);
      const auto run = solver.integrate_thermal_batch(
          starts, duration, dt, i_amps, lane_rngs.data(), mask);
      for (std::size_t l = 0; l < lanes; ++l) {
        if (run.switched[l]) {
          ++st.switched;
          st.switch_time.add(run.switch_time[l]);
        }
        st.mz_final_sum += run.m_final[l].z;
      }
    }
    return st;
  };
  // parallel_reduce combines in chunk order — RunningStats::merge is
  // order-sensitive at the bit level, so the fixed order is what makes the
  // reduction thread-count invariant.
  const auto combine = [](EnsembleChunkStats acc, EnsembleChunkStats part) {
    acc.switched += part.switched;
    acc.switch_time.merge(part.switch_time);
    acc.mz_final_sum += part.mz_final_sum;
    return acc;
  };

  const EnsembleChunkStats total =
      mss::util::ThreadPool::reduce_with<EnsembleChunkStats>(
          options.threads, n, kChunkTrajectories, EnsembleChunkStats{},
          map_chunk, combine);

  LlgEnsembleResult out;
  out.n_trajectories = n;
  out.n_switched = total.switched;
  out.switch_time = total.switch_time;
  out.mean_mz_final = total.mz_final_sum / double(n);
  return out;
}

} // namespace

LlgEnsembleResult LlgSolver::integrate_thermal_ensemble(
    std::size_t n_trajectories, const Vec3& m0, double duration, double dt,
    double i_amps, mss::util::Rng& rng,
    const LlgEnsembleOptions& options) const {
  if (dt <= 0.0 || duration <= 0.0) {
    throw std::invalid_argument(
        "LlgSolver::integrate_thermal_ensemble: bad time step");
  }
  LlgEnsembleResult out;
  out.n_trajectories = n_trajectories;
  if (n_trajectories == 0) return out;

  // One jump substream per *trajectory* (not per chunk): trajectory k's
  // draws are a pure function of (rng state on entry, k), so lane k of any
  // batch and any worker thread replay the same sequence. The caller's rng
  // advances once, identically for every thread count.
  const std::vector<mss::util::Rng> streams =
      rng.jump_substreams(n_trajectories);
  return ensemble_run(*this, n_trajectories, m0, duration, dt, i_amps,
                      streams, options);
}

Vec3 LlgSolver::thermal_initial_state(bool up, mss::util::Rng& rng) const {
  const double delta = params_.delta();
  // Small-angle equilibrium: theta^2/2 ~ Exp(1/ (2 Delta)) in the quadratic
  // well; equivalently theta_x, theta_y ~ N(0, 1/(2 Delta)).
  const double s = std::sqrt(1.0 / (2.0 * std::max(delta, 1.0)));
  const double tx = s * rng.normal();
  const double ty = s * rng.normal();
  const double sign = up ? 1.0 : -1.0;
  Vec3 m{tx, ty, sign * std::sqrt(std::max(0.0, 1.0 - tx * tx - ty * ty))};
  return m.normalized();
}

void LlgSolver::thermal_initial_state_batch(
    bool up, mss::util::Rng* lane_rngs, std::uint32_t active_mask,
    std::array<Vec3, kLanes>& starts) const {
  const std::uint32_t active = active_mask & ((1u << kLanes) - 1u);
  const double delta = params_.delta();
  const double s = std::sqrt(1.0 / (2.0 * std::max(delta, 1.0)));
  // Component-major masked fill: lane l consumes z_x then z_y from its own
  // stream — the scalar per-trajectory draw order.
  LaneScalars zx{};
  LaneScalars zy{};
  mss::util::Rng::normal_batch<kLanes>(lane_rngs, zx.lane, active);
  mss::util::Rng::normal_batch<kLanes>(lane_rngs, zy.lane, active);
  const double sign = up ? 1.0 : -1.0;
  for (std::size_t l = 0; l < kLanes; ++l) {
    if (!(active >> l & 1u)) continue;
    const double tx = s * zx[l];
    const double ty = s * zy[l];
    Vec3 m{tx, ty, sign * std::sqrt(std::max(0.0, 1.0 - tx * tx - ty * ty))};
    starts[l] = m.normalized();
  }
}

namespace {

/// Per-chunk accumulators of the importance-sampled WER estimator. The
/// per-trajectory scores v_k = w_k * 1[failure] stream into `score` in
/// strictly ascending trajectory order; `w_sum`/`w_sq_sum` run over the
/// failure subset only (the ESS numerator/denominator).
struct WerChunkStats {
  mss::util::RunningStats score;
  double w_sum = 0.0;
  double w_sq_sum = 0.0;
  std::size_t failures = 0;
};

WerChunkStats wer_run(const LlgSolver& solver, std::size_t n, const Vec3& m0,
                      double duration, double dt, double i_amps,
                      double ic_sigma, const ThresholdProposal& q,
                      const std::vector<mss::util::Rng>& streams,
                      std::size_t threads) {
  const double log_ic_sd = std::log(q.sd);
  const double log_lambda = q.defensive > 0.0 ? std::log(q.defensive) : 0.0;
  const double log_1m_lambda =
      q.defensive > 0.0 ? std::log1p(-q.defensive) : 0.0;
  const bool start_up = m0.z >= 0.0;
  const auto map_chunk = [&](std::size_t, std::size_t begin,
                             std::size_t end) {
    WerChunkStats st;
    for (std::size_t b = begin; b < end; b += kLanes) {
      const std::size_t lanes = std::min(kLanes, end - b);
      std::array<mss::util::Rng, kLanes> lane_rngs;
      std::array<Vec3, kLanes> starts;
      std::array<double, kLanes> log_w{};
      starts.fill(Vec3{0.0, 0.0, 1.0});
      std::uint32_t mask = 0;
      for (std::size_t l = 0; l < lanes; ++l) {
        lane_rngs[l] = streams[b + l];
        mask |= 1u << l;
      }
      // Per-trajectory switching-threshold deviate (draw #1 of the lane
      // stream, before the cone draws): lane l runs against a device with
      // Ic scaled by (1 + sigma z_l), folded into the kernel as the
      // reciprocal spin-torque scale. The threshold proposal contributes
      // its exact 1-D likelihood ratio to the lane weight.
      std::array<double, kLanes> stt_scale;
      stt_scale.fill(1.0);
      if (ic_sigma > 0.0) {
        // With a defensive mixture each lane draws (component selector,
        // standard deviate) in that fixed order from its own substream —
        // exactly one uniform and one normal per lane either way, so the
        // consumption pattern (and hence the determinism contract) does
        // not depend on which component a lane lands in.
        std::array<double, kLanes> sel{};
        if (q.defensive > 0.0) {
          for (std::size_t l = 0; l < lanes; ++l) {
            sel[l] = lane_rngs[l].uniform();
          }
        }
        LaneScalars u{};
        mss::util::Rng::normal_batch<kLanes>(lane_rngs.data(), u.lane, mask);
        for (std::size_t l = 0; l < lanes; ++l) {
          const bool defensive = q.defensive > 0.0 && sel[l] < q.defensive;
          const double z = defensive ? u[l] : q.shift + q.sd * u[l];
          // Guard the unphysical Ic <= 0 left tail (>= 10 sigma for any
          // realistic spread); the clamp keeps the weight exact because it
          // only touches the dynamics, not the density ratio.
          const double ic_mult = std::max(0.05, 1.0 + ic_sigma * z);
          stt_scale[l] = 1.0 / ic_mult;
          if (q.defensive <= 0.0) {
            // log[ phi(z) / (phi(u) / tau) ] at z = shift + tau u. At
            // shift = 0, tau = 1 this is exactly 0: z == u bit-for-bit,
            // the two quadratics cancel and log(1) == 0 (the brute-force
            // path).
            log_w[l] = log_ic_sd + 0.5 * u[l] * u[l] - 0.5 * z * z;
          } else {
            // Mixture density: log w = log phi(z) - log[lambda phi(z) +
            // (1 - lambda) q(z)] = -logsumexp(log lambda,
            // log(1 - lambda) + log(q/phi)), with log(q(z) / phi(z)) =
            // z^2/2 - ((z - shift)/sd)^2/2 - log sd. Far below the
            // proposal the second term vanishes and w -> 1 / lambda: the
            // defensive cap.
            const double ut = (z - q.shift) / q.sd;
            const double log_ratio =
                0.5 * z * z - 0.5 * ut * ut - log_ic_sd + log_1m_lambda;
            const double m = std::max(log_lambda, log_ratio);
            log_w[l] = -(m + std::log(std::exp(log_lambda - m) +
                                      std::exp(log_ratio - m)));
          }
        }
      }
      solver.thermal_initial_state_batch(start_up, lane_rngs.data(), mask,
                                         starts);
      // Only the switch outcome matters: freeze switched lanes early.
      const auto run = solver.integrate_thermal_batch(
          starts, duration, dt, i_amps, lane_rngs.data(), mask,
          /*stop_on_switch=*/true,
          ic_sigma > 0.0 ? &stt_scale : nullptr);
      for (std::size_t l = 0; l < lanes; ++l) {
        if (run.switched[l]) {
          st.score.add(0.0);
        } else {
          const double w = std::exp(log_w[l]);
          st.score.add(w);
          st.w_sum += w;
          st.w_sq_sum += w * w;
          ++st.failures;
        }
      }
    }
    return st;
  };
  // Fixed chunk-order combine, exactly like ensemble_run: RunningStats
  // merges are order-sensitive at the bit level, and the fixed order is
  // what makes the estimate thread-count invariant.
  const auto combine = [](WerChunkStats acc, WerChunkStats part) {
    acc.score.merge(part.score);
    acc.w_sum += part.w_sum;
    acc.w_sq_sum += part.w_sq_sum;
    acc.failures += part.failures;
    return acc;
  };
  return mss::util::ThreadPool::reduce_with<WerChunkStats>(
      threads, n, kChunkTrajectories, WerChunkStats{}, map_chunk, combine);
}

} // namespace

LlgWerEstimate LlgSolver::estimate_wer(std::size_t n_trajectories,
                                       const Vec3& m0, double duration,
                                       double dt, double i_amps,
                                       mss::util::Rng& rng,
                                       const LlgWerOptions& options) const {
  if (dt <= 0.0 || duration <= 0.0) {
    throw std::invalid_argument("LlgSolver::estimate_wer: bad time step");
  }
  if (!(options.ic_sigma_rel >= 0.0)) {
    throw std::invalid_argument(
        "LlgSolver::estimate_wer: ic_sigma_rel must be >= 0");
  }
  const ThresholdProposal& q = options.proposal;
  if (!(q.shift >= 0.0) || !(q.sd >= 1.0) || !(q.defensive >= 0.0) ||
      !(q.defensive < 1.0)) {
    throw std::invalid_argument(
        "LlgSolver::estimate_wer: the threshold proposal needs shift >= 0, "
        "sd >= 1 and 0 <= defensive < 1");
  }
  if (options.ic_sigma_rel == 0.0 && q != ThresholdProposal{}) {
    throw std::invalid_argument(
        "LlgSolver::estimate_wer: a threshold proposal needs ic_sigma_rel "
        "> 0");
  }

  LlgWerEstimate out;
  out.proposal = q;
  out.n_trajectories = n_trajectories;
  if (n_trajectories == 0) return out;

  // Per-trajectory substreams — the same keying as
  // integrate_thermal_ensemble, for the same reason.
  const std::vector<mss::util::Rng> streams =
      rng.jump_substreams(n_trajectories);

  const WerChunkStats total =
      wer_run(*this, n_trajectories, m0, duration, dt, i_amps,
              options.ic_sigma_rel, q, streams, options.threads);

  out.n_failures = total.failures;
  out.wer = total.score.mean();
  // Variance of the mean of the i.i.d. scores v_k.
  out.variance = total.score.variance() / double(n_trajectories);
  out.rel_error = out.wer > 0.0 ? std::sqrt(out.variance) / out.wer : 0.0;
  out.ess = total.w_sq_sum > 0.0 ? total.w_sum * total.w_sum / total.w_sq_sum
                                 : 0.0;
  return out;
}

} // namespace mss::physics
