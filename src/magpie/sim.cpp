#include "magpie/sim.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

namespace mss::magpie {

namespace {

/// Simulates one cluster; returns its activity slice.
ClusterActivity run_cluster(const ClusterParams& cl, const UncoreParams& un,
                            std::size_t line_bytes,
                            const KernelParams& kernel, std::uint64_t seed,
                            unsigned thread_base) {
  ClusterActivity act;
  act.name = cl.core.name;

  // Shared L2 behind per-core L1s.
  Cache l2(cl.l2.capacity_bytes, cl.l2_ways, line_bytes, nullptr);
  std::vector<std::unique_ptr<Cache>> l1s;
  std::vector<TraceGenerator> gens;
  std::vector<std::uint64_t> refs_left;
  std::vector<double> stall_time(cl.n_cores, 0.0);

  for (unsigned c = 0; c < cl.n_cores; ++c) {
    l1s.push_back(std::make_unique<Cache>(cl.l1_bytes, cl.l1_ways, line_bytes,
                                          &l2));
    gens.emplace_back(kernel, thread_base + c, seed);
    refs_left.push_back(gens.back().total_refs());
  }

  // Exposed load latency per hit level (HitLevel order: L1, L2, Memory),
  // looked up rather than branched on: the level is data-dependent.
  const double miss_penalty[3] = {
      0.0, cl.l2.read_latency * (1.0 - cl.core.miss_overlap),
      (cl.l2.read_latency + un.bus_latency + un.dram_latency) *
          (1.0 - cl.core.miss_overlap)};

  // Interleave thread reference streams in chunks through the shared L2.
  constexpr std::uint64_t kChunk = 64;
  bool any = true;
  while (any) {
    any = false;
    for (unsigned c = 0; c < cl.n_cores; ++c) {
      if (refs_left[c] == 0) continue;
      any = true;
      const std::uint64_t n = std::min<std::uint64_t>(kChunk, refs_left[c]);
      for (std::uint64_t k = 0; k < n; ++k) {
        const MemRef ref = gens[c].next();
        const std::uint64_t l2_wr_before = l2.stats().writes;
        const HitLevel level = l1s[c]->access(ref.addr, ref.is_write);
        const std::uint64_t l2_wr_after = l2.stats().writes;

        // Latency contribution of this reference.
        double penalty = miss_penalty[static_cast<std::size_t>(level)];
        // Writebacks emitted into the L2 by this access: mostly absorbed by
        // the write buffer, a fraction of the L2 *write* latency is exposed.
        const std::uint64_t new_l2_writes = l2_wr_after - l2_wr_before;
        penalty += double(new_l2_writes) * cl.l2.write_latency *
                   cl.core.wb_exposed;
        stall_time[c] += penalty;
      }
      refs_left[c] -= n;
    }
  }

  // Roll up counters.
  act.instructions = std::uint64_t(cl.n_cores) * kernel.instructions;
  for (const auto& l1 : l1s) {
    act.l1_accesses += l1->stats().accesses();
    act.l1_misses += l1->stats().misses();
  }
  act.l2_accesses = l2.stats().accesses();
  act.l2_misses = l2.stats().misses();
  act.l2_writes = l2.stats().writes + l2.stats().writebacks;
  act.dram_accesses = l2.stats().misses() + l2.stats().writebacks;

  double worst = 0.0;
  for (unsigned c = 0; c < cl.n_cores; ++c) {
    const double compute =
        double(kernel.instructions) / cl.core.base_ipc / cl.core.freq_hz;
    worst = std::max(worst, compute + stall_time[c]);
  }
  act.time = worst;
  act.ipc = double(kernel.instructions) /
            (act.time * cl.core.freq_hz);
  return act;
}

} // namespace

ActivityReport simulate(const SystemConfig& sys, const KernelParams& kernel,
                        std::uint64_t seed) {
  ActivityReport rep;
  rep.kernel = kernel.name;
  rep.config = sys.name;
  rep.little = run_cluster(sys.little, sys.uncore, sys.line_bytes, kernel,
                           seed, /*thread_base=*/0);
  rep.big = run_cluster(sys.big, sys.uncore, sys.line_bytes, kernel, seed,
                        /*thread_base=*/16);
  rep.exec_time = std::max(rep.little.time, rep.big.time);
  return rep;
}

} // namespace mss::magpie
