// Tests of the synthetic workload kernels and trace generation.
#include "magpie/workload.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <stdexcept>

namespace mm = mss::magpie;

TEST(Workload, KernelSetContainsPaperKernels) {
  const auto kernels = mm::parsec_kernels();
  EXPECT_GE(kernels.size(), 8u);
  std::set<std::string> names;
  for (const auto& k : kernels) names.insert(k.name);
  // bodytrack is the kernel shown in Fig. 11; streamcluster and
  // fluidanimate drive the streaming / write-heavy behaviours.
  EXPECT_TRUE(names.count("bodytrack"));
  EXPECT_TRUE(names.count("streamcluster"));
  EXPECT_TRUE(names.count("fluidanimate"));
  EXPECT_TRUE(names.count("blackscholes"));
}

TEST(Workload, LookupByNameWorksAndThrows) {
  EXPECT_EQ(mm::kernel_by_name("bodytrack").name, "bodytrack");
  EXPECT_THROW((void)mm::kernel_by_name("doom"), std::out_of_range);
}

TEST(Workload, TraceIsDeterministic) {
  const auto k = mm::kernel_by_name("bodytrack");
  mm::TraceGenerator a(k, 0, 99), b(k, 0, 99);
  for (int i = 0; i < 1000; ++i) {
    const auto ra = a.next();
    const auto rb = b.next();
    EXPECT_EQ(ra.addr, rb.addr);
    EXPECT_EQ(ra.is_write, rb.is_write);
  }
}

TEST(Workload, DifferentThreadsUseDifferentPrivateRegions) {
  const auto k = mm::kernel_by_name("streamcluster");
  mm::TraceGenerator a(k, 0), b(k, 3);
  std::set<std::uint64_t> pages_a, pages_b;
  for (int i = 0; i < 5000; ++i) {
    pages_a.insert(a.next().addr >> 21);
    pages_b.insert(b.next().addr >> 21);
  }
  // Streaming pages must not collide between threads (shared hot pages may).
  int common_private = 0;
  for (auto p : pages_a) {
    if (p >= (0x8000'0000ull >> 21) && pages_b.count(p)) ++common_private;
  }
  EXPECT_EQ(common_private, 0);
}

TEST(Workload, WriteRatioApproximatelyHonoured) {
  const auto k = mm::kernel_by_name("fluidanimate"); // write_ratio 0.45
  mm::TraceGenerator g(k, 1);
  int writes = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) writes += g.next().is_write ? 1 : 0;
  EXPECT_NEAR(double(writes) / n, k.write_ratio, 0.02);
}

TEST(Workload, TotalRefsMatchesMemRatio) {
  const auto k = mm::kernel_by_name("swaptions");
  mm::TraceGenerator g(k, 0);
  EXPECT_EQ(g.total_refs(),
            std::uint64_t(double(k.instructions) * k.mem_ratio));
}

TEST(Workload, HotAccessesDominatePerHotFraction) {
  const auto k = mm::kernel_by_name("blackscholes"); // hot_fraction 0.92
  mm::TraceGenerator g(k, 0);
  int hot = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    if (g.next().addr < 0x8000'0000ull) ++hot;
  }
  EXPECT_NEAR(double(hot) / n, k.hot_fraction, 0.02);
}

// A region the kernel's probabilities can reach must not be empty: the
// constructor rejects it up front instead of faulting mid-simulation.
TEST(Workload, RejectsEmptyReachableRegions) {
  const auto base = mm::kernel_by_name("bodytrack");
  const auto make = [](const mm::KernelParams& k) {
    return mm::TraceGenerator(k, 0);
  };

  auto k = base;
  k.stream_bytes = 0; // hot_fraction 0.88 < 1: streaming is reachable
  EXPECT_THROW((void)make(k), std::invalid_argument);
  k.hot_fraction = 1.0; // never streams
  EXPECT_NO_THROW((void)make(k));

  k = base;
  k.hot_core_bytes = 0;
  EXPECT_THROW((void)make(k), std::invalid_argument);
  k.hot_core_fraction = 0.0; // the core slice is never drawn from
  EXPECT_NO_THROW((void)make(k));

  k = base;
  k.hot_bytes = 0; // empties the core slice and the shared tail
  EXPECT_THROW((void)make(k), std::invalid_argument);
  k.hot_core_fraction = 1.0; // core only: still the empty core slice
  EXPECT_THROW((void)make(k), std::invalid_argument);
  k.hot_core_fraction = 0.0;
  k.shared_fraction = 0.0; // tail goes to the private slices (>= 4 KiB)
  EXPECT_NO_THROW((void)make(k));
  k.hot_fraction = 0.0; // streaming only: the hot regions are unused
  k.shared_fraction = 0.5;
  EXPECT_NO_THROW((void)make(k));

  // A NaN probability makes every bernoulli() false: streaming is reached.
  k = base;
  k.stream_bytes = 0;
  k.hot_fraction = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((void)make(k), std::invalid_argument);
}

// Every reference of a valid kernel stays inside its region, including a
// streaming region shorter than a stride and one that is not a multiple
// of it.
TEST(Workload, StreamWrapsInsideItsRegion) {
  for (const std::size_t region : {std::size_t{3}, std::size_t{12},
                                   std::size_t{4096}, std::size_t{1000}}) {
    auto k = mm::kernel_by_name("streamcluster");
    k.hot_fraction = 0.0;
    k.stream_bytes = region;
    mm::TraceGenerator g(k, 2);
    const std::uint64_t base = 0x8000'0000ull + 2 * (region + (16u << 20));
    for (std::uint64_t i = 0; i < 5000; ++i) {
      const auto ref = g.next();
      ASSERT_EQ(ref.addr, base + (i * 8) % region) << region << " @ " << i;
    }
  }
}
