// Shared pieces of the end-to-end benchmark: seeded input
// generation, input/output digests, the percentile rule, the span recorder
// of the traced run, and the per-workload outcome every workload returns.
//
// The helpers above the workload interface do not call into libmss; the
// benchmark's tests (perfbench/tests) exercise them directly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Host steady-clock time in seconds.
[[nodiscard]] double now_s();

// --- seeded input generation ------------------------------------------------

/// SplitMix64: the benchmark's own generator, so a change to the library's
/// RNG can never change the benchmark's inputs.
class Gen {
 public:
  explicit Gen(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, n); n must be > 0.
  std::size_t below(std::size_t n);
  /// Uniform in [lo, hi).
  double uniform(double lo, double hi);

 private:
  std::uint64_t state_;
};

/// FNV-1a 64 over typed fields: the digest of generated inputs and of
/// outputs compared across passes.
class Digest {
 public:
  Digest& add(std::string_view s);
  Digest& add(std::uint64_t v);
  /// Adds the IEEE-754 bits, so equal digests mean bit-identical values.
  Digest& add(double v);
  [[nodiscard]] std::uint64_t value() const { return h_; }
  [[nodiscard]] std::string hex() const;

 private:
  void bytes(const void* p, std::size_t n);
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

// --- statistics ------------------------------------------------------------

[[nodiscard]] double median(std::vector<double> v);

/// A tail latency chosen by the percentile rule.
struct Tail {
  double value = 0.0;
  double percentile = 0.0; ///< nearest-rank percentile reported, in %
  std::size_t beyond = 0;  ///< samples strictly above its rank
};

/// The highest nearest-rank percentile, at most `cap`, that leaves at
/// least 10 samples beyond it, but never one below the median (then the
/// median is the tail). With fewer than 11 samples no percentile
/// qualifies and the maximum is reported (beyond = 0). Empty input gives
/// a zero Tail.
[[nodiscard]] Tail tail_percentile(std::vector<double> v, double cap = 0.90);

/// failed / attempted, 0 when nothing was attempted.
[[nodiscard]] double failed_frac(std::uint64_t attempted,
                                 std::uint64_t failed);

// --- tracing ----------------------------------------------------------------

/// One timed call into a layer. Times are steady-clock seconds.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0; ///< 0 = root
  std::uint64_t group = 0;  ///< job or pass the span belongs to
  std::string name;         ///< "<layer>.<call>[.<variant>]"
  double t0 = 0.0;
  double t1 = 0.0;
};

/// Self time of every span, in order: its duration minus the part of its
/// interval covered by the union of its direct children (clipped to the
/// span).
[[nodiscard]] std::vector<double> self_times(const std::vector<Span>& spans);

/// In-memory span and counter recorder. Disabled tracers record nothing,
/// so workloads call it unconditionally. Thread-safe.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] bool enabled() const { return enabled_; }
  /// Records a finished interval; returns its id (0 when disabled).
  std::uint64_t record(std::string name, double t0, double t1,
                       std::uint64_t group, std::uint64_t parent = 0);
  /// Reserves an id for a span whose interval is recorded later with
  /// `close`, so children can name it as their parent first.
  std::uint64_t open();
  void close(std::uint64_t id, std::string name, double t0, double t1,
             std::uint64_t group, std::uint64_t parent = 0);
  /// Adds `v` to a named counter.
  void count(const std::string& name, double v);

  [[nodiscard]] std::vector<Span> spans() const;
  [[nodiscard]] std::map<std::string, double> counters() const;
  /// Durations (s) of every span with this exact name.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const;

 private:
  bool enabled_;
  mutable std::mutex m_; ///< guards everything below
  std::uint64_t next_id_ = 1;
  std::vector<Span> spans_;
  std::map<std::string, double> counters_;
};

/// RAII span around one call: records [construction, destruction).
class Scope {
 public:
  Scope(Tracer& t, std::string name, std::uint64_t group,
        std::uint64_t parent = 0);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  std::string name_;
  std::uint64_t group_;
  std::uint64_t parent_;
  std::uint64_t id_;
  double t0_;
};

// --- workload interface ----------------------------------------------------

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string work_dir; ///< scratch directory for sockets and cache files
};

/// What one workload run measured and checked.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures; ///< first few failure messages
  std::vector<double> setup_s;       ///< one entry per set-up repetition
  std::vector<double> pass_s;        ///< one entry per timed pass
  std::vector<double> op_ms;         ///< one entry per timed operation
  double results = 0.0;              ///< rows / results delivered
  double rss_peak_mb = 0.0;
  std::string inputs_digest;
  /// Workload-specific figures printed next to the metrics (the
  /// serve-only latencies, batch time, the backend string...).
  std::map<std::string, std::string> detail;

  void fail(const std::string& why);
};

/// Peak resident set of this process so far, in MB.
[[nodiscard]] double rss_peak_mb();

/// Number of timed passes for a run of `seconds`, given the calibrated
/// passes per second of the workload. The count depends only on the run
/// length, never on measured speed, so every count and the memory a run
/// needs are functions of (seed, seconds) alone.
[[nodiscard]] std::size_t passes_for(double seconds, double passes_per_s);

/// True once the passes so far have used up the run's time budget,
/// 2 x `seconds`, and at least two passes ran. The plan is calibrated to
/// fit `seconds`, so the budget only cuts a run short on a host that is
/// more than twice as slow as the calibration host, and still bounds the
/// run time there.
[[nodiscard]] bool over_budget(const std::vector<double>& pass_s,
                               double seconds);

Outcome run_serve_cold(const Config& cfg, Tracer& tr);
Outcome run_serve_warm(const Config& cfg, Tracer& tr);
Outcome run_reliability_flow(const Config& cfg, Tracer& tr);

/// Digest of the inputs each workload generates for (seed, seconds): the
/// same pair always gives the same inputs, byte for byte.
[[nodiscard]] std::string serve_cold_inputs(std::uint64_t seed, double seconds);
[[nodiscard]] std::string serve_warm_inputs(std::uint64_t seed, double seconds);
[[nodiscard]] std::string reliability_flow_inputs(std::uint64_t seed);

/// Writes serve_warm's pre-filled cache file for (seed, seconds); the
/// child-process half of serve_warm's input generation. Returns an exit
/// code.
int make_warm_cache(const std::string& path, std::uint64_t seed,
                    double seconds);

} // namespace perfbench
