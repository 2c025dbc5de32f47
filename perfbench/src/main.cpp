// perfbench: the end-to-end benchmark program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>] [--work-dir <dir>]
//   perfbench --make-warm-cache <file> --seed <n> --seconds <s>
//
// The second form is serve_warm's input generator, which serve_warm runs
// in a child process.
//
// --trace 0 runs the workload once and prints every end-to-end metric.
// --trace 1 runs it twice, untraced then traced, and prints the per-layer
// metrics derived from the traced run's spans plus the tracing overhead
// (traced minus untraced). The last stdout line is always one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// The exit code is 0 only when every output check passed.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "common.hpp"

namespace perfbench {
namespace {

// --- build environment ------------------------------------------------------

struct Env {
  std::string compiler = PERFBENCH_COMPILER;
  std::string build_type = PERFBENCH_BUILD_TYPE;
  std::string cxx_options = PERFBENCH_CXX_OPTIONS; ///< MSS_EFFECTIVE_CXX_OPTIONS
  std::string cxx_flags = PERFBENCH_CXX_FLAGS;
  bool fault_injection =
#if defined(MSS_FAULT_INJECTION)
      true;
#else
      false;
#endif
  unsigned nproc = std::thread::hardware_concurrency();
};

/// Why numbers from this build must not be reported; empty when fine.
std::string refusal(const Env& e) {
  std::string bt = e.build_type;
  std::transform(bt.begin(), bt.end(), bt.begin(), ::tolower);
  if (bt != "release" && bt != "relwithdebinfo" && bt != "minsizerel") {
    return "build type '" + e.build_type + "' is not optimized";
  }
  const std::string flags = e.cxx_flags + " " + e.cxx_options;
  if (flags.find("-fsanitize") != std::string::npos) return "sanitizer build";
  if (flags.find("-O0") != std::string::npos) return "-O0 build";
  if (e.fault_injection) return "MSS_FAULT_INJECTION build";
  return {};
}

std::string json_str(const std::string& s) {
  std::string o = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      o += '\\';
      o += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      o += buf;
    } else {
      o += c;
    }
  }
  return o + "\"";
}

std::string json_num(double v) {
  if (!(v == v) || v > 1e300 || v < -1e300) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string env_json(const Env& e) {
  return "{\"nproc\": " + std::to_string(e.nproc) +
         ", \"compiler\": " + json_str(e.compiler) +
         ", \"build_type\": " + json_str(e.build_type) +
         ", \"cxx_options\": " + json_str(e.cxx_options) +
         ", \"cxx_flags\": " + json_str(e.cxx_flags) +
         ", \"fault_injection\": " + (e.fault_injection ? "true" : "false") + "}";
}

// --- metrics ------------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string o = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i) o += ", ";
    o += json_str(ms[i].name) + ": {\"value\": " + json_num(ms[i].value) +
         ", \"unit\": " + json_str(ms[i].unit) + "}";
  }
  return o + "}";
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

std::vector<Metric> end_to_end(const Outcome& o) {
  // Rates use the median pass, like pass_s, so one pass slowed by another
  // process on the host does not move them.
  const double pass = median(o.pass_s);
  const double per_pass = o.pass_s.empty() ? 0.0 : o.results / double(o.pass_s.size());
  return {
      {"setup_s", "s", median(o.setup_s)},
      {"pass_s", "s", pass},
      {"op_p50_ms", "ms", median(o.op_ms)},
      {"op_tail_ms", "ms", tail_percentile(o.op_ms).value},
      {"results_per_s", "1/s", pass > 0 ? per_pass / pass : 0.0},
      {"rss_peak_mb", "MB", o.rss_peak_mb},
  };
}

/// Per-layer metrics, all derived from the traced run's spans and
/// counters. A metric whose layer the workload does not exercise is 0.
std::vector<Metric> per_layer(const Tracer& tr, const Outcome& base,
                              const Outcome& traced) {
  const auto counters = tr.counters();
  const auto counter = [&](const std::string& n) {
    const auto it = counters.find(n);
    return it == counters.end() ? 0.0 : it->second;
  };
  const auto ratio = [&](const std::string& num, const std::string& den) {
    const double d = counter(den);
    return d > 0 ? counter(num) / d : 0.0;
  };
  const auto p50 = [&](const std::string& span, double scale) {
    return scale * median(tr.durations(span));
  };
  const auto per_span_s = [&](const std::string& num, const std::string& span) {
    const double s = sum(tr.durations(span));
    return s > 0 ? counter(num) / s : 0.0;
  };
  const auto base_e2e = end_to_end(base);
  const auto traced_e2e = end_to_end(traced);
  return {
      {"server.connect_ms", "ms", p50("server.connect", 1e3)},
      {"server.submit_ms", "ms", p50("server.submit", 1e3)},
      {"server.first_row_wait_ms", "ms", p50("server.first_row_wait", 1e3)},
      {"server.stream_ms", "ms", p50("server.stream", 1e3)},
      {"server.slices_per_job", "count", ratio("server.slices", "server.small_jobs")},
      {"server.evaluated", "count", counter("server.evaluated")},
      {"server.memo_hits", "count", counter("server.memo_hits")},
      {"server.cache.hit_ratio", "ratio", ratio("server.cache_hits", "server.rows")},
      {"server.cache.rows", "count", counter("server.rows")},
      {"server.cache.replay_s", "s", p50("server.cache.replay", 1.0)},
      {"server.cache.file_mb", "MB", counter("server.cache.file_mb")},
      {"magpie.eval_ms", "ms", p50("magpie.eval", 1e3)},
      {"nvsim.eval_us", "us", p50("nvsim.eval", 1e6)},
      {"util.rng.normal_ns", "ns",
       1e9 * sum(tr.durations("util.rng.normal")) /
           std::max(1.0, counter("util.rng.normals"))},
      {"cells.write_ms.r64", "ms", p50("cells.write.r64", 1e3)},
      {"cells.write_ms.r256", "ms", p50("cells.write.r256", 1e3)},
      {"cells.write_ms.r1024", "ms", p50("cells.write.r1024", 1e3)},
      {"cells.read_ms.r64", "ms", p50("cells.read.r64", 1e3)},
      {"cells.netlist_ms.r1024", "ms", p50("cells.netlist.r1024", 1e3)},
      {"spice.factor_cols.r64", "count", counter("spice.factor_cols.r64")},
      {"spice.factor_cols.r256", "count", counter("spice.factor_cols.r256")},
      {"spice.factor_cols.r1024", "count", counter("spice.factor_cols.r1024")},
      {"spice.steps.r1024", "count", counter("spice.steps.r1024")},
      {"spice.dim.r1024", "count", counter("spice.dim.r1024")},
      {"physics.wer_is_s", "s", p50("physics.wer_is", 1.0)},
      {"physics.trajectories_per_s", "1/s",
       per_span_s("physics.trajectories", "physics.wer_is")},
      {"physics.ess_ratio", "ratio", ratio("physics.ess", "physics.trajectories")},
      {"core.wer_analytic_ms", "ms", p50("core.wer_analytic", 1e3)},
      {"vaet.mc_ms", "ms", p50("vaet.mc", 1e3)},
      {"vaet.samples_per_s", "1/s", per_span_s("vaet.samples", "vaet.mc")},
      {"trace.overhead_pass_s", "s", traced_e2e[1].value - base_e2e[1].value},
      {"trace.overhead_op_p50_ms", "ms", traced_e2e[2].value - base_e2e[2].value},
      {"trace.spans", "count", double(tr.spans().size())},
  };
}

/// Spans, per-name self time and the per-layer metrics, as one JSON file.
void write_trace(const std::string& path, const Config& cfg, const Env& env,
                 const Tracer& tr, const std::vector<Metric>& layer) {
  const auto spans = tr.spans();
  struct Agg {
    std::size_t n = 0;
    double total = 0.0;
    double self = 0.0;
  };
  std::map<std::string, Agg> by_name;
  std::map<std::string, double> by_layer;
  const std::vector<double> self_s = self_times(spans);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double self = self_s[i];
    Agg& a = by_name[s.name];
    ++a.n;
    a.total += s.t1 - s.t0;
    a.self += self;
    by_layer[s.name.substr(0, s.name.find('.'))] += self;
  }
  const double origin = spans.empty() ? 0.0 : std::min_element(
      spans.begin(), spans.end(),
      [](const Span& a, const Span& b) { return a.t0 < b.t0; })->t0;
  std::ofstream f(path);
  f << "{\"workload\": " << json_str(cfg.workload) << ", \"seed\": " << cfg.seed
    << ", \"env\": " << env_json(env)
    << ",\n \"per_layer\": " << metrics_json(layer) << ",\n \"self_s_by_layer\": {";
  bool first = true;
  for (const auto& [layer_name, self] : by_layer) {
    f << (first ? "" : ", ") << json_str(layer_name) << ": " << json_num(self);
    first = false;
  }
  f << "},\n \"spans_by_name\": {";
  first = true;
  for (const auto& [name, a] : by_name) {
    f << (first ? "" : ",\n  ") << json_str(name) << ": {\"count\": " << a.n
      << ", \"total_s\": " << json_num(a.total)
      << ", \"self_s\": " << json_num(a.self) << "}";
    first = false;
  }
  // Chrome trace-event format, so the file opens in a trace viewer.
  f << "},\n \"traceEvents\": [";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    f << (i ? ",\n  " : "\n  ") << "{\"name\": " << json_str(s.name)
      << ", \"cat\": " << json_str(s.name.substr(0, s.name.find('.')))
      << ", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.group
      << ", \"ts\": " << json_num(1e6 * (s.t0 - origin))
      << ", \"dur\": " << json_num(1e6 * (s.t1 - s.t0))
      << ", \"args\": {\"id\": " << s.id << ", \"parent\": " << s.parent
      << ", \"group\": " << s.group << "}}";
  }
  f << "]}\n";
}

using WorkloadFn = Outcome (*)(const Config&, Tracer&);

/// nullptr for an unknown name.
WorkloadFn find_workload(const std::string& name) {
  static const std::map<std::string, WorkloadFn> kWorkloads = {
      {"serve_cold", run_serve_cold},
      {"serve_warm", run_serve_warm},
      {"reliability_flow", run_reliability_flow}};
  const auto it = kWorkloads.find(name);
  return it == kWorkloads.end() ? nullptr : it->second;
}

void print_summary(const Config& cfg, const Outcome& o, const char* label) {
  const Tail tail = tail_percentile(o.op_ms);
  std::printf("perfbench %s: workload=%s seed=%llu inputs_digest=%s passes=%zu "
              "ops=%zu op_tail=p%.1f (%zu beyond) attempted=%llu failed=%llu "
              "failed_frac=%.6g\n",
              label, cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              o.inputs_digest.c_str(), o.pass_s.size(), o.op_ms.size(),
              tail.percentile, tail.beyond,
              static_cast<unsigned long long>(o.attempted),
              static_cast<unsigned long long>(o.failed),
              failed_frac(o.attempted, o.failed));
  std::string detail = "{";
  for (const auto& [k, v] : o.detail) {
    detail += (detail.size() > 1 ? ", " : "") + json_str(k) + ": " + json_str(v);
  }
  std::printf("detail %s: %s}\n", label, detail.c_str());
  std::printf("pass_s %s:", label);
  for (const double p : o.pass_s) std::printf(" %.4f", p);
  std::printf("\n");
  for (const auto& f : o.failures) std::printf("failure: %s\n", f.c_str());
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload serve_cold|serve_warm|reliability_flow"
               " --seed N --seconds S --trace 0|1 "
               "[--trace-out FILE] [--work-dir DIR]\n");
  return 2;
}

int main_impl(int argc, char** argv) {
  Config cfg;
  cfg.work_dir = ".";
  int trace = 0;
  std::string trace_out;
  std::string warm_cache;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    if (a == "--workload") {
      cfg.workload = v;
    } else if (a == "--seed") {
      cfg.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      cfg.seconds = std::strtod(v.c_str(), nullptr);
    } else if (a == "--trace") {
      trace = std::atoi(v.c_str());
    } else if (a == "--trace-out") {
      trace_out = v;
    } else if (a == "--work-dir") {
      cfg.work_dir = v;
    } else if (a == "--make-warm-cache") {
      warm_cache = v;
    } else {
      return usage();
    }
  }
  if (!warm_cache.empty()) return make_warm_cache(warm_cache, cfg.seed, cfg.seconds);
  const WorkloadFn run = find_workload(cfg.workload);
  if (run == nullptr || !(cfg.seconds > 0) || (trace != 0 && trace != 1)) {
    return usage();
  }

  const Env env;
  std::printf("env: %s\n", env_json(env).c_str());
  if (const std::string why = refusal(env); !why.empty()) {
    std::fprintf(stderr, "perfbench: refusing to report numbers: %s\n", why.c_str());
    return 3;
  }

  Tracer off(false);
  const Outcome base = run(cfg, off);
  print_summary(cfg, base, "untraced");
  bool correct = base.failed == 0;
  std::uint64_t attempted = base.attempted;
  std::uint64_t failed = base.failed;
  std::vector<Metric> metrics = end_to_end(base);
  if (trace == 1) {
    Tracer on(true);
    const Outcome traced = run(cfg, on);
    print_summary(cfg, traced, "traced");
    correct = correct && traced.failed == 0 &&
              traced.inputs_digest == base.inputs_digest;
    attempted += traced.attempted;
    failed += traced.failed;
    metrics = per_layer(on, base, traced);
    if (!trace_out.empty()) write_trace(trace_out, cfg, env, on, metrics);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              metrics_json(metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

} // namespace
} // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
