// serve_cold and serve_warm: a real in-process mss-server on a unix
// socket, driven by four closed-loop client threads over the public
// Client API.
//
// Both workloads run a fixed, seed-generated plan of submissions in
// passes. A pass hands every client thread its list for that pass and ends
// when all four lists are done, so the load mix inside a pass is the same
// on every pass and every build. Every served table is compared with an
// in-process run_cached(cache = nullptr) reference for the same
// (experiment, space, seed), and every job's status counters with the
// values its place in the plan implies.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>

#include "common.hpp"
#include "server/client.hpp"
#include "server/executor.hpp"
#include "server/registry.hpp"
#include "server/server.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using mss::server::Client;
using mss::server::JobState;
using mss::server::JobStatus;
using mss::server::Registry;
using mss::server::Server;
using mss::server::ServerOptions;
using mss::sweep::Axis;
using mss::sweep::ParamSpace;
using mss::sweep::Value;

constexpr std::size_t kClients = 4;

// serve_cold: per pass, the batch tenant runs kColdSweeps full
// magpie.scenario sweeps while three interactive tenants run kColdJobs
// small jobs each. The round-robin scheduler runs one batch stripe between
// consecutive small jobs of a tenant, so kColdJobs is sized to keep the
// interactive tenants submitting for as long as the sweeps run.
constexpr std::size_t kColdSweeps = 2;
constexpr std::size_t kColdJobs = 8;
constexpr double kColdPassesPerS = 0.7;
constexpr std::size_t kColdSetups = 7;

// serve_warm: about 10^5 cached rows in 10-point identities; every client
// runs kWarmJobs jobs per pass on its long-lived connection. Small jobs and
// this job count keep the daemon's row retention (it keeps every finished
// job's rows) near 260 MB over a 15 s run. A connection per job, as
// `mss-client run` makes, spawns a daemon handler thread per job; its tail
// latency on a shared 4-core host swung by a third from run to run, so the
// connect cost is measured on the four long-lived connections instead.
constexpr std::size_t kWarmIdentities = 10000;
constexpr std::size_t kWarmJobs = 1000;
constexpr double kWarmPassesPerS = 1.0;
constexpr std::size_t kWarmSetups = 5;

/// One job identity: what the cache keys on.
struct Identity {
  std::string exp;
  ParamSpace space;
  bool default_space = false; ///< submitted without a space
  std::uint64_t seed = 0;
  std::size_t rows = 0;     ///< points in the space
  std::size_t distinct = 0; ///< distinct Point::key()s
};

struct Submission {
  std::size_t identity = 0;
  bool repeat = false; ///< identity was served earlier in the run
};

struct Plan {
  std::vector<Identity> ids;
  std::vector<std::vector<std::vector<Submission>>> lists; ///< [pass][client]
  std::string digest;
};

std::size_t distinct_keys(const ParamSpace& space) {
  std::set<std::string> keys;
  for (std::size_t i = 0; i < space.size(); ++i) keys.insert(space.at(i).key());
  return keys.size();
}

Identity make_identity(std::string exp, ParamSpace space, std::uint64_t seed,
                       bool default_space = false) {
  Identity id;
  id.exp = std::move(exp);
  id.space = std::move(space);
  id.default_space = default_space;
  id.seed = seed;
  id.rows = id.space.size();
  id.distinct = distinct_keys(id.space);
  return id;
}

/// A demo.mc_tail space: `samples` x `thresholds` thresholds.
ParamSpace mc_tail_space(std::vector<std::int64_t> samples, double lo,
                         double hi, std::size_t thresholds) {
  ParamSpace s;
  s.cross(Axis::list("samples", std::move(samples)))
      .cross(Axis::linear("threshold", lo, hi, thresholds));
  return s;
}

/// An nvsim.explore space: one capacity, a zipped list of at most
/// `max_points` feasible (mats, rows) organisations (the same feasibility
/// rule the NVSim exploration applies: divisible splits, 1:8 aspect bound).
ParamSpace nvsim_space(Gen& g, std::size_t max_points) {
  for (;;) {
    const std::int64_t cap = std::int64_t(1) << (16 + g.below(7));
    const std::int64_t word = 512;
    std::vector<std::int64_t> mats;
    std::vector<std::int64_t> rows;
    for (const std::int64_t m : {1, 2, 4}) {
      const std::int64_t percap = cap / m;
      const std::int64_t pword = word / m;
      for (std::int64_t r = 64; r <= 8192; r *= 2) {
        if (percap % r != 0) continue;
        const std::int64_t cols = percap / r;
        if (cols < pword || cols > 16384) continue;
        if (r > 8 * cols || cols > 8 * r) continue;
        if (g.below(4) == 0) continue; // seeded subset of the feasible set
        mats.push_back(m);
        rows.push_back(r);
      }
    }
    if (mats.empty()) continue;
    mats.resize(std::min(mats.size(), max_points));
    rows.resize(mats.size());
    ParamSpace s;
    s.cross(Axis::list("capacity_bits", std::vector<std::int64_t>{cap}))
        .zip({Axis::list("mats", mats), Axis::list("rows", rows)});
    return s;
  }
}

/// A fresh small interactive job of serve_cold: at most 8 points, so one
/// scheduler stripe, and its latency is one wait behind the batch stripe
/// that runs before it rather than a seed-dependent number of them.
Identity cold_interactive(Gen& g) {
  if (g.below(5) < 3) {
    std::vector<std::int64_t> samples;
    const std::size_t k = 1 + g.below(2);
    for (std::size_t i = 0; i < k; ++i) {
      samples.push_back(std::int64_t(4000) << g.below(3));
    }
    const double lo = g.uniform(0.5, 1.5);
    return make_identity("demo.mc_tail",
                         mc_tail_space(samples, lo, lo + g.uniform(1.0, 2.0),
                                       2 + g.below(3)),
                         g.next());
  }
  return make_identity("nvsim.explore", nvsim_space(g, 8), g.next());
}

/// One warm identity: a 10-point mc_tail space or a small nvsim one, all
/// points distinct, so every served row is a cache hit.
Identity warm_identity(Gen& g, std::size_t i) {
  if (i % 10 == 9) {
    return make_identity("nvsim.explore", nvsim_space(g, 10), g.next());
  }
  std::set<std::int64_t> picked;
  while (picked.size() < 2) picked.insert(64 + 16 * std::int64_t(g.below(29)));
  const double lo = g.uniform(0.5, 1.5);
  return make_identity(
      "demo.mc_tail",
      mc_tail_space({picked.begin(), picked.end()}, lo, lo + 1.5, 5), g.next());
}

void digest_identity(Digest& d, const Identity& id) {
  d.add(id.exp).add(id.seed).add(std::uint64_t(id.default_space));
  for (std::size_t i = 0; i < id.space.size(); ++i) d.add(id.space.at(i).key());
}

std::string plan_digest(const Plan& plan) {
  Digest d;
  for (const Identity& id : plan.ids) digest_identity(d, id);
  for (const auto& pass : plan.lists) {
    for (const auto& list : pass) {
      d.add(std::uint64_t(list.size()));
      for (const Submission& s : list) {
        d.add(std::uint64_t(s.identity)).add(std::uint64_t(s.repeat));
      }
    }
  }
  return d.hex();
}

Plan cold_plan(std::uint64_t seed, std::size_t passes,
               const ParamSpace& magpie_space) {
  Gen g(seed ^ 0xC01Dull);
  Plan plan;
  std::vector<std::vector<std::size_t>> history(kClients);
  plan.lists.resize(passes);
  for (std::size_t p = 0; p < passes; ++p) {
    plan.lists[p].resize(kClients);
    for (std::size_t c = 0; c + 1 < kClients; ++c) {
      for (std::size_t j = 0; j < kColdJobs; ++j) {
        auto& hist = history[c];
        // About 1 in 5 jobs resubmits an identity this client already
        // finished (the closed loop guarantees it is complete, so its
        // counters are exact).
        if (!hist.empty() && g.below(5) == 0) {
          plan.lists[p][c].push_back({hist[g.below(hist.size())], true});
          continue;
        }
        plan.ids.push_back(cold_interactive(g));
        hist.push_back(plan.ids.size() - 1);
        plan.lists[p][c].push_back({plan.ids.size() - 1, false});
      }
    }
    for (std::size_t b = 0; b < kColdSweeps; ++b) {
      plan.ids.push_back(
          make_identity("magpie.scenario", magpie_space, g.next(), true));
      plan.lists[p][kClients - 1].push_back({plan.ids.size() - 1, false});
    }
  }
  plan.digest = plan_digest(plan);
  return plan;
}

Plan warm_plan(std::uint64_t seed, std::size_t passes) {
  Gen g(seed ^ 0x3A53ull);
  Plan plan;
  for (std::size_t i = 0; i < kWarmIdentities; ++i) {
    plan.ids.push_back(warm_identity(g, i));
  }
  plan.lists.resize(passes);
  for (std::size_t p = 0; p < passes; ++p) {
    plan.lists[p].resize(kClients);
    for (std::size_t c = 0; c < kClients; ++c) {
      for (std::size_t j = 0; j < kWarmJobs; ++j) {
        plan.lists[p][c].push_back({g.below(plan.ids.size()), true});
      }
    }
  }
  plan.digest = plan_digest(plan);
  return plan;
}

Digest& add_value(Digest& d, const Value& v) {
  d.add(std::uint64_t(v.index()));
  if (const auto* i = std::get_if<std::int64_t>(&v)) return d.add(std::uint64_t(*i));
  if (const auto* x = std::get_if<double>(&v)) return d.add(*x);
  return d.add(std::get<std::string>(v));
}

/// Bitwise digest of a served table.
std::uint64_t table_digest(const mss::sweep::ResultTable& t) {
  Digest d;
  d.add(std::uint64_t(t.rows()));
  for (std::size_t r = 0; r < t.rows(); ++r) {
    for (std::size_t c = 0; c < t.cols(); ++c) add_value(d, t.at(r, c));
  }
  return d.value();
}

/// The reference: the identity run in-process with no cache.
std::uint64_t reference_digest(const Registry& reg, const Identity& id) {
  const auto* exp = reg.find(id.exp);
  if (exp == nullptr) throw std::runtime_error("unknown experiment " + id.exp);
  mss::server::ExecOptions opt;
  opt.seed = id.seed;
  Digest d;
  d.add(std::uint64_t(id.rows));
  mss::server::run_cached(
      *exp, id.space, opt, nullptr, nullptr,
      [&](const mss::sweep::RunStats&,
          const std::vector<std::vector<Value>>& rows, std::size_t done_end) {
        if (done_end != rows.size()) return;
        for (const auto& row : rows) {
          for (const Value& v : row) add_value(d, v);
        }
      });
  return d.value();
}

struct JobRecord {
  std::size_t identity = 0;
  bool repeat = false;
  bool interactive = false;
  bool ok = false; ///< transport and state checks passed
  std::string error;
  double latency_s = 0.0;
  double first_row_s = 0.0;
  std::uint64_t digest = 0;
  std::size_t rows = 0;
  JobStatus status;
};

/// The whole client side of a serve run: one long-lived connection per
/// client.
class Load {
 public:
  Load(const Plan& plan, std::string socket, Tracer& tr)
      : plan_(plan), socket_(std::move(socket)), tr_(tr) {}

  /// Runs the passes (see over_budget); returns the pass times.
  std::vector<double> run(std::size_t interactive_clients, double seconds) {
    std::vector<std::optional<Client>> conns(kClients);
    for (auto& c : conns) {
      const double t0 = now_s();
      c.emplace(socket_);
      tr_.record("server.connect", t0, now_s(), 0);
    }
    std::vector<double> pass_s;
    for (std::size_t p = 0;
         p < plan_.lists.size() && !over_budget(pass_s, seconds); ++p) {
      const double t0 = now_s();
      std::vector<std::thread> threads;
      std::vector<std::vector<JobRecord>> recs(kClients);
      for (std::size_t c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
          for (const Submission& s : plan_.lists[p][c]) {
            recs[c].push_back(job(*conns[c], s, c < interactive_clients));
          }
        });
      }
      for (auto& t : threads) t.join();
      pass_s.push_back(now_s() - t0);
      for (auto& r : recs) records.insert(records.end(), r.begin(), r.end());
    }
    return pass_s;
  }

  std::vector<JobRecord> records;

 private:
  JobRecord job(Client& client, const Submission& s, bool interactive) {
    const Identity& id = plan_.ids[s.identity];
    JobRecord rec;
    rec.identity = s.identity;
    rec.repeat = s.repeat;
    rec.interactive = interactive;
    const std::uint64_t group = next_group_.fetch_add(1) + 1;
    const std::uint64_t job_span = tr_.open();
    const double t0 = now_s();
    try {
      mss::server::SubmitOptions so;
      so.seed = id.seed;
      if (!id.default_space) so.space = id.space;
      const std::uint64_t jid = client.submit(id.exp, so);
      const double ts1 = now_s();
      tr_.record("server.submit", t0, ts1, group, job_span);
      double t_first = 0.0;
      auto fr = client.fetch(jid, [&](const std::vector<Value>&) {
        if (t_first == 0.0) t_first = now_s();
      });
      const double t1 = now_s();
      if (t_first == 0.0) t_first = t1;
      tr_.record("server.first_row_wait", ts1, t_first, group, job_span);
      tr_.record("server.stream", t_first, t1, group, job_span);
      rec.latency_s = t1 - t0;
      rec.first_row_s = t_first - t0;
      rec.rows = fr.table.rows();
      rec.digest = table_digest(fr.table);
      rec.status = fr.status;
      rec.ok = fr.status.state == JobState::Done;
      if (!rec.ok) rec.error = "job ended " + std::string(to_string(fr.status.state));
    } catch (const std::exception& e) {
      rec.error = e.what();
    }
    tr_.close(job_span, interactive ? "server.job" : "server.batch_job", t0,
              now_s(), group);
    return rec;
  }

  const Plan& plan_;
  std::string socket_;
  Tracer& tr_;
  std::atomic<std::uint64_t> next_group_{0};
};

/// Output checks and metrics shared by both serve workloads.
void score(const Plan& plan, const std::vector<JobRecord>& records,
           const std::vector<double>& pass_s, Outcome& out, Tracer& tr) {
  const Registry reg = Registry::builtin();
  std::vector<std::optional<std::uint64_t>> ref(plan.ids.size());
  std::vector<double> first_row;
  std::vector<double> batch;
  double rows = 0.0;
  for (const JobRecord& r : records) {
    ++out.attempted;
    const Identity& id = plan.ids[r.identity];
    if (!r.ok) {
      out.fail(id.exp + ": " + r.error);
      continue;
    }
    if (!ref[r.identity]) ref[r.identity] = reference_digest(reg, id);
    const JobStatus& st = r.status;
    const std::size_t dups = id.rows - id.distinct;
    const bool counts_ok =
        st.memo_hits == dups &&
        st.evaluated == (r.repeat ? 0 : id.distinct) &&
        st.cache_hits == (r.repeat ? id.distinct : 0);
    if (r.rows != id.rows || r.digest != *ref[r.identity]) {
      out.fail(id.exp + ": served rows differ from the uncached reference");
      continue;
    }
    if (!counts_ok) {
      out.fail(id.exp + ": status counters evaluated/cache_hits/memo_hits = " +
               std::to_string(st.evaluated) + "/" +
               std::to_string(st.cache_hits) + "/" +
               std::to_string(st.memo_hits) + " differ from the plan");
      continue;
    }
    rows += double(r.rows);
    tr.count("server.rows", double(r.rows));
    tr.count("server.evaluated", double(st.evaluated));
    tr.count("server.memo_hits", double(st.memo_hits));
    tr.count("server.cache_hits", double(st.cache_hits));
    if (r.interactive) {
      out.op_ms.push_back(1e3 * r.latency_s);
      first_row.push_back(1e3 * r.first_row_s);
      tr.count("server.slices", double(st.slices));
      tr.count("server.small_jobs", 1.0);
    } else {
      batch.push_back(r.latency_s);
    }
  }
  out.pass_s = pass_s;
  out.results = rows;
  double measured = 0.0;
  for (const double p : pass_s) measured += p;
  const Tail tail = tail_percentile(out.op_ms);
  out.detail["job_p50_ms"] = std::to_string(median(out.op_ms));
  out.detail["job_tail_ms"] = std::to_string(tail.value);
  out.detail["job_tail_percentile"] = std::to_string(tail.percentile);
  out.detail["job_tail_beyond"] = std::to_string(tail.beyond);
  out.detail["first_row_p50_ms"] = std::to_string(median(first_row));
  out.detail["rows_per_s"] = std::to_string(measured > 0 ? rows / measured : 0.0);
  if (!batch.empty()) out.detail["batch_job_s"] = std::to_string(median(batch));
}

/// A scratch directory for one run's socket and cache file.
class WorkDir {
 public:
  explicit WorkDir(const std::string& base)
      : path_(fs::path(base) / ("serve-" + std::to_string(::getpid()))) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~WorkDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  WorkDir(const WorkDir&) = delete;
  WorkDir& operator=(const WorkDir&) = delete;
  [[nodiscard]] std::string file(const char* name) const {
    return (path_ / name).string();
  }

 private:
  fs::path path_;
};

/// A daemon with the builtin registry; the constructor replays `cache`.
std::unique_ptr<Server> make_server(const std::string& socket,
                                    const std::string& cache) {
  ServerOptions o;
  o.socket_path = socket;
  o.cache_path = cache;
  return std::make_unique<Server>(o, Registry::builtin());
}

/// A one-point space holding the first point of `space`.
ParamSpace first_point(const ParamSpace& space) {
  const auto p = space.at(0);
  ParamSpace one;
  for (std::size_t i = 0; i < p.size(); ++i) {
    one.cross(Axis::values(p.name(i), {p.value(i)}));
  }
  return one;
}

/// Single-thread RowExperiment::evaluate on sampled points (traced run
/// only): the per-point cost of each experiment the daemon serves.
void probe_evaluate(const Plan& plan, Tracer& tr) {
  const Registry reg = Registry::builtin();
  mss::util::Rng rng(0x9E3779B9ull);
  const auto* magpie = reg.find("magpie.scenario");
  const ParamSpace mspace = magpie->default_space();
  (void)magpie->evaluate(mspace.at(0), rng); // one-time platform derivation
  for (std::size_t i = 0; i < mspace.size(); i += 6) {
    Scope s(tr, "magpie.eval", 0);
    (void)magpie->evaluate(mspace.at(i), rng);
  }
  const auto* nvsim = reg.find("nvsim.explore");
  const auto* mc = reg.find("demo.mc_tail");
  for (const Identity& id : plan.ids) {
    const auto* exp = id.exp == "nvsim.explore" ? nvsim : mc;
    if (id.exp == "magpie.scenario") continue;
    const auto p = id.space.at(0);
    const double t0 = now_s();
    (void)exp->evaluate(p, rng);
    const double t1 = now_s();
    if (exp == nvsim) {
      tr.record("nvsim.eval", t0, t1, 0);
    } else {
      tr.record("util.rng.normal", t0, t1, 0);
      tr.count("util.rng.normals", double(p.integer("samples")));
    }
  }
}

} // namespace

Outcome run_serve_cold(const Config& cfg, Tracer& tr) {
  Outcome out;
  const ParamSpace magpie_space =
      Registry::builtin().find("magpie.scenario")->default_space();
  const Plan plan =
      cold_plan(cfg.seed, passes_for(cfg.seconds, kColdPassesPerS), magpie_space);
  out.inputs_digest = plan.digest;

  WorkDir dir(cfg.work_dir);
  const std::string sock = dir.file("s.sock");
  const std::string cache = dir.file("cold.mssc");
  std::unique_ptr<Server> server;
  const ParamSpace warm_space = first_point(magpie_space);
  for (std::size_t i = 0; i < kColdSetups; ++i) {
    server.reset();
    fs::remove(cache);
    const double t0 = now_s();
    server = make_server(sock, cache);
    server->start();
    Client c(sock);
    mss::server::SubmitOptions so;
    so.seed = cfg.seed ^ 0x5E7ull;
    so.space = warm_space;
    const auto fr = c.fetch(c.submit("magpie.scenario", so));
    out.setup_s.push_back(now_s() - t0);
    if (fr.status.state != JobState::Done) {
      throw std::runtime_error("serve_cold: warm-up job did not finish");
    }
  }

  Load load(plan, sock, tr);
  const auto pass_s = load.run(kClients - 1, cfg.seconds);
  out.rss_peak_mb = rss_peak_mb();
  server.reset();
  score(plan, load.records, pass_s, out, tr);
  if (tr.enabled()) probe_evaluate(plan, tr);
  return out;
}

Outcome run_serve_warm(const Config& cfg, Tracer& tr) {
  Outcome out;
  const Plan plan = warm_plan(cfg.seed, passes_for(cfg.seconds, kWarmPassesPerS));
  out.inputs_digest = plan.digest;

  WorkDir dir(cfg.work_dir);
  const std::string sock = dir.file("s.sock");
  const std::string cache = dir.file("warm.mssc");
  // Input generation runs in a child process (this binary, re-executed),
  // so neither its time nor its memory lands in this process's figures.
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("serve_warm: fork failed");
  if (pid == 0) {
    const std::string seed = std::to_string(cfg.seed);
    const std::string seconds = std::to_string(cfg.seconds);
    ::execl("/proc/self/exe", "perfbench", "--make-warm-cache", cache.c_str(),
            "--seed", seed.c_str(), "--seconds", seconds.c_str(),
            static_cast<char*>(nullptr));
    ::_exit(127);
  }
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    throw std::runtime_error("serve_warm: cache generation failed");
  }
  tr.count("server.cache.file_mb", double(fs::file_size(cache)) / 1e6);

  std::unique_ptr<Server> server;
  for (std::size_t i = 0; i < kWarmSetups; ++i) {
    server.reset();
    const double t0 = now_s();
    server = make_server(sock, cache);
    tr.record("server.cache.replay", t0, now_s(), 0);
    server->start();
    out.setup_s.push_back(now_s() - t0);
  }

  Load load(plan, sock, tr);
  const auto pass_s = load.run(kClients, cfg.seconds);
  out.rss_peak_mb = rss_peak_mb();
  server.reset();
  score(plan, load.records, pass_s, out, tr);
  return out;
}

std::string serve_cold_inputs(std::uint64_t seed, double seconds) {
  const ParamSpace magpie_space =
      Registry::builtin().find("magpie.scenario")->default_space();
  return cold_plan(seed, passes_for(seconds, kColdPassesPerS), magpie_space)
      .digest;
}

std::string serve_warm_inputs(std::uint64_t seed, double seconds) {
  return warm_plan(seed, passes_for(seconds, kWarmPassesPerS)).digest;
}

int make_warm_cache(const std::string& path, std::uint64_t seed,
                    double seconds) {
  const Plan plan = warm_plan(seed, passes_for(seconds, kWarmPassesPerS));
  const Registry reg = Registry::builtin();
  mss::server::ResultCache cache(path);
  mss::server::ExecOptions opt;
  opt.threads = 1;
  for (const Identity& id : plan.ids) {
    opt.seed = id.seed;
    mss::server::run_cached(*reg.find(id.exp), id.space, opt, &cache, nullptr,
                            {});
  }
  return cache.entries() > 0 ? 0 : 1;
}

} // namespace perfbench
