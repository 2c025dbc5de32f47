#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <unordered_map>
#include <utility>

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t Gen::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::size_t Gen::below(std::size_t n) { return std::size_t(next() % n); }

double Gen::uniform(double lo, double hi) {
  return lo + (hi - lo) * double(next() >> 11) * 0x1.0p-53;
}

void Digest::bytes(const void* p, std::size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= b[i];
    h_ *= 0x100000001b3ull;
  }
}

Digest& Digest::add(std::string_view s) {
  add(std::uint64_t(s.size()));
  bytes(s.data(), s.size());
  return *this;
}

Digest& Digest::add(std::uint64_t v) {
  bytes(&v, sizeof v);
  return *this;
}

Digest& Digest::add(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return add(bits);
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
  return buf;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tail tail_percentile(std::vector<double> v, double cap) {
  Tail t;
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  // Nearest rank of the capped percentile: the smallest k with
  // (k + 1) / n >= cap.
  std::size_t k = std::size_t(std::ceil(cap * double(n) - 1e-9));
  k = k == 0 ? 0 : k - 1;
  if (n >= 11) {
    k = std::max(std::min(k, n - 11), (n - 1) / 2); // never below the median
  } else {
    k = n - 1;
  }
  t.value = v[k];
  t.percentile = 100.0 * double(k + 1) / double(n);
  t.beyond = n - 1 - k;
  return t;
}

double failed_frac(std::uint64_t attempted, std::uint64_t failed) {
  return attempted == 0 ? 0.0 : double(failed) / double(attempted);
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].id != 0) index.emplace(spans[i].id, i);
  }
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const Span& s : spans) {
    const auto it = s.parent == 0 ? index.end() : index.find(s.parent);
    if (it == index.end()) continue;
    const Span& p = spans[it->second];
    const double a = std::max(s.t0, p.t0);
    const double b = std::min(s.t1, p.t1);
    if (b > a) kids[it->second].emplace_back(a, b);
  }
  std::vector<double> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& k = kids[i];
    std::sort(k.begin(), k.end());
    double covered = 0.0;
    double end = spans[i].t0;
    for (const auto& [a, b] : k) {
      const double from = std::max(a, end);
      if (b > from) covered += b - from;
      end = std::max(end, b);
    }
    out[i] = (spans[i].t1 - spans[i].t0) - covered;
  }
  return out;
}

std::uint64_t Tracer::open() {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(m_);
  return next_id_++;
}

void Tracer::close(std::uint64_t id, std::string name, double t0, double t1,
                   std::uint64_t group, std::uint64_t parent) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(m_);
  spans_.push_back(Span{id, parent, group, std::move(name), t0, t1});
}

std::uint64_t Tracer::record(std::string name, double t0, double t1,
                             std::uint64_t group, std::uint64_t parent) {
  const std::uint64_t id = open();
  close(id, std::move(name), t0, t1, group, parent);
  return id;
}

void Tracer::count(const std::string& name, double v) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(m_);
  counters_[name] += v;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(m_);
  return spans_;
}

std::map<std::string, double> Tracer::counters() const {
  std::lock_guard<std::mutex> lock(m_);
  return counters_;
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::lock_guard<std::mutex> lock(m_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s.t1 - s.t0);
  }
  return out;
}

Scope::Scope(Tracer& t, std::string name, std::uint64_t group,
             std::uint64_t parent)
    : t_(t),
      name_(std::move(name)),
      group_(group),
      parent_(parent),
      id_(t.open()),
      t0_(now_s()) {}

Scope::~Scope() { t_.close(id_, std::move(name_), t0_, now_s(), group_, parent_); }

void Outcome::fail(const std::string& why) {
  ++failed;
  if (failures.size() < 8) failures.push_back(why);
}

double rss_peak_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux
}

std::size_t passes_for(double seconds, double passes_per_s) {
  return std::max<std::size_t>(2, std::size_t(std::lround(seconds * passes_per_s)));
}

bool over_budget(const std::vector<double>& pass_s, double seconds) {
  double used = 0.0;
  for (const double p : pass_s) used += p;
  return pass_s.size() >= 2 && used > 2.0 * seconds;
}

} // namespace perfbench
