#include "spice/mdl.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace mss::spice::mdl {

namespace {

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream is(line);
  std::string tok;
  while (is >> tok) out.push_back(tok);
  return out;
}

[[noreturn]] void fail(std::size_t line_no, const std::string& msg) {
  throw std::invalid_argument("MDL line " + std::to_string(line_no) + ": " +
                              msg);
}

/// key=value split; returns {key, value-or-empty}.
std::pair<std::string, std::string> split_kv(const std::string& tok) {
  const auto eq = tok.find('=');
  if (eq == std::string::npos) return {lower(tok), ""};
  return {lower(tok.substr(0, eq)), tok.substr(eq + 1)};
}

} // namespace

double parse_number(const std::string& token) {
  if (token.empty()) throw std::invalid_argument("parse_number: empty");
  std::size_t pos = 0;
  double v = 0.0;
  try {
    v = std::stod(token, &pos);
  } catch (const std::exception&) {
    throw std::invalid_argument("parse_number: bad number '" + token + "'");
  }
  std::string suffix = lower(token.substr(pos));
  if (suffix.empty()) return v;
  if (suffix == "meg") return v * 1e6;
  switch (suffix[0]) {
    case 'f': return v * 1e-15;
    case 'p': return v * 1e-12;
    case 'n': return v * 1e-9;
    case 'u': return v * 1e-6;
    case 'm': return v * 1e-3;
    case 'k': return v * 1e3;
    case 'g': return v * 1e9;
    case 't': return v * 1e12;
    default:
      throw std::invalid_argument("parse_number: unknown suffix '" + suffix +
                                  "'");
  }
}

std::optional<double> cross_time(const std::vector<double>& times,
                                 const std::vector<double>& values,
                                 const CrossSpec& spec) {
  int seen = 0;
  for (std::size_t k = 1; k < times.size(); ++k) {
    const double a = values[k - 1];
    const double b = values[k];
    const bool rise = a < spec.value && b >= spec.value;
    const bool crossed_fall = a > spec.value && b <= spec.value;
    const bool hit =
        spec.edge == Edge::Rise ? rise : crossed_fall;
    if (!hit) continue;
    if (++seen == spec.nth) {
      const double f = (spec.value - a) / (b - a);
      return times[k - 1] + f * (times[k] - times[k - 1]);
    }
  }
  return std::nullopt;
}

Script Script::parse(const std::string& text) {
  Script script;
  std::istringstream is(text);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    auto toks = tokenize(line);
    if (toks.empty()) continue;
    if (lower(toks[0]) != "meas") fail(line_no, "expected 'meas'");
    if (toks.size() < 3) fail(line_no, "too few tokens");

    Measurement m;
    m.name = toks[1];
    const std::string kind = lower(toks[2]);
    const auto signal = [&](const std::string& tok) {
      if (!parse_signal(tok)) {
        fail(line_no,
             "bad signal '" + tok + "' (want v(<node>) or i(<vsource>))");
      }
      return tok;
    };

    auto parse_cross = [&](std::size_t& idx) {
      CrossSpec cs;
      if (idx >= toks.size()) fail(line_no, "missing signal");
      cs.signal = signal(toks[idx++]);
      bool have_val = false;
      while (idx < toks.size()) {
        const auto [key, val] = split_kv(toks[idx]);
        if (key == "val") {
          cs.value = parse_number(val);
          have_val = true;
        } else if (key == "rise") {
          cs.edge = Edge::Rise;
          cs.nth = static_cast<int>(parse_number(val));
        } else if (key == "fall") {
          cs.edge = Edge::Fall;
          cs.nth = static_cast<int>(parse_number(val));
        } else {
          break; // belongs to the next clause
        }
        ++idx;
      }
      if (!have_val) fail(line_no, "crossing needs val=");
      return cs;
    };

    if (kind == "delay") {
      std::size_t idx = 3;
      if (idx >= toks.size() || lower(toks[idx]) != "trig") {
        fail(line_no, "delay needs 'trig'");
      }
      ++idx;
      m.kind = Kind::Delay;
      m.trig = parse_cross(idx);
      if (idx >= toks.size() || lower(toks[idx]) != "targ") {
        fail(line_no, "delay needs 'targ'");
      }
      ++idx;
      m.targ = parse_cross(idx);
    } else if (kind == "cross") {
      std::size_t idx = 3;
      m.kind = Kind::Cross;
      m.targ = parse_cross(idx);
      m.signal = m.targ.signal;
    } else {
      static const std::map<std::string, Kind> kinds = {
          {"avg", Kind::Avg},           {"rms", Kind::Rms},
          {"min", Kind::Min},           {"max", Kind::Max},
          {"pp", Kind::PeakToPeak},     {"integral", Kind::Integral},
          {"final", Kind::Final},
      };
      const auto it = kinds.find(kind);
      if (it == kinds.end()) fail(line_no, "unknown kind '" + kind + "'");
      m.kind = it->second;
      if (toks.size() < 4) fail(line_no, "missing signal");
      m.signal = signal(toks[3]);
      for (std::size_t idx = 4; idx < toks.size(); ++idx) {
        const auto [key, val] = split_kv(toks[idx]);
        if (key == "from") {
          m.from = parse_number(val);
        } else if (key == "to") {
          m.to = parse_number(val);
        } else {
          fail(line_no, "unexpected token '" + toks[idx] + "'");
        }
      }
    }
    script.add(std::move(m));
  }
  return script;
}

std::vector<std::string> Script::signals() const {
  std::vector<std::string> out;
  const auto add = [&](const std::string& sig) {
    if (std::find(out.begin(), out.end(), sig) == out.end()) {
      out.push_back(sig);
    }
  };
  for (const auto& m : measurements_) {
    if (m.kind == Kind::Delay) add(m.trig.signal);
    add(m.kind == Kind::Delay || m.kind == Kind::Cross ? m.targ.signal
                                                       : m.signal);
  }
  return out;
}

namespace {

/// Window [from, to] clipped to the run; returns index range [i0, i1].
std::pair<std::size_t, std::size_t> window(const std::vector<double>& times,
                                           double from, double to) {
  const double t_end = times.back();
  const double t1 = to < 0.0 ? t_end : std::min(to, t_end);
  std::size_t i0 = 0;
  while (i0 + 1 < times.size() && times[i0] < from) ++i0;
  std::size_t i1 = times.size() - 1;
  while (i1 > 0 && times[i1] > t1) --i1;
  if (i1 < i0) i1 = i0;
  return {i0, i1};
}

double integrate(const std::vector<double>& t, const std::vector<double>& y,
                 std::size_t i0, std::size_t i1) {
  double acc = 0.0;
  for (std::size_t k = i0 + 1; k <= i1; ++k) {
    acc += 0.5 * (y[k] + y[k - 1]) * (t[k] - t[k - 1]);
  }
  return acc;
}

} // namespace

std::vector<MeasureResult> Script::evaluate(const TransientResult& tr) const {
  std::vector<MeasureResult> out;
  out.reserve(measurements_.size());
  const auto& times = tr.times();
  for (const auto& m : measurements_) {
    MeasureResult r;
    r.name = m.name;
    try {
      if (m.kind == Kind::Delay) {
        const auto& w_trig = tr.waveform(m.trig.signal);
        const auto& w_targ = tr.waveform(m.targ.signal);
        const auto t0 = cross_time(times, w_trig, m.trig);
        const auto t1 = cross_time(times, w_targ, m.targ);
        if (t0 && t1) {
          r.value = *t1 - *t0;
          r.valid = true;
        }
      } else if (m.kind == Kind::Cross) {
        const auto& w = tr.waveform(m.targ.signal);
        const auto t = cross_time(times, w, m.targ);
        if (t) {
          r.value = *t;
          r.valid = true;
        }
      } else {
        const auto& w = tr.waveform(m.signal);
        const auto [i0, i1] = window(times, m.from, m.to);
        const double span = times[i1] - times[i0];
        switch (m.kind) {
          case Kind::Avg:
            if (span > 0.0) {
              r.value = integrate(times, w, i0, i1) / span;
              r.valid = true;
            }
            break;
          case Kind::Rms:
            if (span > 0.0) {
              std::vector<double> sq(w.size());
              for (std::size_t k = 0; k < w.size(); ++k) sq[k] = w[k] * w[k];
              r.value = std::sqrt(integrate(times, sq, i0, i1) / span);
              r.valid = true;
            }
            break;
          case Kind::Min:
            r.value = *std::min_element(w.begin() + long(i0), w.begin() + long(i1) + 1);
            r.valid = true;
            break;
          case Kind::Max:
            r.value = *std::max_element(w.begin() + long(i0), w.begin() + long(i1) + 1);
            r.valid = true;
            break;
          case Kind::PeakToPeak: {
            const auto [mn, mx] = std::minmax_element(w.begin() + long(i0),
                                                      w.begin() + long(i1) + 1);
            r.value = *mx - *mn;
            r.valid = true;
            break;
          }
          case Kind::Integral:
            r.value = integrate(times, w, i0, i1);
            r.valid = true;
            break;
          case Kind::Final:
            r.value = w.back();
            r.valid = true;
            break;
          case Kind::Delay:
          case Kind::Cross:
            break; // handled above
        }
      }
    } catch (const std::out_of_range&) {
      r.valid = false; // unprobed signal -> invalid measurement, not a crash
    }
    out.push_back(std::move(r));
  }
  return out;
}

std::string write_measure_file(const std::vector<MeasureResult>& results) {
  std::ostringstream os;
  os << "# MSS MDL measurement file\n";
  for (const auto& r : results) {
    if (r.valid) {
      os << r.name << " = " << std::scientific << r.value << "\n";
    } else {
      os << r.name << " = FAILED\n";
    }
  }
  return os.str();
}

std::map<std::string, double> parse_measure_file(const std::string& text) {
  std::map<std::string, double> out;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    const auto hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    const auto eq = line.find('=');
    if (eq == std::string::npos) continue;
    std::istringstream key_is(line.substr(0, eq));
    std::string key;
    key_is >> key;
    std::istringstream val_is(line.substr(eq + 1));
    std::string val;
    val_is >> val;
    if (key.empty() || val.empty() || val == "FAILED") continue;
    try {
      out[key] = parse_number(val);
    } catch (const std::invalid_argument&) {
      // Skip malformed values; the parser is tolerant by design.
    }
  }
  return out;
}

} // namespace mss::spice::mdl
