#include "sweep/param_space.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace mss::sweep {

std::string to_string(const Value& v) {
  if (const auto* i = std::get_if<std::int64_t>(&v)) {
    return std::to_string(*i);
  }
  if (const auto* d = std::get_if<double>(&v)) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", *d);
    return buf;
  }
  return std::get<std::string>(v);
}

double as_number(const Value& v) {
  if (const auto* i = std::get_if<std::int64_t>(&v)) return double(*i);
  if (const auto* d = std::get_if<double>(&v)) return *d;
  throw std::invalid_argument("sweep: value '" + std::get<std::string>(v) +
                              "' is not numeric");
}

const Value& Point::at(const std::string& name) const {
  for (const auto& [n, v] : coords_) {
    if (n == name) return v;
  }
  throw std::out_of_range("sweep::Point: no coordinate named '" + name + "'");
}

double Point::number(const std::string& name) const {
  return as_number(at(name));
}

std::int64_t Point::integer(const std::string& name) const {
  const Value& v = at(name);
  if (const auto* i = std::get_if<std::int64_t>(&v)) return *i;
  throw std::invalid_argument("sweep::Point: coordinate '" + name +
                              "' is not an integer");
}

const std::string& Point::str(const std::string& name) const {
  const Value& v = at(name);
  if (const auto* s = std::get_if<std::string>(&v)) return *s;
  throw std::invalid_argument("sweep::Point: coordinate '" + name +
                              "' is not a string");
}

namespace {

/// Backslash-escapes the key separators so arbitrary names/strings cannot
/// forge a coordinate boundary ("a" = "1;b=s2" must not collide with
/// "a" = "1" x "b" = 2).
void append_escaped(std::string& out, const std::string& s) {
  for (const char c : s) {
    if (c == '\\' || c == '=' || c == ';') out += '\\';
    out += c;
  }
}

} // namespace

std::string Point::key() const {
  // Stable injective key format (the persistent result cache depends on it
  // — see src/sweep/README.md "Point::key() stability contract"):
  //   key   := coord*
  //   coord := esc(name) '=' tag text ';'
  //   tag   := 'i' (int64, decimal) | 'd' (double, %.17g) | 's' (string)
  // with '\', '=' and ';' backslash-escaped in names and string values.
  // The type tag keeps int64(1) ("i1") distinct from double(1.0) ("d1");
  // %.17g round-trips every finite double, so distinct doubles never
  // collide. Changing any of this invalidates every on-disk cache.
  std::string out;
  for (const auto& [n, v] : coords_) {
    append_escaped(out, n);
    out += '=';
    if (std::holds_alternative<std::int64_t>(v)) {
      out += 'i';
      out += sweep::to_string(v);
    } else if (std::holds_alternative<double>(v)) {
      out += 'd';
      out += sweep::to_string(v);
    } else {
      out += 's';
      append_escaped(out, std::get<std::string>(v));
    }
    out += ';';
  }
  return out;
}

Axis Axis::values(std::string name, std::vector<Value> vals) {
  if (name.empty()) throw std::invalid_argument("Axis: empty name");
  return Axis(std::move(name), std::move(vals));
}

Axis Axis::list(std::string name, std::vector<double> vals) {
  std::vector<Value> out(vals.begin(), vals.end());
  return values(std::move(name), std::move(out));
}

Axis Axis::list(std::string name, std::vector<std::int64_t> vals) {
  std::vector<Value> out(vals.begin(), vals.end());
  return values(std::move(name), std::move(out));
}

Axis Axis::list(std::string name, std::vector<std::string> vals) {
  std::vector<Value> out;
  out.reserve(vals.size());
  for (auto& s : vals) out.emplace_back(std::move(s));
  return values(std::move(name), std::move(out));
}

Axis Axis::linear(std::string name, double lo, double hi, std::size_t n) {
  if (n == 0) throw std::invalid_argument("Axis::linear: n must be positive");
  std::vector<Value> vals;
  vals.reserve(n);
  if (n == 1) {
    vals.emplace_back(lo);
  } else {
    const double step = (hi - lo) / double(n - 1);
    for (std::size_t k = 0; k < n; ++k) {
      vals.emplace_back(k + 1 == n ? hi : lo + double(k) * step);
    }
  }
  return values(std::move(name), std::move(vals));
}

Axis Axis::log(std::string name, double lo, double hi, std::size_t n) {
  if (n == 0) throw std::invalid_argument("Axis::log: n must be positive");
  if (lo == 0.0 || hi == 0.0 || (lo < 0.0) != (hi < 0.0)) {
    throw std::invalid_argument(
        "Axis::log: endpoints must be nonzero and same-signed");
  }
  std::vector<Value> vals;
  vals.reserve(n);
  if (n == 1) {
    vals.emplace_back(lo);
  } else {
    const double ratio = std::pow(hi / lo, 1.0 / double(n - 1));
    double v = lo;
    for (std::size_t k = 0; k < n; ++k) {
      vals.emplace_back(k == 0 ? lo : (k + 1 == n ? hi : v));
      v *= ratio;
    }
  }
  return values(std::move(name), std::move(vals));
}

ParamSpace ParamSpace::of(std::vector<Axis> axes) {
  ParamSpace s;
  for (auto& a : axes) s.cross(std::move(a));
  return s;
}

ParamSpace& ParamSpace::cross(Axis axis) {
  add_dim({std::move(axis)});
  return *this;
}

ParamSpace& ParamSpace::cross(const ParamSpace& other) {
  if (&other == this) {
    // Self-cross needs a copy so add_dim's name check sees a stable list.
    const ParamSpace copy = other;
    return cross(copy);
  }
  for (const auto& group : other.dims_) add_dim(group);
  return *this;
}

ParamSpace& ParamSpace::zip(std::vector<Axis> axes) {
  if (axes.empty()) throw std::invalid_argument("ParamSpace::zip: no axes");
  for (const auto& a : axes) {
    if (a.size() != axes.front().size()) {
      throw std::invalid_argument("ParamSpace::zip: axis '" + a.name() +
                                  "' length differs from '" +
                                  axes.front().name() + "'");
    }
  }
  add_dim(std::move(axes));
  return *this;
}

void ParamSpace::add_dim(std::vector<Axis> axes) {
  for (const auto& a : axes) {
    for (const auto& group : dims_) {
      for (const auto& existing : group) {
        if (existing.name() == a.name()) {
          throw std::invalid_argument("ParamSpace: duplicate axis name '" +
                                      a.name() + "'");
        }
      }
    }
    for (const auto& sibling : axes) {
      if (&sibling != &a && sibling.name() == a.name()) {
        throw std::invalid_argument("ParamSpace: duplicate axis name '" +
                                    a.name() + "'");
      }
    }
  }
  dims_.push_back(std::move(axes));
}

std::size_t ParamSpace::size() const {
  std::size_t n = 1;
  for (const auto& group : dims_) n *= group.front().size();
  return n;
}

std::vector<std::string> ParamSpace::names() const {
  std::vector<std::string> out;
  for (const auto& group : dims_) {
    for (const auto& a : group) out.push_back(a.name());
  }
  return out;
}

Point ParamSpace::at(std::size_t i) const {
  if (i >= size()) {
    throw std::out_of_range("ParamSpace::at: index " + std::to_string(i) +
                            " >= size " + std::to_string(size()));
  }
  // Row-major mixed-radix decode, last dimension fastest.
  std::vector<std::size_t> digit(dims_.size(), 0);
  std::size_t rest = i;
  for (std::size_t d = dims_.size(); d-- > 0;) {
    const std::size_t len = dims_[d].front().size();
    digit[d] = rest % len;
    rest /= len;
  }
  std::vector<std::pair<std::string, Value>> coords;
  for (std::size_t d = 0; d < dims_.size(); ++d) {
    for (const auto& a : dims_[d]) {
      coords.emplace_back(a.name(), a.at(digit[d]));
    }
  }
  return Point(std::move(coords));
}

} // namespace mss::sweep
