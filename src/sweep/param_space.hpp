// Declarative parameter spaces for design-space exploration.
//
// Every layer of the flow sweeps knobs — NVSim organisations, MAGPIE
// scenario x workload grids, retention targets, thermal corners, the
// fig-reproduction axes. A ParamSpace describes such a sweep as data:
// typed axes (value lists, linear/log ranges) composed by *cross*
// (Cartesian product) and *zip* (axes advancing in lock-step). The space
// is never materialised: a point is decoded from its flat index on
// demand (row-major, last dimension fastest — the order the old nested
// for-loops produced), which is what lets sweep::Runner chunk the index
// range over the thread pool deterministically.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <variant>
#include <vector>

namespace mss::sweep {

/// A parameter value: integer, real, or categorical.
using Value = std::variant<std::int64_t, double, std::string>;

/// Canonical text form ("%.17g" for reals, so distinct doubles never
/// collide — the memoisation key builds on this).
[[nodiscard]] std::string to_string(const Value& v);

/// Numeric view: int64 and double convert, a string throws
/// std::invalid_argument.
[[nodiscard]] double as_number(const Value& v);

/// One coordinate assignment of a sweep: named values, identified by
/// key() wherever results are reused or random draws are keyed.
class Point {
 public:
  explicit Point(std::vector<std::pair<std::string, Value>> coords)
      : coords_(std::move(coords)) {}

  [[nodiscard]] std::size_t size() const { return coords_.size(); }
  [[nodiscard]] const std::string& name(std::size_t i) const {
    return coords_[i].first;
  }
  [[nodiscard]] const Value& value(std::size_t i) const {
    return coords_[i].second;
  }

  /// Coordinate by name; throws std::out_of_range when absent.
  [[nodiscard]] const Value& at(const std::string& name) const;
  /// Numeric coordinate (int/real); throws on strings.
  [[nodiscard]] double number(const std::string& name) const;
  /// Integer coordinate; throws std::invalid_argument when not an int64.
  [[nodiscard]] std::int64_t integer(const std::string& name) const;
  /// Categorical coordinate; throws std::invalid_argument when not a string.
  [[nodiscard]] const std::string& str(const std::string& name) const;

  /// Canonical "name=<tag>value;..." key — a pure, *injective* function of
  /// the coordinate list. Values carry a one-char type tag ('i' int64,
  /// 'd' double at %.17g, 's' string) and '\', '=', ';' are
  /// backslash-escaped in names and string values, so distinct coordinate
  /// lists always produce distinct keys. Used to memoise repeated points,
  /// to key each point's RNG stream (point_rng) and as the identity of the
  /// persistent cross-run result cache — the format is a stability
  /// contract (src/sweep/README.md).
  [[nodiscard]] std::string key() const;

 private:
  std::vector<std::pair<std::string, Value>> coords_;
};

/// One named, ordered list of values.
class Axis {
 public:
  /// Explicit value list (mixed types allowed via Value).
  [[nodiscard]] static Axis values(std::string name, std::vector<Value> vals);
  /// Typed list conveniences.
  [[nodiscard]] static Axis list(std::string name, std::vector<double> vals);
  [[nodiscard]] static Axis list(std::string name,
                                 std::vector<std::int64_t> vals);
  [[nodiscard]] static Axis list(std::string name,
                                 std::vector<std::string> vals);
  /// `n` evenly spaced reals with both endpoints included (n == 1 -> lo).
  [[nodiscard]] static Axis linear(std::string name, double lo, double hi,
                                   std::size_t n);
  /// `n` geometrically spaced reals with both endpoints *exactly* included
  /// (n == 1 -> lo). lo and hi must be nonzero and same-signed.
  [[nodiscard]] static Axis log(std::string name, double lo, double hi,
                                std::size_t n);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::size_t size() const { return values_.size(); }
  [[nodiscard]] const Value& at(std::size_t i) const { return values_[i]; }

 private:
  Axis(std::string name, std::vector<Value> vals)
      : name_(std::move(name)), values_(std::move(vals)) {}

  std::string name_;
  std::vector<Value> values_;
};

/// A composed sweep: an ordered list of dimensions, each one axis or a
/// zipped group of equal-length axes. `size()` is the product of the
/// dimension lengths; `at(i)` decodes a flat index row-major (the last
/// dimension varies fastest).
class ParamSpace {
 public:
  /// The empty space: one point with no coordinates (the identity of
  /// cross composition).
  ParamSpace() = default;

  /// Cross of a list of axes, in order.
  [[nodiscard]] static ParamSpace of(std::vector<Axis> axes);

  /// Appends one axis as a new crossed dimension. Returns *this so spaces
  /// read as chains: `ParamSpace().cross(a).cross(b).zip({c, d})`.
  ParamSpace& cross(Axis axis);
  /// Appends every dimension of `other` (Cartesian product of spaces).
  ParamSpace& cross(const ParamSpace& other);
  /// Appends a zipped group: all axes advance together as one dimension
  /// (sizes must match; throws std::invalid_argument otherwise).
  ParamSpace& zip(std::vector<Axis> axes);

  /// Number of points (1 for the empty space, 0 when any dimension is
  /// empty).
  [[nodiscard]] std::size_t size() const;
  /// Number of dimensions.
  [[nodiscard]] std::size_t dims() const { return dims_.size(); }
  /// The composed structure itself — each entry one dimension, holding the
  /// axis (cross) or zipped axis group advancing together. Read-only
  /// introspection for the wire/cache serialization layer; the decode
  /// contract stays at()/names().
  [[nodiscard]] const std::vector<std::vector<Axis>>& dimensions() const {
    return dims_;
  }
  /// Coordinate names, in decode order.
  [[nodiscard]] std::vector<std::string> names() const;
  /// Decodes flat index `i` (row-major); throws std::out_of_range when
  /// i >= size().
  [[nodiscard]] Point at(std::size_t i) const;

 private:
  void add_dim(std::vector<Axis> axes);

  std::vector<std::vector<Axis>> dims_; ///< each entry a zipped axis group
};

} // namespace mss::sweep
