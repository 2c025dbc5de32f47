// Structured sweep output: named columns of typed cells with text / CSV /
// JSON emission. The library's one table type: every
// paper-figure driver, example and client emits through it — one table
// object serves the console view, the re-plottable CSV, and the
// machine-readable JSON.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "sweep/param_space.hpp" // Value

namespace mss::sweep {

class ResultTable {
 public:
  /// Creates a table with the given column names (must be unique).
  explicit ResultTable(std::vector<std::string> columns);

  /// Appends a row; must have one cell per column.
  void add_row(std::vector<Value> row);

  [[nodiscard]] std::size_t rows() const { return rows_.size(); }
  [[nodiscard]] std::size_t cols() const { return columns_.size(); }
  [[nodiscard]] const std::vector<std::string>& columns() const {
    return columns_;
  }
  /// Index of a column; throws std::out_of_range when unknown.
  [[nodiscard]] std::size_t col_index(const std::string& name) const;

  [[nodiscard]] const Value& at(std::size_t row, std::size_t col) const;
  [[nodiscard]] const Value& at(std::size_t row,
                                const std::string& col) const;
  /// Numeric cell view (int/real); throws on strings.
  [[nodiscard]] double number(std::size_t row, const std::string& col) const;

  /// Right-aligned console rendering under a dashed header rule (reals
  /// formatted "%.*g" with `precision`).
  [[nodiscard]] std::string str(int precision = 5) const;

  /// RFC-4180-ish CSV ("%.12g" reals, so series can be re-plotted
  /// faithfully).
  [[nodiscard]] std::string csv() const;
  /// Writes csv() to `path`; false on any I/O failure, including one
  /// only the final flush sees (a full device).
  bool write_csv(const std::string& path) const;

  /// JSON array of row objects; ints stay ints, reals "%.12g", strings
  /// escaped.
  [[nodiscard]] std::string json() const;
  /// Writes json() to `path`; false on any I/O failure, as write_csv.
  bool write_json(const std::string& path) const;

 private:
  std::vector<std::string> columns_;
  std::vector<std::vector<Value>> rows_;
};

} // namespace mss::sweep
