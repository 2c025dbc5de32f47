#include "sweep/result_table.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace mss::sweep {

namespace {

std::string format_real(double d, const char* fmt) {
  char buf[40];
  std::snprintf(buf, sizeof buf, fmt, d);
  return buf;
}

/// Cell text for human/CSV emission.
std::string cell_text(const Value& v, int precision) {
  if (const auto* i = std::get_if<std::int64_t>(&v)) return std::to_string(*i);
  if (const auto* d = std::get_if<double>(&v)) {
    char fmt[8];
    std::snprintf(fmt, sizeof fmt, "%%.%dg", precision);
    return format_real(*d, fmt);
  }
  return std::get<std::string>(v);
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_cell(const Value& v) {
  if (const auto* i = std::get_if<std::int64_t>(&v)) return std::to_string(*i);
  if (const auto* d = std::get_if<double>(&v)) {
    if (!std::isfinite(*d)) return "null"; // JSON has no inf/nan
    return format_real(*d, "%.12g");
  }
  return '"' + json_escape(std::get<std::string>(v)) + '"';
}

std::vector<std::string> row_text(const std::vector<Value>& row,
                                  int precision) {
  std::vector<std::string> cells;
  cells.reserve(row.size());
  for (const auto& v : row) cells.push_back(cell_text(v, precision));
  return cells;
}

/// RFC-4180: quote a cell holding a comma, quote or newline; double quotes.
std::string csv_escape(const std::string& cell) {
  if (cell.find_first_of(",\"\n") == std::string::npos) return cell;
  std::string out = "\"";
  for (char ch : cell) {
    if (ch == '"') out += '"';
    out += ch;
  }
  out += '"';
  return out;
}

bool write_text_file(const std::string& path, const std::string& body) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << body;
  out.close(); // flush first: a full device only fails here
  return !out.fail();
}

} // namespace

ResultTable::ResultTable(std::vector<std::string> columns)
    : columns_(std::move(columns)) {
  if (columns_.empty()) {
    throw std::invalid_argument("ResultTable: no columns");
  }
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    for (std::size_t j = i + 1; j < columns_.size(); ++j) {
      if (columns_[i] == columns_[j]) {
        throw std::invalid_argument("ResultTable: duplicate column '" +
                                    columns_[i] + "'");
      }
    }
  }
}

void ResultTable::add_row(std::vector<Value> row) {
  if (row.size() != columns_.size()) {
    throw std::invalid_argument(
        "ResultTable::add_row: " + std::to_string(row.size()) +
        " cells for " + std::to_string(columns_.size()) + " columns");
  }
  rows_.push_back(std::move(row));
}

std::size_t ResultTable::col_index(const std::string& name) const {
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i] == name) return i;
  }
  throw std::out_of_range("ResultTable: no column named '" + name + "'");
}

const Value& ResultTable::at(std::size_t row, std::size_t col) const {
  return rows_.at(row).at(col);
}

const Value& ResultTable::at(std::size_t row, const std::string& col) const {
  return rows_.at(row)[col_index(col)];
}

double ResultTable::number(std::size_t row, const std::string& col) const {
  return as_number(at(row, col));
}

std::string ResultTable::str(int precision) const {
  std::vector<std::vector<std::string>> text{columns_};
  for (const auto& row : rows_) text.push_back(row_text(row, precision));
  std::vector<std::size_t> widths(columns_.size(), 0);
  for (const auto& cells : text) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      widths[c] = std::max(widths[c], cells[c].size());
    }
  }
  // Right-aligned cells two spaces apart, a dash rule under the header.
  std::string out;
  for (std::size_t r = 0; r < text.size(); ++r) {
    for (std::size_t c = 0; c < text[r].size(); ++c) {
      if (c != 0) out += "  ";
      out.append(widths[c] - text[r][c].size(), ' ');
      out += text[r][c];
    }
    out += '\n';
    if (r == 0) {
      std::size_t rule = 2 * (widths.size() - 1);
      for (std::size_t w : widths) rule += w;
      out.append(rule, '-');
      out += '\n';
    }
  }
  return out;
}

std::string ResultTable::csv() const {
  std::string out;
  const auto emit = [&out](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      if (c != 0) out += ',';
      out += csv_escape(cells[c]);
    }
    out += '\n';
  };
  emit(columns_);
  for (const auto& row : rows_) emit(row_text(row, 12));
  return out;
}

bool ResultTable::write_csv(const std::string& path) const {
  return write_text_file(path, csv());
}

std::string ResultTable::json() const {
  std::string out = "[\n";
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    out += "  {";
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      if (c != 0) out += ", ";
      out += '"' + json_escape(columns_[c]) + "\": " + json_cell(rows_[r][c]);
    }
    out += r + 1 == rows_.size() ? "}\n" : "},\n";
  }
  out += "]\n";
  return out;
}

bool ResultTable::write_json(const std::string& path) const {
  return write_text_file(path, json());
}

} // namespace mss::sweep
