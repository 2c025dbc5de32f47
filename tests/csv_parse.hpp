// Minimal RFC-4180 CSV parser for tests (quotes, escaped quotes, commas
// and newlines inside quoted cells) — enough to read back what
// sweep::ResultTable emits.
#pragma once

#include <string>
#include <vector>

inline std::vector<std::vector<std::string>> parse_csv(
    const std::string& text) {
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> row;
  std::string cell;
  bool quoted = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (quoted) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          cell += '"';
          ++i;
        } else {
          quoted = false;
        }
      } else {
        cell += c;
      }
    } else if (c == '"') {
      quoted = true;
    } else if (c == ',') {
      row.push_back(cell);
      cell.clear();
    } else if (c == '\n') {
      row.push_back(cell);
      cell.clear();
      rows.push_back(row);
      row.clear();
    } else if (c != '\r') {
      cell += c;
    }
  }
  if (!cell.empty() || !row.empty()) {
    row.push_back(cell);
    rows.push_back(row);
  }
  return rows;
}
