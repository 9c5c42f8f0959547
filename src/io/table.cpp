#include "io/table.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace match::io {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {
  if (header_.empty()) throw std::invalid_argument("Table: empty header");
}

void Table::add_row(std::vector<std::string> cells) {
  if (cells.size() != header_.size()) {
    throw std::invalid_argument("Table::add_row: wrong cell count");
  }
  rows_.push_back(std::move(cells));
}

std::string Table::num(double value, int precision) {
  std::ostringstream os;
  os << std::setprecision(precision) << value;
  // The default float format turns scientific once the integer part has
  // more digits than `precision` (56351 at 1 digit is "6e+04"); a table
  // keeps every integer digit instead.
  if (std::abs(value) >= 1.0 && os.str().find('e') != std::string::npos) {
    os.str("");
    os << std::fixed << std::setprecision(0) << value;
  }
  return os.str();
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> width(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }

  const auto print_row = [&](const std::vector<std::string>& row) {
    os << "|";
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << " " << std::left << std::setw(static_cast<int>(width[c])) << row[c]
         << " |";
    }
    os << "\n";
  };

  print_row(header_);
  os << "|";
  for (std::size_t c = 0; c < header_.size(); ++c) {
    os << std::string(width[c] + 2, '-') << "|";
  }
  os << "\n";
  for (const auto& row : rows_) print_row(row);
}

std::string csv_escape(const std::string& field) {
  if (field.find_first_of(",\"\n\r") == std::string::npos) return field;
  std::string out = "\"";
  for (char ch : field) {
    if (ch == '"') out += '"';
    out += ch;
  }
  out += '"';
  return out;
}

void Table::write_csv(std::ostream& os) const {
  const auto write_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c != 0) os << ",";
      os << csv_escape(row[c]);
    }
    os << "\n";
  };
  write_row(header_);
  for (const auto& row : rows_) write_row(row);
}

}  // namespace match::io
