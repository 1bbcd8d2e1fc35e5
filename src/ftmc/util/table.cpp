#include "ftmc/util/table.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

namespace ftmc::util {

void Table::set_header(std::vector<std::string> header) {
  header_ = std::move(header);
}

void Table::add_row(std::vector<std::string> row) {
  rows_.push_back(std::move(row));
}

std::string Table::cell(double value, int precision) {
  std::ostringstream out;
  out << std::fixed << std::setprecision(precision) << value;
  return out.str();
}

std::string Table::cell(std::size_t value) { return std::to_string(value); }

namespace {

std::vector<std::size_t> column_widths(
    const std::vector<std::string>& header,
    const std::vector<std::vector<std::string>>& rows) {
  std::size_t columns = header.size();
  for (const auto& row : rows) columns = std::max(columns, row.size());
  std::vector<std::size_t> widths(columns, 0);
  for (std::size_t c = 0; c < header.size(); ++c)
    widths[c] = std::max(widths[c], header[c].size());
  for (const auto& row : rows)
    for (std::size_t c = 0; c < row.size(); ++c)
      widths[c] = std::max(widths[c], row[c].size());
  return widths;
}

void print_rule(std::ostream& os, const std::vector<std::size_t>& widths) {
  os << '+';
  for (std::size_t width : widths) {
    for (std::size_t i = 0; i < width + 2; ++i) os << '-';
    os << '+';
  }
  os << '\n';
}

void print_row(std::ostream& os, const std::vector<std::size_t>& widths,
               const std::vector<std::string>& row) {
  os << '|';
  for (std::size_t c = 0; c < widths.size(); ++c) {
    const std::string& text = c < row.size() ? row[c] : std::string{};
    os << ' ' << text;
    for (std::size_t i = text.size(); i < widths[c] + 1; ++i) os << ' ';
    os << '|';
  }
  os << '\n';
}

}  // namespace

void Table::print(std::ostream& os) const {
  if (!title_.empty()) os << title_ << '\n';
  const auto widths = column_widths(header_, rows_);
  if (widths.empty()) return;
  print_rule(os, widths);
  if (!header_.empty()) {
    print_row(os, widths, header_);
    print_rule(os, widths);
  }
  for (const auto& row : rows_) print_row(os, widths, row);
  print_rule(os, widths);
}

}  // namespace ftmc::util
