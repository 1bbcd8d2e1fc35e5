// ASCII table emission for the experiment benches.  Every bench binary
// reproduces a paper table or figure series; Table renders them uniformly.
#pragma once

#include <cstddef>
#include <ostream>
#include <string>
#include <vector>

namespace ftmc::util {

/// Column-aligned text table with an optional title, printed as aligned
/// ASCII.
class Table {
 public:
  explicit Table(std::string title = {}) : title_(std::move(title)) {}

  /// Sets the header row; resets nothing else.
  void set_header(std::vector<std::string> header);

  /// Appends a data row (ragged rows are padded with empty cells on print).
  void add_row(std::vector<std::string> row);

  /// Convenience: formats arithmetic cells with fixed precision.
  static std::string cell(double value, int precision = 2);
  static std::string cell(std::size_t value);

  std::size_t row_count() const noexcept { return rows_.size(); }
  const std::string& title() const noexcept { return title_; }

  /// Aligned, boxed ASCII rendering.
  void print(std::ostream& os) const;

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace ftmc::util
