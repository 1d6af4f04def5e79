#ifndef ACCELFLOW_STATS_TABLE_H_
#define ACCELFLOW_STATS_TABLE_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

/**
 * @file
 * Aligned plain-text table printer used by every bench binary to emit the
 * rows/series the paper's tables and figures report.
 */

namespace accelflow::stats {

/** Builds and prints a column-aligned table. */
class Table {
 public:
  /** @param title printed above the table with a separator. */
  explicit Table(std::string title = "") : title_(std::move(title)) {}

  /** Sets the header row. Must be called before add_row. */
  Table& set_header(std::vector<std::string> header);

  /** Adds one row of already-formatted cells. */
  Table& add_row(std::vector<std::string> cells);

  /** Convenience cell formatters. */
  static std::string fmt(double v, int precision = 2);
  static std::string fmt_us(double microseconds, int precision = 1);
  static std::string fmt_pct(double fraction, int precision = 1);

  /** Renders the table (aligned, with header rule) to `os`. */
  void print(std::ostream& os) const;

  /** Renders as comma-separated values (for plotting scripts). */
  void print_csv(std::ostream& os) const;

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace accelflow::stats

#endif  // ACCELFLOW_STATS_TABLE_H_
