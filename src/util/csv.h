// Minimal CSV reader/writer.
//
// Used to (a) load a real UCI spambase.data file when present, and (b) dump
// experiment results in a form that external plotting tools can consume.
// Only the unquoted numeric subset of CSV is supported -- that is all the
// Spambase format and our result tables need.
#pragma once

#include <string>
#include <vector>

namespace pg::util {

/// Parse a CSV text blob of doubles. Every row must have the same number of
/// fields; blank lines are skipped; fields are separated by `delim`.
/// Throws std::invalid_argument on ragged rows or non-numeric fields.
[[nodiscard]] std::vector<std::vector<double>> parse_numeric_csv(
    const std::string& text, char delim = ',');

/// Load and parse a CSV file of doubles. Throws std::runtime_error if the
/// file cannot be opened.
[[nodiscard]] std::vector<std::vector<double>> load_numeric_csv(
    const std::string& path, char delim = ',');

/// Serialize rows of doubles as CSV with an optional header line.
[[nodiscard]] std::string format_csv(
    const std::vector<std::string>& header,
    const std::vector<std::vector<double>>& rows, char delim = ',');

/// True if the file exists and is readable.
[[nodiscard]] bool file_exists(const std::string& path);

}  // namespace pg::util
