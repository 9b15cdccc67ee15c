#include "util/csv.h"

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "util/error.h"

namespace pg::util {

std::vector<std::vector<double>> parse_numeric_csv(const std::string& text,
                                                   char delim) {
  std::vector<std::vector<double>> rows;
  std::istringstream in(text);
  std::string line;
  std::size_t expected_fields = 0;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    std::vector<double> row;
    std::istringstream ls(line);
    std::string field;
    while (std::getline(ls, field, delim)) {
      const char* begin = field.c_str();
      char* end = nullptr;
      const double v = std::strtod(begin, &end);
      PG_CHECK(end != begin && end == begin + field.size(),
               "non-numeric CSV field '" + field + "' at line " +
                   std::to_string(line_no));
      row.push_back(v);
    }
    if (expected_fields == 0) {
      expected_fields = row.size();
    }
    PG_CHECK(row.size() == expected_fields,
             "ragged CSV row at line " + std::to_string(line_no));
    rows.push_back(std::move(row));
  }
  return rows;
}

std::vector<std::vector<double>> load_numeric_csv(const std::string& path,
                                                  char delim) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot open CSV file: " + path);
  std::ostringstream buf;
  buf << f.rdbuf();
  return parse_numeric_csv(buf.str(), delim);
}

std::string format_csv(const std::vector<std::string>& header,
                       const std::vector<std::vector<double>>& rows,
                       char delim) {
  std::ostringstream os;
  os.precision(10);
  for (std::size_t i = 0; i < header.size(); ++i) {
    if (i) os << delim;
    os << header[i];
  }
  if (!header.empty()) os << '\n';
  for (const auto& row : rows) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i) os << delim;
      os << row[i];
    }
    os << '\n';
  }
  return os.str();
}

bool file_exists(const std::string& path) {
  std::ifstream f(path);
  return static_cast<bool>(f);
}

}  // namespace pg::util
