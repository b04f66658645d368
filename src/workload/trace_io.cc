#include "workload/trace_io.h"

#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/logging.h"

namespace distserve::workload {

namespace {
constexpr char kTraceHeader[] = "id,arrival_time,input_len,output_len";
}

void WriteTraceCsv(std::ostream& out, const Trace& trace) {
  out << kTraceHeader << "\n";
  // Enough digits that every arrival time reads back as the identical double.
  out.precision(std::numeric_limits<double>::max_digits10);
  for (const Request& r : trace) {
    out << r.id << "," << r.arrival_time << "," << r.input_len << "," << r.output_len << "\n";
  }
  out.flush();
}

std::optional<Trace> ReadTraceCsv(std::istream& in) {
  std::string line;
  if (!std::getline(in, line) || line != kTraceHeader) {
    return std::nullopt;
  }
  Trace trace;
  double last_arrival = 0.0;
  while (std::getline(in, line)) {
    if (line.empty()) {
      continue;
    }
    std::istringstream row(line);
    Request r;
    char c1 = 0;
    char c2 = 0;
    char c3 = 0;
    char trailing = 0;
    if (!(row >> r.id >> c1 >> r.arrival_time >> c2 >> r.input_len >> c3 >> r.output_len) ||
        c1 != ',' || c2 != ',' || c3 != ',' || (row >> trailing)) {
      return std::nullopt;
    }
    if (r.input_len < 1 || r.output_len < 1 || r.arrival_time < last_arrival) {
      return std::nullopt;
    }
    // Request::total_len() is an int.
    if (int64_t{r.input_len} + r.output_len > std::numeric_limits<int>::max()) {
      return std::nullopt;
    }
    last_arrival = r.arrival_time;
    trace.push_back(r);
  }
  return trace;
}

bool SaveTrace(const std::string& path, const Trace& trace) {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  WriteTraceCsv(out, trace);
  return static_cast<bool>(out);
}

std::optional<Trace> LoadTrace(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return std::nullopt;
  }
  return ReadTraceCsv(in);
}

void WriteRecordsCsv(std::ostream& out, const metrics::Collector& collector) {
  out << "id,arrival,input_len,output_len,prefill_start,first_token,transfer_start,"
         "transfer_end,decode_start,completion,ttft,tpot\n";
  out.precision(9);
  for (const metrics::RequestRecord& r : collector.records()) {
    out << r.id << "," << r.arrival << "," << r.input_len << "," << r.output_len << ","
        << r.prefill_start << "," << r.first_token << "," << r.transfer_start << ","
        << r.transfer_end << "," << r.decode_start << "," << r.completion << "," << r.Ttft()
        << "," << r.Tpot() << "\n";
  }
  out.flush();
}

}  // namespace distserve::workload
