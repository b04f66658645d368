#include "workload/trace_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>

#include "workload/generator.h"

namespace distserve::workload {
namespace {

Trace SampleTrace() {
  FixedDataset dataset(128, 16);
  TraceSpec spec;
  spec.rate = 3.0;
  spec.num_requests = 50;
  spec.seed = 5;
  return GenerateTrace(spec, dataset);
}

TEST(TraceIoTest, RoundTripPreservesEverything) {
  const Trace original = SampleTrace();
  std::stringstream buffer;
  WriteTraceCsv(buffer, original);
  const auto loaded = ReadTraceCsv(buffer);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->size(), original.size());
  for (size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ((*loaded)[i].id, original[i].id);
    EXPECT_EQ((*loaded)[i].arrival_time, original[i].arrival_time);
    EXPECT_EQ((*loaded)[i].input_len, original[i].input_len);
    EXPECT_EQ((*loaded)[i].output_len, original[i].output_len);
  }
}

TEST(TraceIoTest, EmptyTraceRoundTrips) {
  std::stringstream buffer;
  WriteTraceCsv(buffer, {});
  const auto loaded = ReadTraceCsv(buffer);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_TRUE(loaded->empty());
}

TEST(TraceIoTest, RejectsMissingHeader) {
  std::stringstream buffer("1,0.0,10,5\n");
  EXPECT_FALSE(ReadTraceCsv(buffer).has_value());
}

TEST(TraceIoTest, RejectsMalformedRow) {
  for (const char* row : {"1,0.0,ten,5", "0,0.0,10,5junk", "0,0.0,10,5,"}) {
    std::stringstream buffer(std::string("id,arrival_time,input_len,output_len\n") + row + "\n");
    EXPECT_FALSE(ReadTraceCsv(buffer).has_value()) << row;
  }
}

TEST(TraceIoTest, RejectsNonMonotoneArrivals) {
  std::stringstream buffer("id,arrival_time,input_len,output_len\n0,5.0,10,5\n1,4.0,10,5\n");
  EXPECT_FALSE(ReadTraceCsv(buffer).has_value());
}

TEST(TraceIoTest, RejectsNonPositiveLengths) {
  // The last row's lengths are each valid ints, but their sum overflows Request::total_len().
  for (const char* row : {"0,0.0,0,5", "0,0.0,10,0", "0,0.0,2147483647,1"}) {
    std::stringstream buffer(std::string("id,arrival_time,input_len,output_len\n") + row + "\n");
    EXPECT_FALSE(ReadTraceCsv(buffer).has_value()) << row;
  }
}

TEST(TraceIoTest, FileRoundTrip) {
  const Trace original = SampleTrace();
  const std::string path = ::testing::TempDir() + "/trace_io_test.csv";
  ASSERT_TRUE(SaveTrace(path, original));
  const auto loaded = LoadTrace(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->size(), original.size());
  std::remove(path.c_str());
}

TEST(TraceIoTest, LoadMissingFileFails) {
  EXPECT_FALSE(LoadTrace("/nonexistent/definitely/missing.csv").has_value());
}

TEST(TraceIoTest, RecordsCsvHasRowPerRequest) {
  metrics::Collector collector;
  metrics::RequestRecord r;
  r.id = 7;
  r.arrival = 1.0;
  r.input_len = 100;
  r.output_len = 10;
  r.prefill_start = 1.1;
  r.first_token = 1.3;
  r.transfer_start = 1.3;
  r.transfer_end = 1.31;
  r.decode_start = 1.32;
  r.completion = 2.2;
  collector.Record(r);
  std::stringstream out;
  WriteRecordsCsv(out, collector);
  std::string line;
  int rows = 0;
  bool header_ok = false;
  while (std::getline(out, line)) {
    if (rows == 0) {
      header_ok = line.rfind("id,arrival", 0) == 0;
    }
    ++rows;
  }
  EXPECT_TRUE(header_ok);
  EXPECT_EQ(rows, 2);  // header + one record
}

}  // namespace
}  // namespace distserve::workload
