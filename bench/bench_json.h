// Shared bench-binary main: prints the usual google-benchmark console table
// AND writes BENCH_<name>.json next to the binary — a machine-readable
// `[{"metric", "value", "unit", "seed"}, ...]` array CI archives per run so
// figures can be regenerated and regressions diffed without scraping the
// human table.
//
// Usage, replacing BENCHMARK_MAIN():
//   #include "bench_json.h"
//   SVR4_BENCH_MAIN("tbl_exec_throughput")
#ifndef SVR4PROC_BENCH_BENCH_JSON_H_
#define SVR4PROC_BENCH_BENCH_JSON_H_

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

namespace svr4bench {

struct JsonMetric {
  std::string metric;
  double value = 0.0;
  std::string unit;
};

inline std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out;
}

// Prints the human table exactly as ConsoleReporter would, capturing each
// run's headline time and user counters on the way through. With
// --benchmark_repetitions the aggregate rows (_mean, _median, _stddev, _cv)
// are captured too; a _cv row is a ratio, so its values carry unit "ratio".
class CaptureReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) {
        continue;  // skipped runs (self-check failures) carry no number
      }
      const std::string name = run.benchmark_name();
      const bool ratio = run.run_type == Run::RT_Aggregate &&
                         run.aggregate_unit == benchmark::kPercentage;
      captured_.push_back(ratio ? JsonMetric{name, run.real_accumulated_time, "ratio"}
                                : JsonMetric{name, run.GetAdjustedRealTime(),
                                             benchmark::GetTimeUnitString(run.time_unit)});
      for (const auto& [cname, counter] : run.counters) {
        const double value = counter;
        if (!std::isfinite(value)) {
          continue;  // the _cv of a counter that is always 0; JSON has no NaN
        }
        const char* unit = "count";
        if (ratio) {
          unit = "ratio";
        } else if (cname == "items_per_second") {
          unit = "items/s";
        } else if (cname == "bytes_per_second") {
          unit = "bytes/s";
        }
        captured_.push_back(JsonMetric{name + ":" + cname, value, unit});
      }
    }
    benchmark::ConsoleReporter::ReportRuns(runs);
  }

  const std::vector<JsonMetric>& captured() const { return captured_; }

 private:
  std::vector<JsonMetric> captured_;
};

// The simulation is deterministic (virtual time, no host randomness), so
// the recorded seed is a constant unless a bench opts into one.
inline int WriteBenchJson(const char* bench_name, const std::vector<JsonMetric>& ms,
                          uint64_t seed = 0) {
  std::string path = std::string("BENCH_") + bench_name + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < ms.size(); ++i) {
    std::fprintf(f,
                 "  {\"metric\": \"%s\", \"value\": %.17g, \"unit\": \"%s\", "
                 "\"seed\": %llu}%s\n",
                 JsonEscape(ms[i].metric).c_str(), ms[i].value,
                 JsonEscape(ms[i].unit).c_str(),
                 static_cast<unsigned long long>(seed), i + 1 < ms.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
  std::printf("wrote %s (%zu metrics)\n", path.c_str(), ms.size());
  return 0;
}

inline int RunBenchMain(const char* bench_name, int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  CaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return WriteBenchJson(bench_name, reporter.captured());
}

}  // namespace svr4bench

#define SVR4_BENCH_MAIN(name)                             \
  int main(int argc, char** argv) {                       \
    return svr4bench::RunBenchMain(name, argc, argv);     \
  }

#endif  // SVR4PROC_BENCH_BENCH_JSON_H_
