// Shared plumbing of the benchmark: run configuration, results, order
// statistics, process usage and the trace recorder.
//
// Everything here is the benchmark's own code. Spans are recorded around the
// benchmark's calls into the library, never inside it, so the library under
// test is the same binary code whether tracing is on or off.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_path;  ///< Chrome trace-event output of a traced run
  bool smoke = false;      ///< reduced sizes: every workload and check in seconds
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run hands back to main(). `e2e` is printed with tracing
/// off, `layers` with tracing on; `errors` names every failed check.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> e2e;
  std::vector<Metric> layers;
  std::vector<std::string> errors;

  /// A failed check: counts one failed operation and makes the run incorrect.
  void fail(const std::string& what);
  /// Records a check's outcome; returns `ok`.
  bool check(bool ok, const std::string& what);
  void add_e2e(const std::string& name, double value, const std::string& unit) {
    e2e.push_back({name, value, unit});
  }
  void add_layer(const std::string& name, double value, const std::string& unit) {
    layers.push_back({name, value, unit});
  }
};

Result run_train(const Config& cfg);
Result run_serve(const Config& cfg);

// --- time --------------------------------------------------------------------

/// Seconds since process start (the anchor is taken during static
/// initialization, before main()).
double now_s();
/// Sleeps until now_s() reaches `t`.
void sleep_until_s(double t);

// --- order statistics ---------------------------------------------------------

/// Nearest-rank percentile, p in [0, 100]. 0 for an empty sample.
double percentile(std::vector<double> v, double p);
double median(std::vector<double> v);

/// Percentile p of each full `chunk` of consecutive samples, then the median
/// over chunks. 0 when there is no full chunk.
double chunk_median(const std::vector<double>& v, std::size_t chunk, double p);

/// The highest percentile of {50, 75, 90, 99, 99.9, 99.99} that leaves at least
/// ten samples beyond it; 50 when the sample holds fewer than forty values.
double tail_percentile(std::size_t samples);

// --- process usage ------------------------------------------------------------

struct Usage {
  double user_s = 0;
  double sys_s = 0;
  double minflt = 0;
};
Usage usage_now();
/// Peak resident set of the process so far, MiB.
double peak_rss_mib();

// --- tracing --------------------------------------------------------------------

void set_tracing(bool on);
bool tracing();

/// Small dense id of the calling thread, for the trace's `tid` field.
int trace_tid();

/// A complete span [start_s, end_s] on the calling thread (times from now_s()).
void trace_complete(const std::string& name, const std::string& cat,
                    double start_s, double end_s);
/// An async span (its own track, keyed by `id`), for overlapping requests.
void trace_async(const std::string& name, const std::string& cat,
                 std::uint64_t id, double start_s, double end_s);

/// Writes every recorded span as Chrome trace-event JSON. False on I/O error.
bool write_trace(const std::string& path);

/// RAII span around one call into the library; records only when tracing.
class Span {
 public:
  Span(std::string name, std::string cat)
      : name_(std::move(name)), cat_(std::move(cat)), start_(now_s()) {}
  ~Span() {
    if (tracing()) trace_complete(name_, cat_, start_, now_s());
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::string name_, cat_;
  double start_;
};

}  // namespace perfbench
