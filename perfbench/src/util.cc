#include "util.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <thread>

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
const Clock::time_point kStart = Clock::now();

struct TraceEvent {
  std::string name, cat;
  char phase = 'X';
  double start_s = 0, end_s = 0;
  int tid = 0;
  std::uint64_t id = 0;
};

std::atomic<bool> g_tracing{false};
std::atomic<int> g_next_tid{0};
std::mutex g_trace_mu;
std::vector<TraceEvent> g_events;  // guarded by g_trace_mu

void json_escape(std::FILE* f, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') std::fputc('\\', f);
    std::fputc(c, f);
  }
}

}  // namespace

void Result::fail(const std::string& what) {
  correct = false;
  ++failed;
  errors.push_back(what);
}

bool Result::check(bool ok, const std::string& what) {
  if (!ok) fail(what);
  return ok;
}

double now_s() {
  return std::chrono::duration<double>(Clock::now() - kStart).count();
}

void sleep_until_s(double t) {
  std::this_thread::sleep_until(
      kStart + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(t)));
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const auto idx = static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double median(std::vector<double> v) { return percentile(std::move(v), 50); }

double chunk_median(const std::vector<double>& v, std::size_t chunk, double p) {
  std::vector<double> per_chunk;
  for (std::size_t lo = 0; chunk > 0 && lo + chunk <= v.size(); lo += chunk) {
    per_chunk.push_back(percentile(
        std::vector<double>(v.begin() + static_cast<std::ptrdiff_t>(lo),
                            v.begin() + static_cast<std::ptrdiff_t>(lo + chunk)),
        p));
  }
  return median(per_chunk);
}

double tail_percentile(std::size_t samples) {
  double best = 50;
  for (double p : {75.0, 90.0, 99.0, 99.9, 99.99}) {
    if (static_cast<double>(samples) * (1 - p / 100) >= 10 - 1e-9) best = p;
  }
  return best;
}

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
             static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
  u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
  u.minflt = static_cast<double>(ru.ru_minflt);
  return u;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void set_tracing(bool on) { g_tracing.store(on, std::memory_order_relaxed); }
bool tracing() { return g_tracing.load(std::memory_order_relaxed); }

int trace_tid() {
  thread_local const int tid = g_next_tid.fetch_add(1) + 1;
  return tid;
}

void trace_complete(const std::string& name, const std::string& cat,
                    double start_s, double end_s) {
  TraceEvent ev{name, cat, 'X', start_s, end_s, trace_tid(), 0};
  std::lock_guard<std::mutex> lock(g_trace_mu);
  g_events.push_back(std::move(ev));
}

void trace_async(const std::string& name, const std::string& cat,
                 std::uint64_t id, double start_s, double end_s) {
  TraceEvent ev{name, cat, 'b', start_s, end_s, trace_tid(), id};
  std::lock_guard<std::mutex> lock(g_trace_mu);
  g_events.push_back(std::move(ev));
}

bool write_trace(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(g_trace_mu);
  std::fputs("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n", f);
  bool first = true;
  auto head = [&](const TraceEvent& ev, char phase, double ts_s) {
    std::fputs(first ? "" : ",\n", f);
    first = false;
    std::fputs("{\"name\": \"", f);
    json_escape(f, ev.name);
    std::fputs("\", \"cat\": \"", f);
    json_escape(f, ev.cat);
    std::fprintf(f, "\", \"ph\": \"%c\", \"ts\": %.3f, \"pid\": 1, \"tid\": %d",
                 phase, ts_s * 1e6, ev.tid);
  };
  for (const TraceEvent& ev : g_events) {
    if (ev.phase == 'X') {
      head(ev, 'X', ev.start_s);
      std::fprintf(f, ", \"dur\": %.3f}", (ev.end_s - ev.start_s) * 1e6);
    } else {
      head(ev, 'b', ev.start_s);
      std::fprintf(f, ", \"id\": %llu}", static_cast<unsigned long long>(ev.id));
      head(ev, 'e', ev.end_s);
      std::fprintf(f, ", \"id\": %llu}", static_cast<unsigned long long>(ev.id));
    }
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
