#pragma once
// Measurement plumbing shared by both workloads: wall/CPU clocks, sample
// sets with percentiles, bench-side trace spans, obs snapshot deltas and a
// tiny JSON writer for the report.

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace perfbench {

/// Seconds on the monotonic clock.
double now_s();
/// CPU seconds of the calling thread.
double thread_cpu_s();
/// Process CPU seconds (user + system, all threads). Unlike wall time it
/// excludes the time the host did not run the process's threads, so it
/// measures the work done rather than the share of a shared host it got.
double cpu_s();
/// Host-speed reference. On a shared host the speed of a core swings by up
/// to 2x within seconds (other tenants on the same physical cores), which
/// CPU time does not remove. The benchmark therefore runs a fixed chunk of
/// its own arithmetic (kReferenceMuls Montgomery multiplications, written in
/// harness.cpp so that no change to the program can change it) next to each
/// timed operation, on `threads` threads at once, and returns the mean
/// thread CPU seconds one chunk took.
double reference_s(unsigned threads);
/// Converts CPU seconds, measured next to a reference reading, into
/// milliseconds at the nominal reference speed (unit "ref-ms"): the CPU time
/// the operation would take on a core that runs one reference chunk in
/// kReferenceNominalS.
double ref_ms(double cpu_seconds, double reference_seconds);
/// Times `op` and scales its CPU time to the reference speed. `threads` is
/// how many threads `op` runs on: with 1, the calling thread's CPU time is
/// measured and the reference chunks run on this thread; with more, the
/// process's CPU time is measured and each reference reading runs on that
/// many threads at once. The scale is the median of `readings` reference
/// readings just before `op` and `readings` just after it (the speed drifts
/// while a long operation runs, and one chunk is a noisy reading of it).
struct ScaledTiming {
  double cpu_s = 0;
  double wall_s = 0;
  double ref_ms = 0;        // cpu_s in ref-ms (see ref_ms)
  double reference_s = 0;   // the median reading
};
ScaledTiming time_scaled(unsigned threads, const std::function<void()>& op,
                         unsigned readings = 4);
constexpr unsigned kReferenceMuls = 8000;
constexpr double kReferenceNominalS = 0.5e-3;
/// Peak resident set size of the process, MiB.
double peak_rss_mb();

/// A set of timing samples. Quantiles interpolate linearly between order
/// statistics (the same rule as numpy's default).
class Samples {
 public:
  void add(double v) { v_.push_back(v); }
  std::size_t count() const { return v_.size(); }
  double sum() const;
  double mean() const { return v_.empty() ? 0.0 : sum() / static_cast<double>(v_.size()); }
  double quantile(double q) const;
  double median() const { return quantile(0.5); }

 private:
  std::vector<double> v_;
};

/// Accumulates wall and CPU time over many short intervals.
class Stopwatch {
 public:
  void start() {
    wall0_ = now_s();
    cpu0_ = cpu_s();
  }
  /// Ends the interval and returns its wall seconds.
  double stop() {
    const double dw = now_s() - wall0_;
    wall_ += dw;
    cpu_ += cpu_s() - cpu0_;
    return dw;
  }
  double wall() const { return wall_; }
  double cpu() const { return cpu_; }

 private:
  double wall0_ = 0, cpu0_ = 0, wall_ = 0, cpu_ = 0;
};

/// Bench-side tracing. Spans are recorded only in a traced run (--trace 1);
/// otherwise a Span is one branch. Every span records its parent (the span
/// open on the calling thread when it began, or the span the thread adopted)
/// and a request id shared by the spans of one operation, so self time and
/// coverage can be computed. Spans may be recorded from several threads.
class Trace {
 public:
  struct Event {
    const char* name;
    double start;
    double end;
    int parent;  // index into events(), -1 for a root
    std::uint64_t request;
    int thread;  // small id of the recording thread, 1 for the first
  };

  static void enable(bool on);
  static bool enabled();
  static int begin(const char* name, std::uint64_t request);
  static void end(int index);
  /// Spans begun on the calling thread with no span open on it become
  /// children of `parent` (an index from Span::index(), -1 for none).
  static void adopt(int parent);
  static const std::vector<Event>& events();
  static void clear();

  struct Stat {
    std::uint64_t count = 0;
    double total_s = 0;
    double self_s = 0;  // total minus the time covered by direct children
  };
  /// Per-name aggregates over every recorded span. Not thread-safe: call
  /// once every recording thread has ended.
  static std::map<std::string, Stat> stats();
  /// Chrome trace_event JSON of every recorded span.
  static std::string chrome_json();
};

class Span {
 public:
  explicit Span(const char* name, std::uint64_t request = 0)
      : index_(Trace::enabled() ? Trace::begin(name, request) : -1) {}
  ~Span() {
    if (index_ >= 0) Trace::end(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  /// Index of the recorded event, -1 when tracing is off.
  int index() const { return index_; }

 private:
  int index_;
};

/// Accumulates the program's obs counters, spans and histograms over one or
/// more windows (begin..end). Read only: the benchmark never resets them.
class ObsWindow {
 public:
  void begin();
  void end();

  std::uint64_t counter(const std::string& name) const;
  std::uint64_t span_count(const std::string& name) const;
  double span_total_s(const std::string& name) const;
  std::uint64_t histogram_count(const std::string& name) const;
  /// Sum of the windowed samples.
  std::uint64_t histogram_sum(const std::string& name) const;
  /// Upper-edge quantile (obs bucket edge) of the windowed samples.
  double histogram_quantile(const std::string& name, double q) const;
  /// Counters whose name starts with `prefix`, windowed.
  std::map<std::string, std::uint64_t> counters_with_prefix(const std::string& prefix) const;

 private:
  zl::obs::Snapshot open_;
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, zl::obs::SpanSample> spans_;
  std::map<std::string, std::vector<std::uint64_t>> buckets_;
  std::map<std::string, std::uint64_t> sums_;
};

/// Minimal JSON object writer; numbers keep every significant digit.
class Json {
 public:
  Json& num(const std::string& key, double v);
  Json& integer(const std::string& key, std::int64_t v);
  Json& str(const std::string& key, const std::string& v);
  Json& boolean(const std::string& key, bool v);
  Json& raw(const std::string& key, const std::string& json);
  std::string dump() const { return "{" + body_ + "}"; }

  static std::string quote(const std::string& s);
  static std::string number(double v);

 private:
  void key(const std::string& k);
  std::string body_;
};

/// Operation accounting: a refused or unconfirmed operation is a failure.
struct Ops {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

/// A correctness gate: every check is recorded; one failure fails the run.
class Gate {
 public:
  void check(bool ok, const std::string& what);
  bool ok() const { return failures_.empty(); }
  std::size_t checks() const { return checks_; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::size_t checks_ = 0;
  std::vector<std::string> failures_;
};

/// Everything a workload reports back to main().
struct Result {
  Gate gate;
  std::map<std::string, Ops> ops;  // by operation kind
  /// End-to-end metrics: name -> (value, unit, sample count).
  struct Metric {
    double value = 0;
    std::string unit;
    std::uint64_t samples = 0;
  };
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  Json details;  // workload-specific facts for the report line
  double load_wall_s = 0;

  void e2e(const std::string& name, double v, const std::string& unit, std::uint64_t n) {
    end_to_end[name] = {v, unit, n};
  }
  void layer(const std::string& name, double v, const std::string& unit, std::uint64_t n) {
    per_layer[name] = {v, unit, n};
  }
};

/// Progress line on stderr (stdout carries only the JSON report).
void log(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace perfbench
