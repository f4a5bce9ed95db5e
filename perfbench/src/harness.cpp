#include "harness.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <mutex>
#include <thread>
#include <vector>

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

namespace {

using u64 = std::uint64_t;
using u128 = unsigned __int128;
// The BN254 base-field modulus and -p^-1 mod 2^64, little-endian limbs.
constexpr u64 kP[4] = {0x3c208c16d87cfd47ull, 0x97816a916871ca8dull, 0xb85045b68181585dull,
                       0x30644e72e131a029ull};
constexpr u64 kInv = 0x87d20782e4866389ull;

// Montgomery product a*b*2^-256 mod p (CIOS), left not fully reduced.
void mont_mul(const u64 a[4], const u64 b[4], u64 out[4]) {
  u64 t[6] = {0, 0, 0, 0, 0, 0};
  for (int i = 0; i < 4; ++i) {
    u128 carry = 0;
    for (int j = 0; j < 4; ++j) {
      carry += static_cast<u128>(a[j]) * b[i] + t[j];
      t[j] = static_cast<u64>(carry);
      carry >>= 64;
    }
    carry += t[4];
    t[4] = static_cast<u64>(carry);
    t[5] = static_cast<u64>(carry >> 64);
    const u64 m = t[0] * kInv;
    carry = static_cast<u128>(m) * kP[0] + t[0];
    carry >>= 64;
    for (int j = 1; j < 4; ++j) {
      carry += static_cast<u128>(m) * kP[j] + t[j];
      t[j - 1] = static_cast<u64>(carry);
      carry >>= 64;
    }
    carry += t[4];
    t[3] = static_cast<u64>(carry);
    t[4] = t[5] + static_cast<u64>(carry >> 64);
  }
  for (int j = 0; j < 4; ++j) out[j] = t[j];
}

double reference_chunk_s() {
  // One dependent chain of products: each multiplication waits for the one
  // before it, as in a modular exponentiation or a scalar multiplication.
  // (Independent chains keep a core's multipliers busier, which made the
  // chunk slow down more than the program's code does when another thread
  // shares the core.)
  static std::atomic<u64> sink{0};  // keeps the chain from being optimized away
  u64 x[4] = {0x9e3779b97f4a7c15ull, 0x3c6ef372fe94f82aull, 0xdaa66d2c7ddf743full,
              0x0789a3dca1e1b3c4ull};
  const u64 y[4] = {0x1234567890abcdefull, 0x0fedcba987654321ull, 0x1111111111111111ull,
                    0x0222222222222222ull};
  const double t0 = thread_cpu_s();
  for (unsigned i = 0; i < kReferenceMuls; ++i) mont_mul(x, y, x);
  const double dt = thread_cpu_s() - t0;
  sink.fetch_add(x[0], std::memory_order_relaxed);
  return dt;
}

}  // namespace

double reference_s(unsigned threads) {
  Span span("bench.reference");
  if (threads <= 1) return reference_chunk_s();
  std::vector<double> took(threads, 0.0);
  std::vector<std::thread> others;
  for (unsigned i = 1; i < threads; ++i) {
    others.emplace_back([&took, i] { took[i] = reference_chunk_s(); });
  }
  took[0] = reference_chunk_s();
  for (std::thread& t : others) t.join();
  double sum = 0;
  for (const double t : took) sum += t;
  return sum / static_cast<double>(threads);
}

double ref_ms(double cpu_seconds, double reference_seconds) {
  return cpu_seconds * 1e3 * kReferenceNominalS / reference_seconds;
}

ScaledTiming time_scaled(unsigned threads, const std::function<void()>& op, unsigned readings) {
  const auto cpu = [threads] { return threads > 1 ? cpu_s() : thread_cpu_s(); };
  Samples ref;
  for (unsigned i = 0; i < readings; ++i) ref.add(reference_s(threads));
  ScaledTiming out;
  const double w0 = now_s();
  const double c0 = cpu();
  op();
  out.cpu_s = cpu() - c0;
  out.wall_s = now_s() - w0;
  for (unsigned i = 0; i < readings; ++i) ref.add(reference_s(threads));
  out.reference_s = ref.median();
  out.ref_ms = ref_ms(out.cpu_s, out.reference_s);
  return out;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double Samples::sum() const {
  double s = 0;
  for (const double v : v_) s += v;
  return s;
}

double Samples::quantile(double q) const {
  if (v_.empty()) return 0.0;
  std::vector<double> sorted = v_;
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - static_cast<double>(lo));
}

// --- Trace -----------------------------------------------------------------

namespace {
struct TraceState {
  std::atomic<bool> enabled{false};
  std::mutex mu;
  std::vector<Trace::Event> events;  // guarded by mu
  std::atomic<int> threads{0};
};
TraceState& trace_state() {
  static TraceState state;
  return state;
}
struct ThreadTrace {
  std::vector<int> stack;  // spans open on this thread
  int adopted = -1;
  int id = 0;
};
ThreadTrace& thread_trace() {
  thread_local ThreadTrace t;
  if (t.id == 0) t.id = ++trace_state().threads;
  return t;
}
}  // namespace

void Trace::enable(bool on) { trace_state().enabled = on; }
bool Trace::enabled() { return trace_state().enabled; }

int Trace::begin(const char* name, std::uint64_t request) {
  TraceState& s = trace_state();
  ThreadTrace& t = thread_trace();
  const int parent = t.stack.empty() ? t.adopted : t.stack.back();
  const double start = now_s();
  int index;
  {
    std::lock_guard<std::mutex> lock(s.mu);
    if (request == 0 && parent >= 0) request = s.events[static_cast<std::size_t>(parent)].request;
    s.events.push_back({name, start, 0.0, parent, request, t.id});
    index = static_cast<int>(s.events.size()) - 1;
  }
  t.stack.push_back(index);
  return index;
}

void Trace::end(int index) {
  TraceState& s = trace_state();
  const double end = now_s();
  {
    std::lock_guard<std::mutex> lock(s.mu);
    s.events[static_cast<std::size_t>(index)].end = end;
  }
  // Spans are RAII scopes on one thread, so they close in LIFO order.
  ThreadTrace& t = thread_trace();
  if (!t.stack.empty() && t.stack.back() == index) t.stack.pop_back();
}

void Trace::adopt(int parent) { thread_trace().adopted = parent; }

const std::vector<Trace::Event>& Trace::events() { return trace_state().events; }

void Trace::clear() {
  trace_state().events.clear();
  thread_trace().stack.clear();
}

std::map<std::string, Trace::Stat> Trace::stats() {
  const std::vector<Event>& ev = events();
  // Children of one parent may overlap (spans from several threads), so the
  // time they cover is the union of their intervals.
  std::vector<std::vector<std::pair<double, double>>> children(ev.size());
  for (const Event& e : ev) {
    if (e.parent >= 0) children[static_cast<std::size_t>(e.parent)].push_back({e.start, e.end});
  }
  std::map<std::string, Stat> out;
  for (std::size_t i = 0; i < ev.size(); ++i) {
    std::vector<std::pair<double, double>>& c = children[i];
    std::sort(c.begin(), c.end());
    double covered = 0, reach = -1e300;
    for (const auto& [start, end] : c) {
      const double from = std::max(start, reach);
      if (end > from) covered += end - from;
      reach = std::max(reach, end);
    }
    Stat& st = out[ev[i].name];
    const double dur = ev[i].end - ev[i].start;
    ++st.count;
    st.total_s += dur;
    st.self_s += dur - covered;
  }
  return out;
}

std::string Trace::chrome_json() {
  const std::vector<Event>& ev = events();
  const double t0 = ev.empty() ? 0.0 : ev.front().start;
  std::string out = "{\"traceEvents\":[";
  for (std::size_t i = 0; i < ev.size(); ++i) {
    if (i > 0) out += ",";
    Json j;
    j.str("name", ev[i].name)
        .str("ph", "X")
        .num("ts", (ev[i].start - t0) * 1e6)
        .num("dur", (ev[i].end - ev[i].start) * 1e6)
        .integer("pid", 1)
        .integer("tid", ev[i].thread)
        .raw("args", Json()
                         .integer("request", static_cast<std::int64_t>(ev[i].request))
                         .integer("parent", ev[i].parent)
                         .dump());
    out += j.dump();
  }
  out += "]}";
  return out;
}

// --- ObsWindow ---------------------------------------------------------------

void ObsWindow::begin() { open_ = zl::obs::snapshot(); }

void ObsWindow::end() {
  const zl::obs::Snapshot now = zl::obs::snapshot();
  for (const auto& [name, v] : now.counters) counters_[name] += v - open_.counter(name);
  for (const auto& [name, v] : now.spans) {
    const zl::obs::SpanSample* was = open_.span(name);
    zl::obs::SpanSample& acc = spans_[name];
    acc.count += v.count - (was ? was->count : 0);
    acc.total_ns += v.total_ns - (was ? was->total_ns : 0);
  }
  for (const auto& [name, h] : now.histograms) {
    std::vector<std::uint64_t>& acc = buckets_[name];
    acc.resize(h.buckets.size(), 0);
    const auto was = open_.histograms.find(name);
    sums_[name] += h.sum - (was != open_.histograms.end() ? was->second.sum : 0);
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      const bool had = was != open_.histograms.end() && i < was->second.buckets.size();
      acc[i] += h.buckets[i] - (had ? was->second.buckets[i] : 0);
    }
  }
}

std::uint64_t ObsWindow::counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

std::uint64_t ObsWindow::span_count(const std::string& name) const {
  const auto it = spans_.find(name);
  return it == spans_.end() ? 0 : it->second.count;
}

double ObsWindow::span_total_s(const std::string& name) const {
  const auto it = spans_.find(name);
  return it == spans_.end() ? 0.0 : static_cast<double>(it->second.total_ns) * 1e-9;
}

std::uint64_t ObsWindow::histogram_count(const std::string& name) const {
  const auto it = buckets_.find(name);
  if (it == buckets_.end()) return 0;
  std::uint64_t n = 0;
  for (const std::uint64_t c : it->second) n += c;
  return n;
}

std::uint64_t ObsWindow::histogram_sum(const std::string& name) const {
  const auto it = sums_.find(name);
  return it == sums_.end() ? 0 : it->second;
}

double ObsWindow::histogram_quantile(const std::string& name, double q) const {
  const std::uint64_t total = histogram_count(name);
  if (total == 0) return 0.0;
  const std::vector<std::uint64_t>& b = buckets_.at(name);
  const double target = q * static_cast<double>(total);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    seen += b[i];
    if (static_cast<double>(seen) >= target) {
      return static_cast<double>(zl::obs::Histogram::bucket_upper_edge(i));
    }
  }
  return static_cast<double>(zl::obs::Histogram::bucket_upper_edge(b.size() - 1));
}

std::map<std::string, std::uint64_t> ObsWindow::counters_with_prefix(
    const std::string& prefix) const {
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, v] : counters_) {
    if (name.rfind(prefix, 0) == 0) out[name] = v;
  }
  return out;
}

// --- Json --------------------------------------------------------------------

std::string Json::quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Json::number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void Json::key(const std::string& k) {
  if (!body_.empty()) body_ += ",";
  body_ += quote(k) + ":";
}

Json& Json::num(const std::string& k, double v) {
  key(k);
  body_ += number(v);
  return *this;
}

Json& Json::integer(const std::string& k, std::int64_t v) {
  key(k);
  body_ += std::to_string(v);
  return *this;
}

Json& Json::str(const std::string& k, const std::string& v) {
  key(k);
  body_ += quote(v);
  return *this;
}

Json& Json::boolean(const std::string& k, bool v) {
  key(k);
  body_ += v ? "true" : "false";
  return *this;
}

Json& Json::raw(const std::string& k, const std::string& json) {
  key(k);
  body_ += json;
  return *this;
}

// --- Gate / log ----------------------------------------------------------------

void Gate::check(bool ok, const std::string& what) {
  ++checks_;
  if (!ok) {
    failures_.push_back(what);
    log("CHECK FAILED: %s", what.c_str());
  }
}

void log(const char* fmt, ...) {
  std::fprintf(stderr, "[perfbench] ");
  va_list args;
  va_start(args, fmt);
  std::vfprintf(stderr, fmt, args);
  va_end(args);
  std::fprintf(stderr, "\n");
}

}  // namespace perfbench
