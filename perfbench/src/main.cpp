// zl_perfbench — runs one seeded workload of the repository benchmark and
// prints two JSON lines on stdout: a report (provenance, operations by kind,
// sample counts, correctness checks), then the result line
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Exits 1 when a correctness check fails, 2 on a usage error
// or an exception. Progress goes to stderr. See perfbench/README.md.
//
//   zl_perfbench --workload lifecycle|classic-flood --seed N --seconds S
//                --trace 0|1 --workdir DIR [--small] [--plant FAULT]...
//   FAULT: bad-attestation | tampered-block   (self-test only)

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "common/thread_pool.h"
#include "harness.h"
#include "obs/obs.h"
#include "workloads.h"

using namespace perfbench;

namespace {

int usage(const char* why) {
  std::fprintf(stderr, "zl_perfbench: %s\n", why);
  std::fprintf(stderr,
               "usage: zl_perfbench --workload lifecycle|classic-flood --seed N --seconds S "
               "--trace 0|1 --workdir DIR [--small] [--plant bad-attestation|tampered-block]\n");
  return 2;
}

std::string provenance(const std::string& workload, const RunOptions& o) {
  Json j;
  j.str("workload", workload)
      .integer("seed", static_cast<std::int64_t>(o.seed))
      .integer("seconds", o.seconds)
      .boolean("trace", o.trace)
      .integer("hardware_threads", std::thread::hardware_concurrency())
      .integer("pool_threads", zl::num_threads())
      .str("zl_threads_env", std::getenv("ZL_THREADS") ? std::getenv("ZL_THREADS") : "")
      .str("build_type", PERFBENCH_BUILD_TYPE)
#if defined(ZL_NATIVE)
      .boolean("zl_native", true)
#else
      .boolean("zl_native", false)
#endif
      .boolean("zl_obs", ZL_OBS_ENABLED != 0)
#if defined(__clang__)
      .str("compiler", std::string("clang ") + __clang_version__);
#else
      .str("compiler", std::string("gcc ") + __VERSION__);
#endif
  return j.dump();
}

std::string metrics_json(const std::map<std::string, Result::Metric>& metrics, bool samples) {
  Json j;
  for (const auto& [name, m] : metrics) {
    Json entry;
    entry.num("value", m.value).str("unit", m.unit);
    if (samples) entry.integer("samples", static_cast<std::int64_t>(m.samples));
    j.raw(name, entry.dump());
  }
  return j.dump();
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  RunOptions options;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) return "";
      return argv[++i];
    };
    if (arg == "--workload") {
      workload = value();
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value().c_str(), nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      options.seconds = static_cast<unsigned>(std::strtoul(value().c_str(), nullptr, 10));
      have_seconds = options.seconds > 0;
    } else if (arg == "--trace") {
      const std::string v = value();
      options.trace = v == "1";
      have_trace = v == "0" || v == "1";
    } else if (arg == "--workdir") {
      options.workdir = value();
    } else if (arg == "--small") {
      options.small = true;
    } else if (arg == "--plant") {
      const std::string v = value();
      if (v == "bad-attestation") {
        options.plant_bad_attestation = true;
      } else if (v == "tampered-block") {
        options.plant_tampered_block = true;
      } else {
        return usage("unknown fault to plant");
      }
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (workload != "lifecycle" && workload != "classic-flood") return usage("unknown workload");
  if (!have_seed || !have_seconds || !have_trace || options.workdir.empty()) {
    return usage("--seed, --seconds, --trace and --workdir are required");
  }

  try {
    std::filesystem::create_directories(options.workdir);
    if (options.trace) {
      options.trace_cost = calibrate_trace_cost();
      Trace::enable(true);
    }
    const double t0 = now_s();
    Result result = workload == "lifecycle" ? run_lifecycle(options) : run_classic_flood(options);
    // Every protocol operation the workload issued must succeed; only the
    // self-test's planted ones are expected to be refused.
    for (const auto& [kind, o] : result.ops) {
      if (kind != "planted") result.gate.check(o.failed == 0, kind + ": every operation succeeded");
    }
    const double rss = peak_rss_mb();
    result.e2e("peak_rss_mb", rss, "MiB", 1);
    if (options.trace) {
      std::ofstream(options.workdir + "/trace-" + workload + "-" + std::to_string(options.seed) +
                    ".json")
          << Trace::chrome_json();
    }

    std::uint64_t attempted = 0, failed = 0;
    Json ops;
    for (const auto& [kind, o] : result.ops) {
      attempted += o.attempted;
      failed += o.failed;
      ops.raw(kind, Json()
                        .integer("attempted", static_cast<std::int64_t>(o.attempted))
                        .integer("failed", static_cast<std::int64_t>(o.failed))
                        .dump());
    }
    std::string failures = "[";
    for (std::size_t i = 0; i < result.gate.failures().size(); ++i) {
      failures += (i ? "," : "") + Json::quote(result.gate.failures()[i]);
    }
    failures += "]";

    const std::map<std::string, Result::Metric>& reported =
        options.trace ? result.per_layer : result.end_to_end;
    Json report;
    report.raw("provenance", provenance(workload, options))
        .raw("operations", ops.dump())
        .integer("checks", static_cast<std::int64_t>(result.gate.checks()))
        .raw("check_failures", failures)
        .num("load_wall_s", result.load_wall_s)
        .num("run_wall_s", now_s() - t0)
        .raw("details", result.details.dump())
        .raw("metrics", metrics_json(reported, true))
        .raw("other_metrics",
             metrics_json(options.trace ? result.end_to_end : result.per_layer, true));
    std::printf("%s\n", Json().raw("report", report.dump()).dump().c_str());

    Json line;
    line.boolean("correct", result.gate.ok())
        .integer("attempted", static_cast<std::int64_t>(attempted))
        .integer("failed", static_cast<std::int64_t>(failed))
        .raw("metrics", metrics_json(reported, false));
    std::printf("%s\n", line.dump().c_str());
    std::fflush(stdout);
    return result.gate.ok() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "zl_perfbench: %s\n", e.what());
    return 2;
  }
}
