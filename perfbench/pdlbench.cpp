//===- pdlbench.cpp - The repository benchmark's measuring program ---------===//
//
// Part of the PDL reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// pdlbench --workload table3|fuzz-service|cold-compile --seed N
///          --seconds S --trace 0|1 [--root DIR] [--trace-out FILE]
///          [--known-bad]
///
/// Runs one workload in this process and prints, as the last line of
/// standard output, one JSON object {"correct","attempted","failed",
/// "metrics"}: the end-to-end metrics when untraced, the per-layer metrics
/// when traced. Every metric name of the selected set is printed; a traced
/// run also samples the other workloads, so that layers its own workload
/// never calls are measured too. Labels describing the build and the
/// evaluator are printed before it, one "# " line each. perfbench/run.py
/// builds this program, makes each run hermetic and checks the printed
/// names against BENCHMARK.json; see perfbench/README.md.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "backend/Fuse.h"
#include "backend/NativeCache.h"
#include "cores/Core.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <span>
#include <sys/resource.h>
#include <thread>

using namespace pdlbench;

namespace {

struct MetricDef {
  const char *Name;
  const char *Unit;
};

const MetricDef EndToEnd[] = {
    {"throughput_per_s", "1/s"}, {"op_ms_p50", "ms"}, {"op_ms_p90", "ms"},
    {"setup_s", "s"},            {"peak_rss_mb", "MB"},
};

const MetricDef PerLayer[] = {
    // table3
    {"backend.run_ns_per_cycle.5stage", "ns"},
    {"backend.run_ns_per_cycle.3stage", "ns"},
    {"backend.run_ns_per_cycle.bht", "ns"},
    {"backend.run_ns_per_cycle.rv32im", "ns"},
    {"backend.run_ns_per_probe", "ns"},
    {"backend.sim_cycles", "count"},
    {"backend.stage_fires", "count"},
    {"backend.probe_attempts", "count"},
    {"backend.fire_ratio", "ratio"},
    {"hw.stall_lock", "count"},
    {"hw.stall_spec", "count"},
    {"backend.stall_response", "count"},
    {"backend.stall_backpressure", "count"},
    {"backend.squashed", "count"},
    {"obs.sink_overhead_pct", "%"},
    {"hw.lock_reserves", "count"},
    {"hw.lock_rollbacks", "count"},
    {"hw.spec_mispredicts", "count"},
    // table3 and fuzz-service
    {"cores.core_new_us", "us"},
    {"backend.run_us", "us"},
    // fuzz-service
    {"service.handle_line_us", "us"},
    {"service.handle_line_self_us", "us"},
    {"service.wait_us", "us"},
    {"service.hit_ms_p50", "ms"},
    {"service.miss_ms_p50", "ms"},
    {"service.request_ms_p99", "ms"},
    {"service.cache_hit_ratio", "ratio"},
    {"sim.request_parse_us", "us"},
    {"sim.run_sim_us", "us"},
    {"obs.result_json_us", "us"},
    {"sim.replay_unattributed_us", "us"},
    {"riscv.assemble_us", "us"},
    {"riscv.golden_us", "us"},
    {"verify.monitors_us", "us"},
    {"verify.unattributed_us", "us"},
    {"mem.hits", "count"},
    {"mem.misses", "count"},
    {"mem.mem_stalls", "count"},
    // cold-compile
    {"pdl.parse_us", "us"},
    {"passes.typecheck_us", "us"},
    {"passes.stage_graph_us", "us"},
    {"passes.lock_check_us", "us"},
    {"passes.spec_check_us", "us"},
    {"smt.queries", "count"},
    {"smt.decisions", "count"},
    {"backend.bc_compile_us", "us"},
    {"backend.elaborate_us", "us"},
    {"cold.compile_ms_p50", "ms"},
    {"cold.compile_ms_p90", "ms"},
    {"cold.certify_ms_p50", "ms"},
    {"cold.certify_ms_p90", "ms"},
    {"tv.validate_us.cache", "us"},
    {"tv.validate_us.rv32i_3stage", "us"},
    {"tv.validate_us.rv32i_5stage", "us"},
    {"tv.validate_us.rv32i_5stage_bht", "us"},
    {"tv.validate_us.rv32im", "us"},
    {"tv.paths", "count"},
    {"tv.obligations_syntactic", "count"},
    {"tv.obligations_solver", "count"},
    {"tv.smt_queries", "count"},
    // set-up (table3 and fuzz-service)
    {"cores.first_circuit_ms.5stage", "ms"},
    {"cores.first_circuit_ms.nobypass", "ms"},
    {"cores.first_circuit_ms.3stage", "ms"},
    {"cores.first_circuit_ms.bht", "ms"},
    {"cores.first_circuit_ms.rv32im", "ms"},
    {"cores.first_circuit_ms.rename", "ms"},
    // every workload
    {"bench.failed_ratio", "ratio"},
    {"trace.ops", "count"},
    {"trace.inexact_ops", "count"},
    {"trace.op_wall_us", "us"},
    {"trace.unattributed_us", "us"},
    {"trace.overhead_pct", "%"},
};

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "pdlbench: %s\nusage: pdlbench --workload "
               "table3|fuzz-service|cold-compile --seed N --seconds S "
               "--trace 0|1 [--root DIR] [--trace-out FILE] [--known-bad]\n",
               Why);
  std::exit(2);
}

uint64_t parseU64(const char *S, const char *Flag) {
  char *End = nullptr;
  errno = 0;
  unsigned long long V = std::strtoull(S, &End, 10);
  if (errno || End == S || *End)
    usage((std::string("bad value for ") + Flag).c_str());
  return V;
}

/// This process image's peak resident set: VmHWM, which starts afresh at
/// exec (getrusage's maxrss would also count the parent that forked us).
double peakRssMb() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0; // kB
  struct rusage RU;
  getrusage(RUSAGE_SELF, &RU);
  return double(RU.ru_maxrss) / 1024.0;
}

const char *tierName(pdl::cores::EvalTier T) {
  switch (T) {
  case pdl::cores::EvalTier::Bytecode:
    return "bytecode";
  case pdl::cores::EvalTier::Fused:
    return "fused";
  case pdl::cores::EvalTier::Native:
    return "native";
  }
  return "?";
}

} // namespace

void pdlbench::addLayerMetrics(
    Result &R, const Tracer::LayerTotals &T,
    const std::map<std::string, std::string> &LayerToMetric) {
  const double Ops = T.Ops ? double(T.Ops) : 1.0;
  for (const auto &[Layer, Metric] : LayerToMetric) {
    auto It = T.SelfNs.find(Layer);
    R.Metrics[Metric] = It == T.SelfNs.end() ? 0 : double(It->second) / 1e3 / Ops;
  }
  auto Un = T.SelfNs.find("unattributed");
  R.Metrics["trace.unattributed_us"] =
      Un == T.SelfNs.end() ? 0 : double(Un->second) / 1e3 / Ops;
  R.Metrics["trace.op_wall_us"] = double(T.WallNs) / 1e3 / Ops;
  R.Metrics["trace.ops"] += double(T.Ops);
  countInexact(R, T);
}

void pdlbench::countInexact(Result &R, const Tracer::LayerTotals &T) {
  R.Metrics["trace.inexact_ops"] += double(T.Inexact);
  if (T.Inexact)
    R.inconsistent("a traced operation's spans do not nest, so its layer "
                   "self times do not add up to its wall time");
}

void pdlbench::clearNativeStore() {
  std::error_code Ignored; // best effort, like the store itself
  if (std::getenv("TMPDIR") && !std::getenv("PDL_NATIVE_CACHE_DIR"))
    std::filesystem::remove_all(pdl::backend::native::cacheDir(), Ignored);
}

int main(int argc, char **argv) {
  Options O;
  bool HaveSeed = false, HaveSeconds = false, HaveTrace = false;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    auto Next = [&]() -> const char * {
      if (I + 1 >= argc)
        usage(("missing value for " + A).c_str());
      return argv[++I];
    };
    if (A == "--workload")
      O.Workload = Next();
    else if (A == "--seed")
      O.Seed = parseU64(Next(), "--seed"), HaveSeed = true;
    else if (A == "--seconds")
      O.Seconds = double(parseU64(Next(), "--seconds")), HaveSeconds = true;
    else if (A == "--trace")
      O.Trace = parseU64(Next(), "--trace") != 0, HaveTrace = true;
    else if (A == "--root")
      O.Root = Next();
    else if (A == "--trace-out")
      O.TraceOut = Next();
    else if (A == "--known-bad")
      O.KnownBadOnly = true;
    else
      usage(("unknown argument " + A).c_str());
  }
  if (!HaveSeed || !HaveSeconds || !HaveTrace || O.Workload.empty())
    usage("--workload, --seed, --seconds and --trace are required");
  if (O.Seconds < 1)
    usage("--seconds must be at least 1");

  const std::pair<const char *, Result (*)(const Options &)> Workloads[] = {
      {"table3", runTable3},
      {"fuzz-service", runFuzzService},
      {"cold-compile", runColdCompile}};
  Result R;
  bool Known = false;
  for (const auto &[Name, Run] : Workloads)
    if (O.Workload == Name) {
      R = Run(O);
      Known = true;
    }
  if (!Known)
    usage(("unknown workload " + O.Workload).c_str());

  // Every per-layer metric is printed on every workload, and a time that
  // reads the same on every run (a constant 0) is refused as unmeasured,
  // so a traced run also takes a short traced sample of the other
  // workloads and fills in the layers its own workload never calls.
  // Sample operations are checked; a failed one is listed among the
  // labels, while attempted and failed keep counting the workload's own
  // operations.
  if (O.Trace)
    for (const auto &[Name, Run] : Workloads) {
      if (O.Workload == Name)
        continue;
      Options SO = O;
      SO.Workload = Name;
      SO.TraceOut.clear();
      SO.KnownBadOnly = false;
      SO.Sample = true;
      Result S = Run(SO);
      for (const auto &[Metric, V] : S.Metrics)
        R.Metrics.emplace(Metric, V); // the workload's own value wins
      for (const std::string &N : S.Notes)
        R.Notes.push_back(std::string("sample ") + Name + ": " + N);
      if (!S.Consistent)
        R.inconsistent(std::string("sample ") + Name + ": " + S.Inconsistency);
    }

  R.Metrics["peak_rss_mb"] = peakRssMb();
  R.Metrics["bench.failed_ratio"] =
      R.Attempted ? double(R.Failed) / double(R.Attempted) : 0;

  // Every measured name must be one the result can print, and every value
  // a finite number.
  for (const auto &[Name, V] : R.Metrics) {
    bool Known = false;
    for (const MetricDef &M : EndToEnd)
      Known |= Name == M.Name;
    for (const MetricDef &M : PerLayer)
      Known |= Name == M.Name;
    if (!Known)
      R.inconsistent("measured an unlisted metric " + Name);
    if (!std::isfinite(V))
      R.inconsistent("metric " + Name + " is not a finite number");
  }

  // Labels: what was measured, so two runs can be compared knowingly.
  std::printf("# workload=%s seed=%llu seconds=%g trace=%d\n",
              O.Workload.c_str(), (unsigned long long)O.Seed, O.Seconds,
              O.Trace ? 1 : 0);
  std::printf("# dispatch=%s tier=%s native_compiler=\"%s\"\n",
              pdl::backend::bc::dispatchModeName(),
              tierName(pdl::cores::ambientEvalTier()),
              pdl::backend::native::compilerIdentity().c_str());
  std::printf("# build_type=%s compiler=\"%s\" nproc=%u\n", PDLBENCH_BUILD_TYPE,
              __VERSION__, std::thread::hardware_concurrency());
  for (const std::string &N : R.Notes)
    std::printf("# %s\n", N.c_str());
  if (!R.Consistent)
    std::printf("# inconsistent: %s\n", R.Inconsistency.c_str());

  if (R.Attempted == 0) {
    std::fprintf(stderr, "pdlbench: no operation was attempted\n");
    return 1;
  }
  std::string Out = "{\"correct\": ";
  Out += R.Consistent ? "true" : "false";
  Out += ", \"attempted\": " + std::to_string(R.Attempted);
  Out += ", \"failed\": " + std::to_string(R.Failed);
  Out += ", \"metrics\": {";
  bool First = true;
  using Defs = std::span<const MetricDef>;
  for (const MetricDef &M : O.Trace ? Defs(PerLayer) : Defs(EndToEnd)) {
    auto It = R.Metrics.find(M.Name);
    double V = It == R.Metrics.end() || !std::isfinite(It->second) ? 0
                                                                    : It->second;
    char Buf[64];
    std::snprintf(Buf, sizeof Buf, "%.17g", V);
    Out += First ? "" : ", ";
    First = false;
    Out += std::string("\"") + M.Name + "\": {\"value\": " + Buf +
           ", \"unit\": \"" + M.Unit + "\"}";
  }
  Out += "}}";
  std::printf("%s\n", Out.c_str());
  return R.Consistent ? 0 : 1;
}
