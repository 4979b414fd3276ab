//===- Bench.h - Shared pieces of the repository benchmark -----*- C++ -*-===//
//
// Part of the PDL reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#ifndef PDLBENCH_BENCH_H
#define PDLBENCH_BENCH_H

#include "Trace.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pdlbench {

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string Root = ".";     // checkout root (cores_pdl/ lives here)
  std::string TraceOut;       // spans file written by the traced run
  bool KnownBadOnly = false;  // fuzz-service self-test: the known-bad list
  /// A short traced sample of this workload, taken inside another
  /// workload's traced run so that every per-layer metric is measured.
  bool Sample = false;
};

/// What one workload run measured. Metrics not measured stay absent.
struct Result {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// False when the benchmark saw something it cannot account for as a
  /// counted operation failure (a missing or malformed answer, a broken
  /// trace invariant).
  bool Consistent = true;
  std::string Inconsistency;
  std::map<std::string, double> Metrics;
  /// Human-readable lines printed before the result (labels, accuracy).
  std::vector<std::string> Notes;

  void inconsistent(const std::string &Why) {
    if (Consistent)
      Inconsistency = Why;
    Consistent = false;
  }
};

/// Linear-interpolated quantile (0 <= Q <= 1) of \p V; 0 when empty.
inline double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * double(V.size() - 1);
  size_t Lo = size_t(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - double(Lo));
}
inline double median(std::vector<double> V) { return quantile(std::move(V), 0.5); }

inline double secondsSince(int64_t StartNs) {
  return double(nowNs() - StartNs) / 1e9;
}

/// Whether to run set-up repetition \p Rep, the first having started at
/// \p StartNs. setup_s is the median of the repetitions: at least 5, and
/// more until 2 s have gone by, since the host's speed shifts within tens
/// of milliseconds and a set-up of a few milliseconds would otherwise sit
/// in one such phase.
inline bool moreSetup(unsigned Rep, int64_t StartNs) {
  return Rep < 5 || (Rep < 1000 && secondsSince(StartNs) < 2.0);
}

/// Deterministic 64-bit mixer (splitmix64) for deriving input seeds.
inline uint64_t mix64(uint64_t X) {
  X += 0x9e3779b97f4a7c15ull;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

/// Seeded Fisher-Yates shuffle.
template <typename T> void shuffle(std::vector<T> &V, uint64_t &State) {
  for (size_t I = V.size(); I > 1; --I) {
    State = mix64(State);
    std::swap(V[I - 1], V[State % I]);
  }
}

/// Empties the native tier's on-disk artifact store when it lies in this
/// run's own TMPDIR (run.py gives every run a fresh one), so each set-up
/// repetition pays the default tier's cold work, not only the first.
void clearNativeStore();

/// Counts \p T's inexact operations in trace.inexact_ops; any makes the
/// run inconsistent.
void countInexact(Result &R, const Tracer::LayerTotals &T);

/// Adds the traced run's per-layer self times (mean microseconds per
/// operation, "<layer>_us") and the trace bookkeeping metrics.
void addLayerMetrics(Result &R, const Tracer::LayerTotals &T,
                     const std::map<std::string, std::string> &LayerToMetric);

Result runTable3(const Options &O);
Result runFuzzService(const Options &O);
Result runColdCompile(const Options &O);

} // namespace pdlbench

#endif // PDLBENCH_BENCH_H
