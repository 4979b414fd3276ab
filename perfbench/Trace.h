//===- Trace.h - In-memory spans for the benchmark's traced run -*- C++ -*-===//
//
// Part of the PDL reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans recorded by the benchmark around its own calls into the library's
/// public functions: name, start, end, parent, and the id of the operation
/// they belong to. Spans stay in memory and are written out once, at the
/// end of the run. A layer's self time is its span's duration minus the
/// time its child spans cover; the root span of an operation is named
/// "unattributed" for self-time purposes, so for every operation the sum
/// of self times equals the operation's wall time exactly (integer ns).
///
//===----------------------------------------------------------------------===//

#ifndef PDLBENCH_TRACE_H
#define PDLBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace pdlbench {

inline int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
public:
  struct Span {
    std::string Name;
    uint64_t Op = 0;
    int64_t Parent = -1; // index into the same op's spans, -1 for the root
    int64_t StartNs = 0, EndNs = 0;
  };

  /// Per-layer totals over every recorded operation of one kind.
  struct LayerTotals {
    uint64_t Ops = 0;
    int64_t WallNs = 0;
    std::map<std::string, int64_t> SelfNs; // includes "unattributed"
    /// Operations whose spans do not nest (a child outside its parent, or
    /// overlapping siblings). Self times sum to the root's duration by
    /// construction; only nesting makes each of them a true share of it.
    uint64_t Inexact = 0;
  };

  /// One operation's spans, built on the calling thread and handed to the
  /// tracer when the operation ends (so concurrent clients never share a
  /// half-built tree).
  class Op {
  public:
    Op(std::string Kind, uint64_t Id) : Kind(std::move(Kind)), Id(Id) {
      open("unattributed");
    }
    /// Opens a child of the innermost open span.
    void open(const std::string &Name) {
      Span S;
      S.Name = Name;
      S.Op = Id;
      S.Parent = Stack.empty() ? -1 : int64_t(Stack.back());
      S.StartNs = nowNs();
      Spans.push_back(std::move(S));
      Stack.push_back(Spans.size() - 1);
    }
    void close() {
      Spans[Stack.back()].EndNs = nowNs();
      Stack.pop_back();
    }
    /// Runs \p F inside a span named \p Name.
    template <typename Fn> auto span(const std::string &Name, Fn &&F) {
      open(Name);
      struct Closer {
        Op &O;
        ~Closer() { O.close(); }
      } C{*this};
      return F();
    }
    int64_t wallNs() const { return Spans[0].EndNs - Spans[0].StartNs; }

  private:
    friend class Tracer;
    std::string Kind;
    uint64_t Id;
    std::vector<Span> Spans;
    std::vector<size_t> Stack;
  };

  /// Closes the root span of \p O, keeps its spans (\p O is left empty)
  /// and returns its wall time in ns.
  int64_t finish(Op &O) {
    while (!O.Stack.empty())
      O.close();
    const int64_t Wall = O.wallNs();
    std::lock_guard<std::mutex> G(M);
    Ops.push_back(std::move(O));
    return Wall;
  }

  /// Self-time totals for the operations of kind \p Kind.
  LayerTotals totals(const std::string &Kind) const;

  /// Writes every span as one JSON line ({"op","kind","name","parent",
  /// "start_ns","end_ns"}); returns false on I/O failure.
  bool write(const std::string &Path) const;

private:
  mutable std::mutex M;
  std::vector<Op> Ops;
};

inline Tracer::LayerTotals Tracer::totals(const std::string &Kind) const {
  std::lock_guard<std::mutex> G(M);
  LayerTotals T;
  for (const Op &O : Ops) {
    if (O.Kind != Kind)
      continue;
    std::vector<int64_t> Self(O.Spans.size());
    for (size_t I = 0; I != O.Spans.size(); ++I)
      Self[I] = O.Spans[I].EndNs - O.Spans[I].StartNs;
    for (size_t I = 1; I != O.Spans.size(); ++I)
      Self[size_t(O.Spans[I].Parent)] -= O.Spans[I].EndNs - O.Spans[I].StartNs;
    // Self times partition the root's wall time only when every child lies
    // inside its parent and siblings do not overlap; then none is negative.
    bool Nested = true;
    for (size_t I = 1; I != O.Spans.size(); ++I) {
      const Span &C = O.Spans[I], &P = O.Spans[size_t(C.Parent)];
      Nested &= C.StartNs >= P.StartNs && C.EndNs <= P.EndNs;
    }
    for (size_t I = 0; I != O.Spans.size(); ++I) {
      T.SelfNs[O.Spans[I].Name] += Self[I];
      Nested &= Self[I] >= 0;
    }
    if (!Nested)
      ++T.Inexact;
    ++T.Ops;
    T.WallNs += O.wallNs();
  }
  return T;
}

inline bool Tracer::write(const std::string &Path) const {
  std::lock_guard<std::mutex> G(M);
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  for (const Op &O : Ops)
    for (const Span &S : O.Spans)
      std::fprintf(F,
                   "{\"op\":%llu,\"kind\":\"%s\",\"name\":\"%s\","
                   "\"parent\":%lld,\"start_ns\":%lld,\"end_ns\":%lld}\n",
                   (unsigned long long)S.Op, O.Kind.c_str(), S.Name.c_str(),
                   (long long)S.Parent, (long long)S.StartNs,
                   (long long)S.EndNs);
  return std::fclose(F) == 0;
}

} // namespace pdlbench

#endif // PDLBENCH_TRACE_H
