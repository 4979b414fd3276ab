//===- ColdCompile.cpp - Workload "cold-compile": compile and certify ------===//
//
// Part of the PDL reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// The five cores_pdl sources, round-robin in a seeded order per round,
/// each compiled from text on one thread: compile() (parse, type check,
/// stage graphs, lock and speculation checks on the SMT solver),
/// bc::compileModule, backend::System elaboration, then
/// tv::validateModule. Simulation does none of the work; this is the
/// designer's edit loop and the service's cold start. Every operation must
/// compile cleanly, certify strictly, and reproduce its design's
/// certificate digest.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "backend/Compile.h"
#include "backend/System.h"
#include "passes/Compiler.h"
#include "passes/PathCondition.h"
#include "passes/TypeChecker.h"
#include "pdl/Parser.h"
#include "tv/Tv.h"

#include <fstream>
#include <sstream>

using namespace pdl;

namespace pdlbench {
namespace {

const char *const Designs[] = {"cache", "rv32i_3stage", "rv32i_5stage",
                               "rv32i_5stage_bht", "rv32im"};

struct Design {
  std::string Name, Text;
  uint64_t CertDigest = 0;
};

struct Outcome {
  bool Ok = false;
  std::string Why;
  uint64_t Digest = 0;
  unsigned Queries = 0, Decisions = 0;
  unsigned Paths = 0, Syntactic = 0, Solver = 0, TvQueries = 0;
  int64_t CompileNs = 0, CertifyNs = 0;
};

Outcome finishOp(const CompiledProgram &CP, const tv::Certificate &Cert) {
  Outcome Out;
  Out.Digest = Cert.digest();
  Out.Queries = CP.SolverQueries;
  Out.Decisions = CP.SolverDecisions;
  Out.TvQueries = Cert.SolverQueries;
  for (const tv::ProgramCert &P : Cert.Programs) {
    Out.Paths += P.Paths;
    Out.Syntactic += P.Syntactic;
    Out.Solver += P.Solver;
  }
  if (!CP.ok())
    Out.Why = "does not compile";
  else if (Cert.St != tv::Status::Certified)
    Out.Why = std::string("certificate is ") + tv::statusName(Cert.St);
  Out.Ok = Out.Why.empty();
  return Out;
}

/// One untraced operation, through the public entry points.
Outcome compileAndCertify(const Design &D) {
  int64_t T0 = nowNs();
  CompiledProgram CP = compile(D.Text, D.Name);
  if (!CP.ok()) {
    Outcome Out;
    Out.Why = "does not compile";
    return Out;
  }
  std::shared_ptr<const backend::bc::ModuleIR> IR =
      backend::bc::compileModule(CP);
  backend::ElabConfig Cfg;
  Cfg.CompiledIR = IR;
  { backend::System Sys(CP, Cfg); }
  int64_t T1 = nowNs();
  tv::Certificate Cert = tv::validateModule(CP, *IR, D.Name);
  int64_t T2 = nowNs();
  Outcome Out = finishOp(CP, Cert);
  Out.CompileNs = T1 - T0;
  Out.CertifyNs = T2 - T1;
  return Out;
}

/// The same operation with compile() replayed pass by pass, exactly as
/// pdl::compile in passes/Compiler.cpp sequences it, a span around each
/// layer. Like the untraced operation, the recorded operation ends when
/// validation returns; \p WallNs receives its wall time.
Outcome compileAndCertifyTraced(const Design &D, Tracer &Tr, uint64_t OpId,
                                int64_t &WallNs) {
  Tracer::Op Op("cold-compile", OpId);
  CompiledProgram CP;
  CP.SM = std::make_unique<SourceMgr>();
  CP.SM->setBuffer(D.Text, D.Name);
  CP.Diags = std::make_unique<DiagnosticEngine>(*CP.SM);
  CP.AST = Op.span("pdl.parse", [&] {
    return std::make_unique<ast::Program>(Parser::parse(*CP.SM, *CP.Diags));
  });
  bool Typed = !CP.Diags->hasErrors() && Op.span("passes.typecheck", [&] {
    return TypeChecker(*CP.AST, *CP.Diags).check();
  });
  if (!Typed) {
    Outcome Out;
    Out.Why = "does not compile";
    return Out;
  }
  smt::FormulaContext Ctx;
  smt::Solver Solver(Ctx);
  ConditionAbstractor Abs(Ctx);
  for (const ast::PipeDecl &Pipe : CP.AST->Pipes) {
    CompiledPipe P;
    P.Decl = &Pipe;
    P.Graph = Op.span("passes.stage_graph",
                      [&] { return buildStageGraph(Pipe, *CP.Diags); });
    P.Locks = Op.span("passes.lock_check", [&] {
      return checkLocks(Pipe, P.Graph, Abs, Solver, *CP.Diags);
    });
    P.Spec = Op.span("passes.spec_check", [&] {
      return checkSpeculation(Pipe, P.Graph, P.Locks, Abs, Solver, *CP.Diags);
    });
    CP.Pipes.emplace(Pipe.Name, std::move(P));
  }
  CP.SolverQueries = Solver.queryCount();
  CP.SolverDecisions = Solver.decisionCount();
  if (!CP.ok()) {
    Outcome Out;
    Out.Why = "does not compile";
    return Out;
  }
  std::shared_ptr<const backend::bc::ModuleIR> IR = Op.span(
      "backend.bc_compile", [&] { return backend::bc::compileModule(CP); });
  Op.span("backend.elaborate", [&] {
    backend::ElabConfig Cfg;
    Cfg.CompiledIR = IR;
    backend::System Sys(CP, Cfg);
  });
  tv::Certificate Cert = Op.span("tv.validate." + D.Name, [&] {
    return tv::validateModule(CP, *IR, D.Name);
  });
  WallNs = Tr.finish(Op);
  return finishOp(CP, Cert);
}

} // namespace

Result runColdCompile(const Options &O) {
  Result Res;

  // Inputs: the source texts, read once.
  std::vector<Design> Ds;
  for (const char *Name : Designs) {
    std::ifstream In(O.Root + "/cores_pdl/" + Name + ".pdl");
    std::ostringstream SS;
    SS << In.rdbuf();
    if (!In || SS.str().empty()) {
      Res.inconsistent(std::string("cannot read cores_pdl/") + Name + ".pdl");
      return Res;
    }
    Ds.push_back({Name, SS.str()});
  }

  // Set-up: the cold start, one compile-and-certify of every design. The
  // first repetition also records each design's certificate digest, which
  // every later operation must reproduce.
  std::vector<double> SetupS;
  const int64_t SetupStart = nowNs();
  for (unsigned Rep = 0; moreSetup(Rep, SetupStart); ++Rep) {
    clearNativeStore();
    int64_t T0 = nowNs();
    for (Design &D : Ds) {
      Outcome Out = compileAndCertify(D);
      if (!Out.Ok) {
        Res.inconsistent("set-up of " + D.Name + ": " + Out.Why);
        return Res;
      }
      if (Rep == 0)
        D.CertDigest = Out.Digest;
    }
    SetupS.push_back(secondsSince(T0));
  }
  Res.Metrics["setup_s"] = median(SetupS);

  uint64_t Order = mix64(O.Seed);
  std::vector<size_t> Idx(Ds.size());
  for (size_t I = 0; I != Idx.size(); ++I)
    Idx[I] = I;
  auto Check = [&](const Design &D, const Outcome &Out) {
    ++Res.Attempted;
    std::string Why = Out.Why;
    if (Why.empty() && Out.Digest != D.CertDigest)
      Why = "certificate digest changed";
    if (!Why.empty()) {
      ++Res.Failed;
      Res.Notes.push_back("failed: " + D.Name + ": " + Why);
    }
  };

  // The end-to-end figures are medians over windows of RoundsPerWindow
  // rounds, so a few seconds of host contention inside a run do not move
  // them.
  constexpr size_t RoundsPerWindow = 20;
  std::vector<double> OpMs, CompileMs, CertifyMs, WinRate, WinP50, WinP90;
  auto CloseWindow = [&](size_t Ops, int64_t Since) {
    std::vector<double> Win(OpMs.end() - Ops, OpMs.end());
    WinRate.push_back(double(Ops) * 1e9 / double(nowNs() - Since));
    WinP50.push_back(quantile(Win, 0.5));
    WinP90.push_back(quantile(Win, 0.9));
  };
  Tracer Tr;
  uint64_t OpId = 0;
  int64_t PlainNs = 0, TracedNs = 0;
  uint64_t RoundQueries = 0, RoundDecisions = 0, RoundPaths = 0,
           RoundSyntactic = 0, RoundSolver = 0, RoundTvQueries = 0;
  size_t Rounds = 0;
  int64_t Start = nowNs(), WinStart = Start;
  do {
    shuffle(Idx, Order);
    for (size_t I : Idx) {
      const Design &D = Ds[I];
      Outcome Out = compileAndCertify(D);
      PlainNs += Out.CompileNs + Out.CertifyNs;
      Check(D, Out);
      OpMs.push_back(double(Out.CompileNs + Out.CertifyNs) / 1e6);
      CompileMs.push_back(double(Out.CompileNs) / 1e6);
      CertifyMs.push_back(double(Out.CertifyNs) / 1e6);
      if (Rounds == 0) {
        RoundQueries += Out.Queries;
        RoundDecisions += Out.Decisions;
        RoundPaths += Out.Paths;
        RoundSyntactic += Out.Syntactic;
        RoundSolver += Out.Solver;
        RoundTvQueries += Out.TvQueries;
      }
      if (!O.Trace)
        continue;
      // Traced run: each plain operation is followed by the same design
      // compiled through the spanned pass-by-pass replay.
      int64_t WallNs = 0;
      Outcome TOut = compileAndCertifyTraced(D, Tr, ++OpId, WallNs);
      TracedNs += WallNs;
      Check(D, TOut);
      // Decision counts are not compared: compile() itself varies them from
      // call to call (the solver's branching order follows allocation
      // addresses), so only the query count is a fixed property.
      if (TOut.Queries != Out.Queries)
        Res.inconsistent("the pass-by-pass replay of " + D.Name +
                         " made other solver queries than compile()");
    }
    if (++Rounds % RoundsPerWindow == 0) {
      CloseWindow(RoundsPerWindow * Ds.size(), WinStart);
      WinStart = nowNs();
    }
  } while (!O.Sample && secondsSince(Start) < O.Seconds);

  if (!O.Trace) {
    if (WinRate.empty()) // shorter than one window: the run is the window
      CloseWindow(OpMs.size(), Start);
    Res.Metrics["throughput_per_s"] = median(WinRate);
    Res.Metrics["op_ms_p50"] = median(WinP50);
    Res.Metrics["op_ms_p90"] = median(WinP90);
    return Res;
  }

  if (!O.TraceOut.empty() && !Tr.write(O.TraceOut))
    Res.inconsistent("cannot write " + O.TraceOut);
  Tracer::LayerTotals T = Tr.totals("cold-compile");
  std::map<std::string, std::string> Layers = {
      {"pdl.parse", "pdl.parse_us"},
      {"passes.typecheck", "passes.typecheck_us"},
      {"passes.stage_graph", "passes.stage_graph_us"},
      {"passes.lock_check", "passes.lock_check_us"},
      {"passes.spec_check", "passes.spec_check_us"},
      {"backend.bc_compile", "backend.bc_compile_us"},
      {"backend.elaborate", "backend.elaborate_us"}};
  addLayerMetrics(Res, T, Layers);
  // Validation time per design: mean per operation of that design.
  const double OpsPerDesign = double(T.Ops) / double(Ds.size());
  for (const Design &D : Ds)
    Res.Metrics["tv.validate_us." + D.Name] =
        double(T.SelfNs["tv.validate." + D.Name]) / 1e3 / OpsPerDesign;
  Res.Metrics["cold.compile_ms_p50"] = quantile(CompileMs, 0.5);
  Res.Metrics["cold.compile_ms_p90"] = quantile(CompileMs, 0.9);
  Res.Metrics["cold.certify_ms_p50"] = quantile(CertifyMs, 0.5);
  Res.Metrics["cold.certify_ms_p90"] = quantile(CertifyMs, 0.9);
  Res.Metrics["trace.overhead_pct"] =
      100.0 * double(TracedNs - PlainNs) / double(PlainNs);
  Res.Metrics["smt.queries"] = double(RoundQueries);
  Res.Metrics["smt.decisions"] = double(RoundDecisions);
  Res.Metrics["tv.paths"] = double(RoundPaths);
  Res.Metrics["tv.obligations_syntactic"] = double(RoundSyntactic);
  Res.Metrics["tv.obligations_solver"] = double(RoundSolver);
  Res.Metrics["tv.smt_queries"] = double(RoundTvQueries);
  return Res;
}

} // namespace pdlbench
