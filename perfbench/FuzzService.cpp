//===- FuzzService.cpp - Workload "fuzz-service": request latency ---------===//
//
// Part of the PDL reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// The traffic of pdlsim and pdlfuzz: a seeded list of generated RISC-V
/// programs over all six core kinds x three memory profiles, sent as
/// protocol `sim` lines to an in-process SimService with two workers by
/// two closed-loop clients (each keeps two lines in flight and sends its
/// next line only when an answer arrived). Every fourth line of a client
/// re-sends a request that client already has an answer for: a
/// deterministic cache hit. A request simulates a few hundred cycles, so
/// per-request overhead (Core construction, the golden ISS, monitors,
/// cache models, JSON, the queue and the result cache) dominates, not the
/// executor's steady state.
///
/// The list has a fixed size per (seed, seconds), not a time limit, so the
/// set of failing requests repeats exactly between runs of one seed.
/// Nothing is filtered: generated programs the cores get wrong count as
/// failed operations.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "cores/Core.h"
#include "obs/Json.h"
#include "obs/Sinks.h"
#include "riscv/Assembler.h"
#include "service/Protocol.h"
#include "service/Service.h"
#include "sim/SimRequest.h"
#include "verify/Monitors.h"
#include "verify/ProgGen.h"

#include <condition_variable>
#include <cstdio>
#include <deque>
#include <memory>
#include <thread>

using namespace pdl;

namespace pdlbench {
namespace {

constexpr unsigned Clients = 2;
constexpr unsigned Workers = 2;
/// Re-sends pick among the client's last ResendWindow fresh requests, and
/// the result cache holds CacheEntries, so a re-send always finds its
/// answer still cached and memory stays bounded however long the list.
constexpr size_t ResendWindow = 256;
constexpr size_t CacheEntries = 4096;
/// Requests a client keeps in flight. More than one keeps the workers
/// busy while a client checks an answer, so few requests pay for waking
/// an idle worker.
constexpr size_t InFlight = 2;
/// Cold answers kept per client for comparing cache hits: a re-send's
/// target is among the last ResendWindow answered fresh requests, and at
/// most InFlight more have been answered since.
constexpr size_t ColdRing = 2 * ResendWindow;
/// The end-to-end figures are medians over windows of this many
/// consecutive requests of one client, so a few seconds of host
/// contention inside a run do not move them.
constexpr size_t WindowLines = 500;
/// List length per second of --seconds. The list is fixed per (seed,
/// seconds) rather than cut by a clock, so a run takes about --seconds on
/// a 4-vCPU x86 host at this revision, longer on a slower host.
constexpr double RequestsPerSecond = 1800;

/// One fresh request: its protocol line (re-sends send the same line; the
/// service answers each client in order, so ids need not differ).
struct Fresh {
  std::string Line;
  size_t Index = 0;   // among the client's fresh requests
  bool L1 = false;    // an L1 memory profile (cache models on)
  std::string Label;  // "<kind>/<profile> seed <n>", for failure notes
};

struct Req {
  std::shared_ptr<const Fresh> F;
  bool Resend = false; // a request this client already has an answer for
};

std::shared_ptr<const Fresh> makeFresh(size_t Index, uint64_t ProgSeed,
                                       cores::CoreKind Kind,
                                       const cores::CoreMemProfile &Profile) {
  verify::GenConfig G;
  G.Seed = ProgSeed;
  sim::SimRequest R;
  R.Asm = verify::generateProgram(G);
  R.Seed = ProgSeed;
  R.Cfg.Kind = Kind;
  R.Cfg.Profile = Profile;
  auto F = std::make_shared<Fresh>();
  F->Line = service::encodeSimRequest(Index + 1, R);
  F->Index = Index;
  F->L1 = Profile.Name != "always-hit";
  F->Label = std::string(cores::coreKindId(Kind)) + "/" + Profile.Name +
             " seed " + std::to_string(ProgSeed);
  return F;
}

/// The list of one client. Fresh requests cycle through the 18
/// (kind, profile) combinations; every fourth line re-sends one of the
/// client's recent fresh requests, picked by the seed.
std::vector<Req> makeClientList(uint64_t Seed, unsigned Client, size_t N) {
  const auto &Kinds = cores::allCoreKinds();
  const auto &Profiles = cores::memProfileNames();
  std::vector<Req> L;
  std::vector<std::shared_ptr<const Fresh>> Made;
  std::vector<size_t> MadeAt; // list position of each fresh request
  uint64_t Pick = mix64(Seed * Clients + Client);
  size_t Answered = 0; // fresh requests answered before line J is sent
  for (size_t J = 0; J != N; ++J) {
    while (Answered != Made.size() && MadeAt[Answered] + InFlight <= J)
      ++Answered;
    if (J % 4 == 3) {
      Pick = mix64(Pick);
      const size_t Window = std::min(Answered, ResendWindow);
      L.push_back({Made[Answered - 1 - Pick % Window], true});
      continue;
    }
    size_t K = Made.size();
    size_t Combo = (K + Client * 9) % (Kinds.size() * Profiles.size());
    Made.push_back(makeFresh(
        K, 1000000 * (Seed + 1) + 500000 * Client + K,
        Kinds[Combo / Profiles.size()],
        *cores::parseMemProfile(Profiles[Combo % Profiles.size()])));
    MadeAt.push_back(J);
    L.push_back({Made.back(), false});
  }
  return L;
}

/// The self-test list: the known-bad request (the rename core under the
/// 4 KiB L1 deadlocks on generated program 19), sent twice. Both copies are
/// in flight at once, so the second is not a cache hit; each must fail.
std::vector<Req> makeKnownBadList() {
  auto F = makeFresh(0, 19, cores::CoreKind::Pdl5StageRename,
                     cores::memProfileL1_4K());
  return {{F, false}, {F, true}};
}

/// What one client observed.
struct ClientLog {
  std::vector<double> Ms, HitMs, MissMs, HandleUs;
  /// Per window of WindowLines consecutive requests: answered requests per
  /// second and the window's latency percentiles.
  std::vector<double> WinRate, WinP50, WinP90;
  uint64_t Attempted = 0, Failed = 0;
  uint64_t MemHits = 0, MemMisses = 0, MemStalls = 0;
  std::vector<std::string> Failures;
  std::string Inconsistency;
  int64_t SpannedNs = 0, PlainNs = 0;
};

/// The result payload of a sim response: everything after "result": up to
/// the closing brace of the response object (Protocol.h splices it in
/// verbatim, so equal payloads are equal bytes).
std::string payloadOf(const std::string &Line) {
  size_t P = Line.find("\"result\":");
  if (P == std::string::npos || Line.empty() || Line.back() != '}')
    return "";
  return Line.substr(P + 9, Line.size() - P - 10);
}

uint64_t u64(const obs::Json *V) { return V && V->isNumber() ? V->asU64() : 0; }

/// Checks one response; returns false (with \p Why) when the operation
/// failed. \p Cold holds the cold payloads of the client's recent fresh
/// requests, indexed modulo ColdRing.
bool checkResponse(const Req &Q, const std::string &Line,
                   std::vector<std::string> &Cold, ClientLog &Log,
                   bool &Cached, std::string &Why) {
  std::optional<obs::Json> V = obs::Json::parse(Line);
  const obs::Json *Ok = V ? V->get("ok") : nullptr;
  const obs::Json *CachedJ = V ? V->get("cached") : nullptr;
  const obs::Json *Res = V ? V->get("result") : nullptr;
  if (!Ok || !Ok->asBool() || !CachedJ || !Res) {
    Why = "not an ok sim response";
    return false;
  }
  Cached = CachedJ->asBool();
  std::string Payload = payloadOf(Line);
  if (!Q.Resend) {
    Cold[Q.F->Index % ColdRing] = Payload;
  } else if (Cached && Payload != Cold[Q.F->Index % ColdRing]) {
    Why = "cache hit differs from the cold answer";
    return false;
  }
  if (Q.F->L1)
    if (const obs::Json *Rep = Res->get("report"))
      if (const obs::Json *Pipes = Rep->get("pipes"))
        for (const obs::Json &P : Pipes->items())
          if (const obs::Json *Mems = P.get("mems"))
            for (const obs::Json &M : Mems->items()) {
              Log.MemHits += u64(M.get("hits"));
              Log.MemMisses += u64(M.get("misses"));
              Log.MemStalls += u64(M.get("mem_stalls"));
            }
  const obs::Json *Div = Res->get("divergent");
  const obs::Json *Viol = Res->get("violations");
  if (!Div || Div->asBool() || u64(Viol) != 0) {
    const obs::Json *Outcome = Res->get("outcome");
    Why = std::string("divergent or violated: outcome=") +
          (Outcome ? Outcome->asString() : "?");
    return false;
  }
  return true;
}

/// Drives one client's list through the service, closed loop. With
/// \p Tr set, every other segment of 72 lines is spanned: a segment holds
/// each (kind, profile) combination three times, so spanned and plain
/// requests carry the same mix.
void runClient(service::SimService &Svc, const std::vector<Req> &List,
               ClientLog &Log, Tracer *Tr, uint64_t OpBase) {
  std::mutex M;
  std::condition_variable Cv;
  std::deque<std::pair<std::string, int64_t>> Answers; // line, arrival
  uint64_t Id = Svc.openClient([&](const std::string &Line) {
    int64_t T = nowNs();
    std::lock_guard<std::mutex> G(M);
    Answers.emplace_back(Line, T);
    Cv.notify_one();
  });
  struct Sent {
    int64_t T0, T1;
    std::optional<Tracer::Op> Op;
  };
  std::deque<Sent> Pending; // answers come back in submission order
  std::vector<std::string> Cold(ColdRing);
  std::vector<double> WinMs;
  int64_t WinStart = nowNs();
  auto CloseWindow = [&] {
    Log.WinRate.push_back(double(WinMs.size()) * 1e9 /
                          double(nowNs() - WinStart));
    Log.WinP50.push_back(quantile(WinMs, 0.5));
    Log.WinP90.push_back(quantile(WinMs, 0.9));
    WinMs.clear();
    WinStart = nowNs();
  };
  size_t Next = 0;
  for (size_t J = 0; J != List.size(); ++J) {
    for (; Next != List.size() && Pending.size() != InFlight; ++Next) {
      Sent S;
      if (Tr && (Next / 72) % 2 == 1)
        S.Op.emplace("fuzz-service", OpBase + Next);
      S.T0 = nowNs();
      if (S.Op)
        S.Op->open("service.handle_line");
      Svc.handleLine(Id, List[Next].F->Line);
      S.T1 = nowNs();
      if (S.Op) {
        S.Op->close();
        S.Op->open("service.wait");
      }
      Pending.push_back(std::move(S));
    }
    std::string Line;
    int64_t T2;
    {
      std::unique_lock<std::mutex> G(M);
      Cv.wait(G, [&] { return !Answers.empty(); });
      Line = std::move(Answers.front().first);
      T2 = Answers.front().second;
      Answers.pop_front();
    }
    Sent S = std::move(Pending.front());
    Pending.pop_front();
    // Spanned and plain requests are both timed up to here (after the
    // client thread took the answer), so their difference is the spans'
    // own cost.
    if (S.Op) {
      S.Op->close();
      Log.SpannedNs += Tr->finish(*S.Op);
    } else {
      Log.PlainNs += nowNs() - S.T0;
    }

    const Req &Q = List[J];
    ++Log.Attempted;
    bool Cached = false;
    std::string Why;
    bool Passed = checkResponse(Q, Line, Cold, Log, Cached, Why);
    if (!Passed) {
      ++Log.Failed;
      Log.Failures.push_back(Q.F->Label + ": " + Why);
    }
    if (Q.Resend && !Cached && Why.empty())
      Log.Inconsistency = "a re-sent request missed the result cache";
    const double Ms = double(T2 - S.T0) / 1e6;
    Log.Ms.push_back(Ms);
    (Cached ? Log.HitMs : Log.MissMs).push_back(Ms);
    Log.HandleUs.push_back(double(S.T1 - S.T0) / 1e3);
    WinMs.push_back(Ms);
    // The last, partial window counts only when there is no full one.
    if (WinMs.size() == WindowLines ||
        (J + 1 == List.size() && Log.WinRate.empty()))
      CloseWindow();
  }
  Svc.closeClient(Id);
}

/// Replays one request's public calls outside the service, in two traced
/// operations: the exact partition of the worker's job (parse, runSim,
/// serialize) and an estimate of the split inside runSim. Returns false
/// (with \p Err) when the request does not parse.
bool replay(const Fresh &F, Tracer &Tr, uint64_t OpId, std::string &Err) {
  uint64_t Id = 0;
  std::optional<service::Request> Wire =
      service::parseRequestLine(F.Line, &Err, &Id);
  if (!Wire)
    return false;
  const sim::SimRequest &Q = Wire->Sim;
  const std::string ReqJson = Q.toJson();
  Tracer::Op Part("replay", OpId);
  std::optional<sim::SimRequest> Parsed = Part.span(
      "sim.request_parse", [&] { return sim::SimRequest::fromJson(ReqJson); });
  if (!Parsed) {
    Err = "the request's JSON form does not parse";
    return false;
  }
  sim::SimResult Res =
      Part.span("sim.run_sim", [&] { return sim::runSim(*Parsed); });
  std::string Out = Part.span("obs.result_json", [&] { return Res.toJson(); });
  Tr.finish(Part);

  Tracer::Op Split("split", OpId);
  std::vector<uint32_t> Words =
      Split.span("riscv.assemble", [&] { return riscv::assemble(Q.Asm); });
  obs::CounterSink Counters;
  verify::MonitorSink Monitors;
  std::unique_ptr<cores::Core> C = Split.span("cores.core_new", [&] {
    auto New = std::make_unique<cores::Core>(
        Q.Cfg.Kind, cores::PredictorKind::Bht2Bit, Q.Cfg.Profile);
    New->system().setDrainOnHalt(true);
    New->system().attachSink(Counters);
    New->system().attachSink(Monitors);
    New->loadProgram(Words);
    return New;
  });
  Split.span("backend.run", [&] { C->run(Q.Cfg.MaxCycles, false); });
  Split.span("riscv.golden", [&] {
    riscv::GoldenSim G(cores::ImemAddrBits, cores::DmemAddrBits);
    G.loadProgram(Words);
    G.setHaltStore(cores::HaltByteAddr);
    G.run(4 * Q.Cfg.MaxCycles + 64);
  });
  sim::SimRequest NoMon = Q;
  NoMon.Cfg.WithMonitors = false;
  Split.span("verify.run_sim_no_monitors", [&] { sim::runSim(NoMon); });
  Tr.finish(Split);
  return true;
}

} // namespace

Result runFuzzService(const Options &O) {
  Result Res;

  // Inputs, made before set-up starts.
  std::vector<std::vector<Req>> Lists;
  if (O.KnownBadOnly) {
    Lists.push_back(makeKnownBadList());
  } else {
    // A sample is two spanned/plain segment pairs per client.
    const size_t PerClient =
        O.Sample ? 4 * 72
                 : std::max<size_t>(8, size_t(RequestsPerSecond * O.Seconds) /
                                           Clients);
    for (unsigned C = 0; C != Clients; ++C)
      Lists.push_back(makeClientList(O.Seed, C, PerClient));
  }
  size_t Total = 0;
  for (const auto &L : Lists)
    Total += L.size();

  // Set-up: every core kind's circuit from an empty cache, then the
  // service with its worker threads. Repeated; the median is setup_s.
  std::vector<double> SetupS;
  std::map<std::string, std::vector<double>> FirstCircuitMs;
  std::unique_ptr<service::SimService> Svc;
  const int64_t SetupStart = nowNs();
  for (unsigned Rep = 0; moreSetup(Rep, SetupStart); ++Rep) {
    Svc.reset();
    cores::resetSharedCircuitsForTest();
    clearNativeStore();
    int64_t T0 = nowNs();
    for (cores::CoreKind K : cores::allCoreKinds()) {
      int64_t T1 = nowNs();
      cores::Core Warm(K);
      FirstCircuitMs[cores::coreKindId(K)].push_back(double(nowNs() - T1) /
                                                    1e6);
    }
    Svc = std::make_unique<service::SimService>(
        service::SimService::Config(Workers, CacheEntries));
    SetupS.push_back(secondsSince(T0));
  }
  Res.Metrics["setup_s"] = median(SetupS);
  for (auto &[Id, V] : FirstCircuitMs)
    Res.Metrics["cores.first_circuit_ms." + Id] = median(V);

  Tracer Tr;
  std::vector<ClientLog> Logs(Lists.size());
  {
    std::vector<std::thread> Threads;
    for (size_t C = 0; C != Lists.size(); ++C)
      Threads.emplace_back(runClient, std::ref(*Svc), std::cref(Lists[C]),
                           std::ref(Logs[C]), O.Trace ? &Tr : nullptr,
                           uint64_t(C) << 32);
    for (std::thread &T : Threads)
      T.join();
  }
  const service::ResultCache::Stats CS = Svc->cacheStats();
  Svc.reset();

  ClientLog All;
  for (ClientLog &L : Logs) {
    All.Ms.insert(All.Ms.end(), L.Ms.begin(), L.Ms.end());
    All.HitMs.insert(All.HitMs.end(), L.HitMs.begin(), L.HitMs.end());
    All.MissMs.insert(All.MissMs.end(), L.MissMs.begin(), L.MissMs.end());
    All.HandleUs.insert(All.HandleUs.end(), L.HandleUs.begin(),
                        L.HandleUs.end());
    All.Attempted += L.Attempted;
    All.Failed += L.Failed;
    All.MemHits += L.MemHits;
    All.MemMisses += L.MemMisses;
    All.MemStalls += L.MemStalls;
    All.SpannedNs += L.SpannedNs;
    All.PlainNs += L.PlainNs;
    for (std::string &F : L.Failures)
      Res.Notes.push_back("failed: " + F);
    if (!L.Inconsistency.empty())
      Res.inconsistent(L.Inconsistency);
  }
  Res.Attempted = All.Attempted;
  Res.Failed = All.Failed;
  if (All.Attempted != Total)
    Res.inconsistent("not every request was answered");

  if (!O.Trace) {
    // The clients run side by side: the service's rate is the sum of their
    // median window rates.
    std::vector<double> P50, P90;
    double Rate = 0;
    for (const ClientLog &L : Logs) {
      Rate += median(L.WinRate);
      P50.insert(P50.end(), L.WinP50.begin(), L.WinP50.end());
      P90.insert(P90.end(), L.WinP90.begin(), L.WinP90.end());
    }
    Res.Metrics["throughput_per_s"] = Rate;
    Res.Metrics["op_ms_p50"] = median(P50);
    Res.Metrics["op_ms_p90"] = median(P90);
    return Res;
  }

  Res.Metrics["service.request_ms_p99"] = quantile(All.Ms, 0.99);
  Res.Metrics["service.hit_ms_p50"] = median(All.HitMs);
  Res.Metrics["service.miss_ms_p50"] = median(All.MissMs);
  double HandleSum = 0;
  for (double U : All.HandleUs)
    HandleSum += U;
  Res.Metrics["service.handle_line_us"] = HandleSum / double(All.Attempted);
  Res.Metrics["service.cache_hit_ratio"] =
      double(CS.Hits) / double(CS.Hits + CS.Misses);
  Res.Metrics["mem.hits"] = double(All.MemHits);
  Res.Metrics["mem.misses"] = double(All.MemMisses);
  Res.Metrics["mem.mem_stalls"] = double(All.MemStalls);
  const size_t SpannedOps = Tr.totals("fuzz-service").Ops;
  const size_t PlainOps = All.Attempted - SpannedOps;
  Res.Metrics["trace.overhead_pct"] =
      100.0 * (double(All.SpannedNs) / double(SpannedOps)) /
          (double(All.PlainNs) / double(PlainOps)) -
      100.0;

  // Replay of fresh requests in list order for half of --seconds, and at
  // least one full cycle of the 18 kind x profile combinations.
  int64_t ReplayStart = nowNs();
  size_t Replayed = 0;
  for (const Req &Q : Lists[0]) {
    if (Q.Resend)
      continue;
    std::string Err;
    if (!replay(*Q.F, Tr, ++Replayed, Err))
      Res.inconsistent("replayed request does not parse: " + Err);
    if (Replayed >= 18 &&
        (O.Sample || secondsSince(ReplayStart) >= O.Seconds / 2))
      break;
  }

  if (!O.TraceOut.empty() && !Tr.write(O.TraceOut))
    Res.inconsistent("cannot write " + O.TraceOut);
  addLayerMetrics(Res, Tr.totals("fuzz-service"),
                  {{"service.handle_line", "service.handle_line_self_us"},
                   {"service.wait", "service.wait_us"}});
  Tracer::LayerTotals Part = Tr.totals("replay");
  Tracer::LayerTotals Split = Tr.totals("split");
  countInexact(Res, Part);
  countInexact(Res, Split);
  auto PerOp = [](const Tracer::LayerTotals &T, const char *Name) {
    auto It = T.SelfNs.find(Name);
    return It == T.SelfNs.end() ? 0.0 : double(It->second) / 1e3 / double(T.Ops);
  };
  const double RunSim = PerOp(Part, "sim.run_sim");
  Res.Metrics["sim.request_parse_us"] = PerOp(Part, "sim.request_parse");
  Res.Metrics["sim.run_sim_us"] = RunSim;
  Res.Metrics["obs.result_json_us"] = PerOp(Part, "obs.result_json");
  Res.Metrics["sim.replay_unattributed_us"] = PerOp(Part, "unattributed");
  double Attributed = 0;
  for (auto [Span, Metric] :
       {std::pair{"riscv.assemble", "riscv.assemble_us"},
        {"cores.core_new", "cores.core_new_us"},
        {"backend.run", "backend.run_us"},
        {"riscv.golden", "riscv.golden_us"}}) {
    Res.Metrics[Metric] = PerOp(Split, Span);
    Attributed += Res.Metrics[Metric];
  }
  // The monitors run inside backend.run; their share is the difference to
  // the same request with monitors off.
  Res.Metrics["verify.monitors_us"] =
      RunSim - PerOp(Split, "verify.run_sim_no_monitors");
  Res.Metrics["verify.unattributed_us"] = RunSim - Attributed;
  return Res;
}

} // namespace pdlbench
