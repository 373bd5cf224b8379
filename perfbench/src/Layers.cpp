//===- perfbench/src/Layers.cpp - Per-layer measurements ------------------===//

#include "Layers.h"

#include "Checks.h"
#include "Daemon.h"

#include "serve/Coordinator.h"
#include "sim/ResultCache.h"
#include "vm/Interpreter.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

using namespace dynace;
using namespace dynace::serve;

namespace perfbench {

namespace {

constexpr uint64_t kReplayBudget = 4'000'000;
/// Per-cell budget of the serve probe (grid-served's).
constexpr uint64_t kProbeBudget = 1'000'000;

/// Installed only so stepBatch stops at method boundaries exactly as it
/// does under the DO system in a real run.
class BoundaryListener : public VmListener {};

struct ReplayTotals {
  uint64_t Insts = 0, Batches = 0, Boundaries = 0;
  uint64_t Accesses = 0, Branches = 0, Wrong = 0;
  double StepS = 0, ConsumeS = 0, HierS = 0, BpredS = 0, BbvS = 0;
  double BareS = 0, FullBaseS = 0;
  uint64_t L1dAcc = 0, L1dMiss = 0, L2Acc = 0, L2Miss = 0;
  uint64_t DtlbAcc = 0, DtlbMiss = 0;
};

struct Access {
  uint64_t Addr;
  uint8_t Kind; // 0 = instruction fetch, 1 = load, 2 = store.
};

/// Replays one program's first \p Budget instructions through every
/// in-run layer, adding to \p T. \returns the facts the checks read.
///
/// Each batch the interpreter fills is handed at once to each layer in
/// turn, every call timed on its own, so every layer works on a batch
/// still hot in the host caches, as in a real run.
ReplayFacts replayProgram(const Program &Prog, const SimulationOptions &Opts,
                          uint64_t Budget, ReplayTotals &T) {
  ReplayFacts F;
  F.Budget = Budget;

  // The kernel a real run installs: a one-instruction System resolves the
  // program's memoized selection.
  SimulationOptions One = Opts;
  One.MaxInstructions = 1;
  System Probe(Prog, One);
  (void)Probe.runChecked();
  Interpreter Vm(Prog);
  Vm.setSpecialization(Probe.vm().specialization());
  BoundaryListener Listener;
  Vm.setListener(&Listener);

  MemoryHierarchy CoreHier(Opts.Hierarchy);
  Core Cpu(Opts.Core, CoreHier);
  MemoryHierarchy Hier(Opts.Hierarchy);
  BranchPredictor Bp(Opts.Core.PredictorEntries);
  auto NoOp = [](unsigned) { return ReconfigCost(); };
  ConfigurableUnit L1Unit(
      "L1D", static_cast<unsigned>(Opts.Hierarchy.L1DSettings.size()),
      Opts.L1DReconfigInterval, 0, NoOp);
  ConfigurableUnit L2Unit(
      "L2", static_cast<unsigned>(Opts.Hierarchy.L2Settings.size()),
      Opts.L2ReconfigInterval, 0, NoOp);
  uint64_t Fed = 0;
  AcePlatform Platform;
  Platform.Cycles = [&Fed] { return Fed; };
  Platform.Instructions = [&Fed] { return Fed; };
  Platform.Energy = [&Fed] { return static_cast<double>(Fed); };
  Platform.Stall = [](uint64_t) {};
  BbvManager Bbv({&L1Unit, &L2Unit}, Platform, Opts.Bbv);

  DynInst Buf[kBatchCap];
  std::vector<Access> Acc;
  std::vector<std::pair<uint64_t, bool>> Br;
  Acc.reserve(2 * kBatchCap);
  Br.reserve(kBatchCap);
  uint64_t FetchBlock = ~0ull;

  // Everything but the interpreter, on the batch Buf[0, N); the
  // interpreter's time is the drive's less the drains'.
  double DrainS = 0.0;
  auto Drain = [&](size_t N) {
    Clock::time_point T0 = Clock::now();
    Cpu.consumeBatch(Buf, N);
    Clock::time_point T1 = Clock::now();
    T.ConsumeS += std::chrono::duration<double>(T1 - T0).count();
    Acc.clear();
    Br.clear();
    for (size_t I = 0; I != N; ++I) {
      const DynInst &D = Buf[I];
      uint64_t Block = D.PC & ~63ull;
      if (Block != FetchBlock) {
        Acc.push_back({D.PC, 0});
        FetchBlock = Block;
      }
      if (D.Class == OpClass::Load || D.Class == OpClass::Store)
        Acc.push_back({D.MemAddr, uint8_t(D.Class == OpClass::Load ? 1 : 2)});
      if (D.IsCondBranch)
        Br.push_back({D.PC, D.Taken});
    }
    T1 = Clock::now();
    for (const Access &A : Acc) {
      if (A.Kind == 0)
        Hier.instrFetch(A.Addr);
      else
        Hier.dataAccess(A.Addr, A.Kind == 2);
    }
    Clock::time_point T2 = Clock::now();
    for (const auto &[Pc, Taken] : Br)
      Bp.predictAndUpdate(Pc, Taken);
    Clock::time_point T3 = Clock::now();
    // BBV accounting, split at interval boundaries as the run loop
    // splits its batches.
    for (size_t Off = 0; Off != N;) {
      size_t K = static_cast<size_t>(
          std::min<uint64_t>(N - Off, Bbv.instructionsUntilBoundary()));
      Fed += K;
      Bbv.onInstructionBatch(Buf + Off, K);
      Off += K;
    }
    Clock::time_point T4 = Clock::now();
    T.HierS += std::chrono::duration<double>(T2 - T1).count();
    T.BpredS += std::chrono::duration<double>(T3 - T2).count();
    T.BbvS += std::chrono::duration<double>(T4 - T3).count();
    T.Accesses += Acc.size();
    F.CondBranches += Br.size();
    ++T.Batches;
    DrainS += std::chrono::duration<double>(T4 - T0).count();
  };

  Clock::time_point Start = Clock::now();
  T.Boundaries += driveLikeRunLoop(Vm, Budget, Buf, Drain);
  T.StepS += secondsSince(Start) - DrainS;

  F.Recorded = Vm.instructionCount();
  F.CoreInsts = Cpu.instructions();
  F.PredLookups = Bp.lookups();
  F.ReplayL1d = Hier.l1d().totalStats();
  T.Insts += F.Recorded;
  T.Branches += Bp.lookups();
  T.Wrong += Bp.mispredicts();
  T.L1dAcc += F.ReplayL1d.accesses();
  T.L1dMiss += F.ReplayL1d.misses();
  CacheStats L2 = Hier.l2().totalStats();
  T.L2Acc += L2.accesses();
  T.L2Miss += L2.misses();
  T.DtlbAcc += Hier.dtlb().accesses();
  T.DtlbMiss += Hier.dtlb().misses();

  // The run loop bare — interpreter and core, no DO system — and a full
  // baseline run of the same instructions, which referees the replayed
  // L1D; the full run less the bare loop leaves the DO hook cost. (A
  // hotspot run would add the ACE hooks, but also the host cost of the
  // smaller caches ACE picks, which belongs to the consume side.) The
  // hooks are a few percent of a run, so each side is timed kRepeats
  // times, interleaved, and the fastest kept.
  auto BareLoop = [&] {
    Interpreter BareVm(Prog);
    BareVm.setSpecialization(Probe.vm().specialization());
    BareVm.setListener(&Listener);
    MemoryHierarchy BareHier(Opts.Hierarchy);
    Core BareCpu(Opts.Core, BareHier);
    Clock::time_point T0 = Clock::now();
    driveLikeRunLoop(BareVm, Budget, Buf,
                     [&](size_t N) { BareCpu.consumeBatch(Buf, N); });
    return secondsSince(T0);
  };
  auto FullRun = [&] {
    SimulationOptions Full = Opts;
    Full.MaxInstructions = Budget;
    Full.SchemeKind = Scheme::Baseline;
    System Sys(Prog, Full);
    Clock::time_point T0 = Clock::now();
    Expected<SimulationResult> R = Sys.runChecked();
    double Secs = secondsSince(T0);
    if (R.ok())
      F.SystemL1d = R.get().L1DStats;
    return Secs;
  };
  constexpr int kRepeats = 3;
  double Bare = 1e300, Base = 1e300;
  for (int Rep = 0; Rep != kRepeats; ++Rep) {
    Bare = std::min(Bare, BareLoop());
    Base = std::min(Base, FullRun());
  }
  T.BareS += Bare;
  T.FullBaseS += Base;
  return F;
}

double ratio(double Num, double Den) { return Den > 0.0 ? Num / Den : 0.0; }

/// The interpreter kernels `auto` picks among (vm.specialize.pick.*).
constexpr const char *kVariants[] = {"generic", "fused2", "fused3",
                                     "branchspec", "unguarded"};

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

/// Submits the grid of the seven built-in profiles once to a fresh
/// dynace-serve daemon (the grid-served set-up, one submission) and
/// \returns the serve facts from its metrics dump.
ServeFacts serveProbe(const LayerContext &Ctx, Checker &C) {
  std::vector<std::string> Names;
  for (const WorkloadProfile &P : specjvm98Profiles())
    Names.push_back(P.Name);
  std::string Dump = Ctx.Dir->file("probe-metrics.json");
  {
    Daemon D;
    D.start(Ctx.ServeBin, Ctx.Dir->file("probe.sock"),
            {{"DYNACE_SERVE_WORKERS", std::to_string(serveWorkers())},
             {"DYNACE_SERVE_JOURNAL", Ctx.Dir->file("probe.journal")},
             {"DYNACE_INSTR_BUDGET", std::to_string(kProbeBudget)},
             {"DYNACE_METRICS", Dump}},
            Ctx.Dir->file("probe.log"));
    DoneMsg Done = D.submit(gridForBenchmarks(Names));
    if (Done.FailedCells != 0)
      throw HarnessError{"serve probe: " + std::to_string(Done.FailedCells) +
                         " cells failed"};
    checkNoStrays(C, "serve probe", D.stop());
  }
  return serveFactsFromDump(readFile(Dump));
}

/// \returns the unsigned number following "\"<Key>\": " in \p Json.
bool jsonNumber(const std::string &Json, const std::string &Key,
                uint64_t &Out) {
  size_t At = Json.find("\"" + Key + "\": ");
  if (At == std::string::npos)
    return false;
  Out = std::strtoull(Json.c_str() + At + Key.size() + 4, nullptr, 10);
  return true;
}

} // namespace

double histogramMedian(const HistogramSnapshot &H) {
  if (H.Count == 0)
    return 0.0;
  uint64_t Lo = H.percentileLowerBound(0.5);
  unsigned B = histogramBucketFor(Lo);
  uint64_t Below = 0;
  for (unsigned I = 0; I != B && I != H.Buckets.size(); ++I)
    Below += H.Buckets[I];
  double InBucket =
      B < H.Buckets.size() ? static_cast<double>(H.Buckets[B]) : 0.0;
  double Share = InBucket > 0.0 ? (0.5 * static_cast<double>(H.Count) -
                                   static_cast<double>(Below)) /
                                      InBucket
                                : 0.0;
  // Bucket B > 0 holds [Lo, 2 Lo); bucket 0 holds only 0.
  double Width = B == 0 ? 0.0 : static_cast<double>(Lo);
  return static_cast<double>(Lo) + std::clamp(Share, 0.0, 1.0) * Width;
}

ServeFacts serveFactsFromDump(const std::string &Json) {
  ServeFacts F;
  uint64_t Grids = 0, Dispatches = 0, Redispatches = 0, Inline = 0,
           Journal = 0, Cells = 0;
  if (!jsonNumber(Json, "serve.grids", Grids) || Grids == 0 ||
      !jsonNumber(Json, "serve.dispatches", Dispatches) ||
      !jsonNumber(Json, "serve.cells.total", Cells))
    return F;
  jsonNumber(Json, "serve.redispatches", Redispatches);
  jsonNumber(Json, "serve.cells.inline", Inline);
  jsonNumber(Json, "serve.journal.bytes", Journal);
  // "<name>": {"count": N, "sum": S, "buckets": [b0, b1, ...]} — trailing
  // empty buckets are not written.
  size_t At = Json.find("\"serve.lease.latency_ms\": {\"count\": ");
  if (At == std::string::npos)
    return F;
  HistogramSnapshot H;
  const char *P = Json.c_str() + At;
  P = std::strstr(P, "\"count\": ") + 9;
  H.Count = std::strtoull(P, nullptr, 10);
  P = std::strstr(P, "\"sum\": ");
  if (!P)
    return F;
  H.Sum = std::strtoull(P + 7, nullptr, 10);
  P = std::strchr(P, '[');
  if (!P)
    return F;
  ++P;
  while (*P != ']' && H.Buckets.size() != kHistogramBuckets) {
    char *End = nullptr;
    H.Buckets.push_back(std::strtoull(P, &End, 10));
    if (End == P)
      return F;
    P = End;
    while (*P == ',' || *P == ' ')
      ++P;
  }
  double G = static_cast<double>(Grids);
  F.Have = true;
  F.LeaseMsP50 = histogramMedian(H);
  F.LeaseSeconds = static_cast<double>(H.Sum) / 1e3 / G;
  F.Dispatches = static_cast<double>(Dispatches) / G;
  F.Redispatches = static_cast<double>(Redispatches) / G;
  F.InlineCells = static_cast<double>(Inline) / G;
  F.JournalBytes = static_cast<double>(Journal) / G;
  F.Cells = static_cast<double>(Cells) / G;
  uint64_t N = 0;
  if (jsonNumber(Json, "vm.specialize.calibrations", N))
    F.Calibrations = static_cast<double>(N) / G;
  for (const char *V : kVariants)
    F.Picks[V] = jsonNumber(Json, std::string("vm.specialize.pick.") + V, N)
                     ? static_cast<double>(N) / G
                     : 0.0;
  return F;
}

void checkReplay(Checker &C, const std::string &Cell, const ReplayFacts &F) {
  C.expect(F.Recorded == F.Budget && F.CoreInsts == F.Recorded &&
               F.PredLookups == F.CondBranches,
           "trace-replay",
           Cell + ": budget " + std::to_string(F.Budget) + ", recorded " +
               std::to_string(F.Recorded) + ", core retired " +
               std::to_string(F.CoreInsts) + ", predictor " +
               std::to_string(F.PredLookups) + " of " +
               std::to_string(F.CondBranches) + " branches");
  const CacheStats &A = F.ReplayL1d, &B = F.SystemL1d;
  C.expect(A.Reads == B.Reads && A.Writes == B.Writes &&
               A.ReadMisses == B.ReadMisses && A.WriteMisses == B.WriteMisses,
           "trace-l1d",
           Cell + ": replayed L1D " + std::to_string(A.accesses()) + "/" +
               std::to_string(A.misses()) + " accesses/misses, System " +
               std::to_string(B.accesses()) + "/" +
               std::to_string(B.misses()));
}

void checkServeFacts(Checker &C, const ServeFacts &F) {
  C.expect(F.Have && F.Cells > 0.0 &&
               F.Dispatches + F.InlineCells >= F.Cells &&
               F.LeaseMsP50 > 0.0,
           "trace-serve",
           std::string(F.Have ? "" : "no serve metrics; ") + "cells " +
               std::to_string(F.Cells) + ", dispatches " +
               std::to_string(F.Dispatches) + ", inline " +
               std::to_string(F.InlineCells) + ", p50 lease " +
               std::to_string(F.LeaseMsP50) + " ms");
}

std::vector<Metric> measureLayers(const LayerContext &Ctx, Checker &C) {
  std::vector<Metric> M;
  auto Add = [&M](const std::string &Name, double V, const char *Unit) {
    M.push_back({Name, V, Unit});
  };
  const std::vector<BenchmarkRun> &Runs = *Ctx.Runs;

  // Set-up layers.
  Add("workloads.generate_ms", 1e3 * Ctx.Setup->total("workloads"), "ms");
  Add("analysis.finalize_ms", 1e3 * Ctx.Setup->total("analysis", "finalize"),
      "ms");
  Add("analysis.proof_ms", 1e3 * Ctx.Setup->total("analysis", "proof"), "ms");
  Add("analysis.proven_mem_ratio",
      ratio(static_cast<double>(Ctx.Proofs.ProvenMem),
            static_cast<double>(Ctx.Proofs.MemOps)),
      "ratio");
  Add("vm.select_ms", 1e3 * Ctx.Setup->total("vm", "select"), "ms");
  // The served grid selects its kernels inside the daemon's workers: count
  // those (per grid); elsewhere the selection is this process's set-up.
  const bool Served = Ctx.Serve.Have;
  Add("vm.calibrations",
      Served ? Ctx.Serve.Calibrations
             : static_cast<double>(Ctx.SetupRegistry.counterOr(
                   "vm.specialize.calibrations")),
      "count");
  for (const char *V : kVariants)
    Add(std::string("vm.picks.") + V,
        Served ? Ctx.Serve.Picks.at(V)
               : static_cast<double>(Ctx.SetupRegistry.counterOr(
                     std::string("vm.specialize.pick.") + V)),
        "count");

  // In-run layers: record and replay.
  ReplayTotals T;
  uint64_t Budget = std::min(Ctx.Opts.MaxInstructions, kReplayBudget);
  for (const WorkloadProfile &P : *Ctx.Profiles) {
    ReplayFacts F = replayProgram(cachedWorkload(P).Prog, Ctx.Opts, Budget, T);
    checkReplay(C, P.Name, F);
  }
  double Insts = static_cast<double>(T.Insts);
  Add("vm.step_ns_per_inst", 1e9 * ratio(T.StepS, Insts), "ns");
  Add("vm.batch_len_mean", ratio(Insts, static_cast<double>(T.Batches)),
      "inst");
  Add("uarch.consume_ns_per_inst", 1e9 * ratio(T.ConsumeS, Insts), "ns");
  Add("uarch.core_self_ns_per_inst",
      1e9 * ratio(T.ConsumeS - T.HierS - T.BpredS, Insts), "ns");
  Add("uarch.bpred_ns_per_inst", 1e9 * ratio(T.BpredS, Insts), "ns");
  Add("uarch.bpred_ns_per_branch",
      1e9 * ratio(T.BpredS, static_cast<double>(T.Branches)), "ns");
  Add("uarch.bpred_accuracy",
      1.0 - ratio(static_cast<double>(T.Wrong),
                  static_cast<double>(T.Branches)),
      "ratio");
  Add("cache.ns_per_inst", 1e9 * ratio(T.HierS, Insts), "ns");
  Add("cache.ns_per_access",
      1e9 * ratio(T.HierS, static_cast<double>(T.Accesses)), "ns");
  auto HitRatio = [](uint64_t Acc, uint64_t Miss) {
    return ratio(static_cast<double>(Acc - Miss), static_cast<double>(Acc));
  };
  Add("cache.l1d_hit_ratio", HitRatio(T.L1dAcc, T.L1dMiss), "ratio");
  Add("cache.l2_hit_ratio", HitRatio(T.L2Acc, T.L2Miss), "ratio");
  Add("cache.dtlb_hit_ratio", HitRatio(T.DtlbAcc, T.DtlbMiss), "ratio");

  // Counts the workload's own results export.
  uint64_t L1Re = 0, L2Re = 0, Intervals = 0, Phases = 0, Hotspots = 0,
           Tested = 0, Requests = 0, Rejects = 0;
  for (const BenchmarkRun &R : Runs) {
    for (const SimulationResult *S : {&R.Bbv, &R.Hotspot}) {
      L1Re += S->L1DHardwareReconfigs;
      L2Re += S->L2HardwareReconfigs;
    }
    if (R.Bbv.BbvR) {
      Intervals += R.Bbv.BbvR->TotalIntervals;
      Phases += R.Bbv.BbvR->NumPhases;
    }
    Hotspots += R.Hotspot.Do.NumHotspots;
    if (R.Hotspot.Ace)
      for (const AceCuReport &Cu : R.Hotspot.Ace->PerCu)
        Tested += Cu.Tunings;
    for (const char *Cu : {"L1D", "L2"}) {
      Requests += R.Hotspot.Metrics.counterOr(std::string("cu.") + Cu +
                                              ".requests");
      Rejects +=
          R.Hotspot.Metrics.counterOr(std::string("cu.") + Cu + ".rejects");
    }
  }
  Add("cache.l1d_reconfigs", static_cast<double>(L1Re), "count");
  Add("cache.l2_reconfigs", static_cast<double>(L2Re), "count");
  Add("bbv.ns_per_inst", 1e9 * ratio(T.BbvS, Insts), "ns");
  Add("bbv.intervals", static_cast<double>(Intervals), "count");
  Add("bbv.phases", static_cast<double>(Phases), "count");
  Add("hooks.ns_per_boundary",
      1e9 * ratio(T.FullBaseS - T.BareS,
                  static_cast<double>(T.Boundaries)),
      "ns");
  Add("dosys.hotspots", static_cast<double>(Hotspots), "count");
  Add("ace.configs_tested", static_cast<double>(Tested), "count");
  Add("ace.reconfig_reject_ratio",
      ratio(static_cast<double>(Rejects), static_cast<double>(Requests)),
      "ratio");

  // sim: result-cache I/O and report rendering on the workload's results.
  std::vector<const SimulationResult *> Results = gridResults(Runs);
  std::string CacheDir = Ctx.Dir->file("layer-cache");
  removeTree(CacheDir);
  std::filesystem::create_directories(CacheDir);
  double SaveS = 0, LoadS = 0, Bytes = 0;
  for (size_t I = 0; I != Results.size(); ++I) {
    std::string Path = CacheDir + "/" + std::to_string(I) + ".txt";
    Clock::time_point T0 = Clock::now();
    Status S = saveResultChecked(Path, *Results[I]);
    SaveS += secondsSince(T0);
    if (!S)
      throw HarnessError{"saveResultChecked: " + S.toString()};
    T0 = Clock::now();
    Expected<SimulationResult> L = loadResultChecked(Path);
    LoadS += secondsSince(T0);
    if (!L)
      throw HarnessError{"loadResultChecked: " + L.status().toString()};
    checkSame(C, "cell " + std::to_string(I) + " in memory vs re-parsed",
              *Results[I], L.get());
    Bytes += static_cast<double>(serializeResult(*Results[I]).size());
  }
  double NRes = static_cast<double>(Results.size());
  Add("sim.pool_busy_ratio", Ctx.PoolBusyRatio, "ratio");
  Add("sim.run_ns_per_inst", 1e9 * ratio(T.FullBaseS, Insts), "ns");
  Add("sim.cache_save_us", 1e6 * ratio(SaveS, NRes), "us");
  Add("sim.cache_load_us", 1e6 * ratio(LoadS, NRes), "us");
  Add("sim.record_bytes", ratio(Bytes, NRes), "B");
  Clock::time_point T0 = Clock::now();
  for (unsigned I = 0; I != kPaperTables; ++I)
    (void)renderPaperTable(I, Runs);
  Add("sim.report_ms", 1e3 * secondsSince(T0), "ms");

  // serve: the codec on the workload's results, then the fleet facts.
  std::vector<CellResultMsg> Msgs(Results.size());
  for (size_t I = 0; I != Results.size(); ++I) {
    Msgs[I].CellIndex = I;
    Msgs[I].Cell.Benchmark = Runs[I / 3].Name;
    Msgs[I].Cell.SchemeKind = Results[I]->SchemeKind;
    Msgs[I].CacheKey = resultCacheKey(Runs[I / 3].Name, Ctx.Opts);
    Msgs[I].ResultText = serializeResult(*Results[I]);
  }
  constexpr int kCodecReps = 20;
  T0 = Clock::now();
  for (int Rep = 0; Rep != kCodecReps; ++Rep)
    for (const CellResultMsg &Msg : Msgs) {
      Expected<CellResultMsg> D = decodeCellResult(encodeCellResult(Msg));
      if (!D.ok() || D.get().ResultText != Msg.ResultText)
        throw HarnessError{"cell-result codec round trip failed"};
    }
  Add("serve.codec_us", 1e6 * ratio(secondsSince(T0), kCodecReps * NRes),
      "us");
  ServeFacts SF = Served ? Ctx.Serve : serveProbe(Ctx, C);
  checkServeFacts(C, SF);
  Add("serve.lease_ms_p50", SF.LeaseMsP50, "ms");
  Add("serve.dispatches", SF.Dispatches, "count");
  Add("serve.redispatches", SF.Redispatches, "count");
  Add("serve.inline_cells", SF.InlineCells, "count");
  Add("serve.journal_bytes", SF.JournalBytes, "B");
  return M;
}

} // namespace perfbench
