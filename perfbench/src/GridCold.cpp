//===- perfbench/src/GridCold.cpp - grid-cold workload --------------------===//
//
// The paper grid (7 programs x baseline/bbv/hotspot) through the
// in-process pipeline, ExperimentRunner::runAll, with an empty result cache
// per round: nearly all of its time is the simulate hot loop.
//
//===----------------------------------------------------------------------===//

#include "Checks.h"
#include "Layers.h"
#include "Workloads.h"

#include "obs/Metrics.h"
#include "sim/ResultCache.h"

using namespace dynace;

namespace perfbench {

Outcome runGridCold(const Args &A, const RunDir &Dir, Checker &C) {
  std::vector<WorkloadProfile> Profiles = gridProfiles(A.Seed);
  SimulationOptions Opts = gridOptions(kColdBudget);
  unsigned Jobs = gridJobs();
  SpanLog Setup;
  ProofCoverage Proofs = prepareGrid(Profiles, A.Trace ? &Setup : nullptr);
  MetricsSnapshot SetupRegistry = MetricsRegistry::process().snapshot();
  double SetupS = secondsSince(ProcessStart);

  // Timed phase: whole grid rounds, each through a fresh runner and an
  // empty cache directory, until the requested time is used.
  std::vector<double> RoundS, RoundMips;
  double BusyS = 0.0;
  uint64_t FailedCells = 0;
  std::vector<BenchmarkRun> First;
  Clock::time_point Start = Clock::now();
  unsigned Round = 0;
  do {
    std::string Cache = Dir.file("cache-" + std::to_string(Round));
    setCacheDir(Cache);
    ExperimentRunner Runner(Opts);
    Clock::time_point T0 = Clock::now();
    std::vector<BenchmarkRun> Runs = Runner.runAll(Profiles, Jobs);
    RoundS.push_back(secondsSince(T0));
    // Pooled over the round's cells: the median single cell would change
    // program with the seed and swing with it.
    double CellS = 0.0, Instructions = 0.0;
    for (const RunStats &S : Runner.stats()) {
      CellS += S.WallSeconds;
      Instructions += static_cast<double>(S.Instructions);
      FailedCells += S.Failed;
    }
    BusyS += CellS;
    RoundMips.push_back(CellS > 0.0 ? Instructions / CellS / 1e6 : 0.0);
    if (Round == 0) {
      First = std::move(Runs);
    } else {
      // Every round must reproduce the first bit for bit.
      std::vector<const SimulationResult *> A0 = gridResults(First),
                                           AN = gridResults(Runs);
      for (size_t I = 0; I != A0.size(); ++I)
        checkSame(C,
                  "round " + std::to_string(Round) + " vs round 0, cell " +
                      std::to_string(I),
                  *A0[I], *AN[I]);
      removeTree(Cache);
    }
    ++Round;
  } while (secondsSince(Start) < A.Seconds);
  double TimedS = 0.0;
  for (double S : RoundS)
    TimedS += S;
  double PeakRss = peakRssMb();

  // Output checks: properties, the disk path, and the textbook LRU.
  checkGrid(C, First, Opts);
  std::string Cache0 = Dir.file("cache-0");
  for (size_t P = 0; P != Profiles.size(); ++P)
    for (Scheme S : {Scheme::Baseline, Scheme::Bbv, Scheme::Hotspot}) {
      SimulationOptions Cell = Opts;
      Cell.SchemeKind = S;
      std::string Path =
          Cache0 + "/" + resultCacheKey(Profiles[P].Name, Cell) + ".txt";
      Expected<SimulationResult> L = loadResultChecked(Path);
      std::string Name = Profiles[P].Name + "/" + schemeName(S);
      if (!L.ok()) {
        C.expect(false, "identity",
                 Name + ": cache entry unreadable: " + L.status().toString());
        continue;
      }
      const SimulationResult &Mem = S == Scheme::Baseline ? First[P].Baseline
                                    : S == Scheme::Bbv    ? First[P].Bbv
                                                          : First[P].Hotspot;
      checkSame(C, Name + " in-thread vs re-parsed from the disk cache", Mem,
                L.get());
    }
  // One baseline cell per run (which one follows the seed): the LRU
  // replay of a whole cell costs about a second at this budget.
  size_t Lru = A.Seed % Profiles.size();
  checkLru(C, Profiles[Lru].Name + "/baseline",
           replayLru(cachedWorkload(Profiles[Lru]).Prog, kColdBudget,
                     Opts.Hierarchy.L1DSettings[0]),
           First[Lru].Baseline);
  PaperFigures Fig = paperFigures(First);
  checkPaperFigures(C, Fig);

  Outcome O;
  O.Attempted = static_cast<uint64_t>(Round) * Profiles.size() * 3;
  O.Failed = FailedCells;
  O.EndToEnd = {
      {"setup_s", SetupS, "s"},
      {"wall_s", median(RoundS), "s"},
      {"cell_mips", median(RoundMips), "MIPS"},
      {"peak_rss_mb", PeakRss, "MB"},
      {"l1d_energy_saved_pct", Fig.L1dSavedPct, "%"},
      {"l2_energy_saved_pct", Fig.L2SavedPct, "%"},
      {"slowdown_pct", Fig.SlowdownPct, "%"},
  };
  if (A.Trace) {
    LayerContext Ctx;
    Ctx.Profiles = &Profiles;
    Ctx.Opts = Opts;
    Ctx.Runs = &First;
    Ctx.Setup = &Setup;
    Ctx.Proofs = Proofs;
    Ctx.SetupRegistry = SetupRegistry;
    Ctx.PoolBusyRatio = BusyS / (Jobs * TimedS);
    Ctx.ServeBin = A.ServeBin;
    Ctx.Dir = &Dir;
    O.Layers = measureLayers(Ctx, C);
  }
  return O;
}

} // namespace perfbench
