//===- perfbench/src/GridWarm.cpp - grid-warm workload --------------------===//
//
// The paper tables rendered from a result cache populated during set-up,
// each replayed through a fresh runner the way its paper-table binary
// does: no simulation happens, so only result-cache parsing and report
// rendering move here.
//
//===----------------------------------------------------------------------===//

#include "Checks.h"
#include "Layers.h"
#include "Workloads.h"

#include "obs/Metrics.h"
#include "sim/Reports.h"

#include <sstream>

using namespace dynace;

namespace perfbench {

Outcome runGridWarm(const Args &A, const RunDir &Dir, Checker &C) {
  std::vector<WorkloadProfile> Profiles = gridProfiles(A.Seed);
  SimulationOptions Opts = gridOptions(kColdBudget);
  unsigned Jobs = gridJobs();
  SpanLog Setup;
  ProofCoverage Proofs = prepareGrid(Profiles, A.Trace ? &Setup : nullptr);
  MetricsSnapshot SetupRegistry = MetricsRegistry::process().snapshot();
  setCacheDir(Dir.file("cache"));
  std::vector<BenchmarkRun> Populated;
  {
    ExperimentRunner Runner(Opts);
    Populated = Runner.runAll(Profiles, Jobs);
  }
  double SetupS = secondsSince(ProcessStart);

  // Timed phase: rounds of the seven paper tables, each a fresh runner
  // whose whole grid loads from the cache.
  std::vector<double> RoundS, RoundMips;
  std::vector<std::string> Tables(kPaperTables);
  double BusyS = 0.0;
  uint64_t Loads = 0, FailedLoads = 0;
  Clock::time_point Start = Clock::now();
  unsigned Round = 0;
  do {
    Clock::time_point T0 = Clock::now();
    double CellS = 0.0, Instructions = 0.0;
    for (unsigned T = 0; T != kPaperTables; ++T) {
      ExperimentRunner Runner(Opts);
      std::vector<BenchmarkRun> Runs = Runner.runAll(Profiles, Jobs);
      std::string Table = renderPaperTable(T, Runs);
      std::vector<RunStats> Stats = Runner.stats();
      std::ostringstream StatsText;
      printRunStats(StatsText, Stats);
      for (const RunStats &S : Stats) {
        CellS += S.WallSeconds;
        Instructions += static_cast<double>(S.Instructions);
        FailedLoads += S.Failed || !S.CacheHit;
      }
      Loads += Stats.size();
      checkAllHits(C, Stats);
      if (Round == 0) {
        Tables[T] = std::move(Table);
        if (T == 0) {
          std::vector<const SimulationResult *> Sim = gridResults(Populated),
                                               Disk = gridResults(Runs);
          for (size_t I = 0; I != Sim.size(); ++I)
            checkSame(C,
                      "cell " + std::to_string(I) +
                          " in-thread vs re-parsed from the disk cache",
                      *Sim[I], *Disk[I]);
        }
      } else if (Table != Tables[T]) {
        C.expect(false, "identity",
                 "paper table " + std::to_string(T) + " of round " +
                     std::to_string(Round) + " differs from round 0");
      }
    }
    RoundS.push_back(secondsSince(T0));
    BusyS += CellS;
    RoundMips.push_back(CellS > 0.0 ? Instructions / CellS / 1e6 : 0.0);
    ++Round;
  } while (secondsSince(Start) < A.Seconds);
  double TimedS = 0.0;
  for (double S : RoundS)
    TimedS += S;
  double PeakRss = peakRssMb();

  checkGrid(C, Populated, Opts);
  size_t Lru = A.Seed % Profiles.size(); // As in grid-cold.
  checkLru(C, Profiles[Lru].Name + "/baseline",
           replayLru(cachedWorkload(Profiles[Lru]).Prog, kColdBudget,
                     Opts.Hierarchy.L1DSettings[0]),
           Populated[Lru].Baseline);

  PaperFigures Fig = paperFigures(Populated);
  checkPaperFigures(C, Fig);

  Outcome O;
  // One operation is one cell loaded from the cache: a failed or
  // re-simulated cell counts as failed.
  O.Attempted = Loads;
  O.Failed = FailedLoads;
  // cell_mips counts a loaded cell's instructions against its load time;
  // the paper figures are those of the grid set-up simulated into the
  // cache.
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
    Ctx.Runs = &Populated;
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
