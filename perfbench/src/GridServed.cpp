//===- perfbench/src/GridServed.cpp - grid-served workload ----------------===//
//
// A dynace-serve daemon (fixed worker count, write-ahead journal on) and
// one client submitting the paper grid back to back at a short per-cell
// budget: per-cell fixed costs dominate — fork, worker-side generation
// and calibration, lease RPCs, journal appends, the commit re-parse.
//
// The daemon resolves cells by name through findProfile(), so this
// workload runs the seven built-in profiles whatever the seed. The
// journal is removed after each submission: it would otherwise replay
// every cell of the next (identical) grid instead of running it.
//
//===----------------------------------------------------------------------===//

#include "Checks.h"
#include "Daemon.h"
#include "Layers.h"
#include "Workloads.h"

#include "obs/Metrics.h"
#include "serve/Coordinator.h"
#include "serve/Journal.h"
#include "sim/Reports.h"
#include "sim/ResultCache.h"

#include <fstream>
#include <sstream>

#include <unistd.h>

using namespace dynace;
using namespace dynace::serve;

namespace perfbench {

namespace {

/// Reads the cell results a submission committed to the journal — the
/// bytes the forked workers sent over the wire, as the coordinator
/// accepted them — and assembles them into grid order.
std::vector<BenchmarkRun> journalRuns(const std::string &Path,
                                      const std::vector<CellSpec> &Cells,
                                      Checker &C) {
  Expected<JournalReplay> J = journalReplay(Path);
  if (!J.ok())
    throw HarnessError{"journal replay: " + J.status().toString()};
  std::vector<GridCell> Grid(Cells.size());
  std::vector<bool> Seen(Cells.size(), false);
  for (const CellResultMsg &Rec : J.get().Records) {
    if (Rec.CellIndex >= Cells.size() || Rec.Failed) {
      C.expect(false, "cell-budget",
               "journal record for cell " + std::to_string(Rec.CellIndex) +
                   (Rec.Failed ? " failed: " + Rec.Reason : " out of range"));
      continue;
    }
    Expected<SimulationResult> R = parseResultText(Rec.ResultText);
    if (!R.ok())
      throw HarnessError{"journal result unparsable: " +
                         R.status().toString()};
    Grid[Rec.CellIndex].Result = R.take();
    Grid[Rec.CellIndex].CacheKey = Rec.CacheKey;
    Seen[Rec.CellIndex] = true;
  }
  for (size_t I = 0; I != Cells.size(); ++I)
    C.expect(Seen[I], "cell-budget",
             "cell " + std::to_string(I) + " missing from the journal");
  Expected<std::vector<BenchmarkRun>> Runs = assembleBenchmarkRuns(Cells, Grid);
  if (!Runs.ok())
    throw HarnessError{"journal grid: " + Runs.status().toString()};
  return Runs.take();
}

} // namespace

Outcome runGridServed(const Args &A, const RunDir &Dir, Checker &C) {
  std::vector<WorkloadProfile> Profiles = specjvm98Profiles();
  std::vector<std::string> Names;
  for (const WorkloadProfile &P : Profiles)
    Names.push_back(P.Name);
  std::vector<CellSpec> Cells = gridForBenchmarks(Names);
  SimulationOptions Opts = gridOptions(kServedBudget);
  unsigned Jobs = serveWorkers();
  SpanLog Setup;
  ProofCoverage Proofs = prepareGrid(Profiles, A.Trace ? &Setup : nullptr);
  MetricsSnapshot SetupRegistry = MetricsRegistry::process().snapshot();

  const std::string Journal = Dir.file("journal");
  const std::string MetricsDump = Dir.file("daemon-metrics.json");
  std::vector<std::pair<std::string, std::string>> Env = {
      {"DYNACE_SERVE_WORKERS", std::to_string(Jobs)},
      {"DYNACE_SERVE_JOURNAL", Journal},
      {"DYNACE_INSTR_BUDGET", std::to_string(kServedBudget)},
  };
  Env.push_back({"DYNACE_METRICS", MetricsDump});
  Daemon D;
  D.start(A.ServeBin, Dir.file("d.sock"), Env, Dir.file("daemon.log"));
  double SetupS = secondsSince(ProcessStart);

  // Timed phase: closed loop, one submission in flight.
  std::vector<double> SubmitS;
  std::string FirstReport;
  std::vector<BenchmarkRun> Wire;
  uint64_t FailedCells = 0;
  Clock::time_point Start = Clock::now();
  unsigned Round = 0;
  do {
    Clock::time_point T0 = Clock::now();
    DoneMsg Done = D.submit(Cells);
    SubmitS.push_back(secondsSince(T0));
    FailedCells += Done.FailedCells;
    C.expect(Done.Cells == Cells.size() && Done.FailedCells == 0,
             "cell-budget",
             "submission " + std::to_string(Round) + ": " +
                 std::to_string(Done.FailedCells) + " of " +
                 std::to_string(Done.Cells) + " cells failed");
    std::vector<BenchmarkRun> Runs = journalRuns(Journal, Cells, C);
    if (::unlink(Journal.c_str()) != 0)
      throw HarnessError{"cannot remove the journal " + Journal};
    if (Round == 0) {
      FirstReport = Done.Report;
      Wire = std::move(Runs);
    } else {
      C.expect(Done.Report == FirstReport, "identity",
               "report of submission " + std::to_string(Round) +
                   " differs from the first");
      std::vector<const SimulationResult *> A0 = gridResults(Wire),
                                           AN = gridResults(Runs);
      for (size_t I = 0; I != A0.size(); ++I)
        checkSame(C,
                  "submission " + std::to_string(Round) +
                      " vs the first, cell " + std::to_string(I),
                  *A0[I], *AN[I]);
    }
    ++Round;
  } while (secondsSince(Start) < A.Seconds);
  checkNoStrays(C, "daemon shutdown", D.stop());
  double PeakRss = peakRssMb();
  std::string Dump;
  {
    std::ifstream In(MetricsDump);
    std::stringstream SS;
    SS << In.rdbuf();
    Dump = SS.str();
  }
  ServeFacts Served = serveFactsFromDump(Dump);
  checkServeFacts(C, Served);

  // Output checks. The reference grid runs in-thread here and publishes
  // to a disk cache, so each cell is compared across three paths:
  // simulated in-thread, simulated in a forked worker and decoded off the
  // wire, and re-parsed from the disk cache.
  std::string RefCache = Dir.file("ref-cache");
  setCacheDir(RefCache);
  ExperimentRunner Ref(Opts);
  Clock::time_point T0 = Clock::now();
  std::vector<BenchmarkRun> Local = Ref.runAll(Profiles, Jobs);
  double RefS = secondsSince(T0);
  double BusyS = 0.0;
  for (const RunStats &S : Ref.stats())
    BusyS += S.WallSeconds;
  checkGrid(C, Local, Opts);
  checkGrid(C, Wire, Opts);
  std::ostringstream LocalReport;
  printGridReport(LocalReport, Local);
  C.expect(LocalReport.str() == FirstReport, "identity",
           "served grid report differs from the in-thread one");
  std::vector<const SimulationResult *> InThread = gridResults(Local),
                                       OffWire = gridResults(Wire);
  for (size_t I = 0; I != Cells.size(); ++I) {
    std::string Name = Cells[I].Benchmark + "/" +
                       schemeName(Cells[I].SchemeKind);
    checkSame(C, Name + " in-thread vs forked worker off the wire",
              *InThread[I], *OffWire[I]);
    SimulationOptions Cell = Opts;
    Cell.SchemeKind = Cells[I].SchemeKind;
    Expected<SimulationResult> L = loadResultChecked(
        RefCache + "/" + resultCacheKey(Cells[I].Benchmark, Cell) + ".txt");
    if (L.ok())
      checkSame(C, Name + " in-thread vs re-parsed from the disk cache",
                *InThread[I], L.get());
    else
      C.expect(false, "identity",
               Name + ": cache entry unreadable: " + L.status().toString());
  }
  for (size_t P = 0; P != Profiles.size(); ++P)
    checkLru(C, Profiles[P].Name + "/baseline",
             replayLru(cachedWorkload(Profiles[P]).Prog, kServedBudget,
                       Opts.Hierarchy.L1DSettings[0]),
             Local[P].Baseline);

  PaperFigures Fig = paperFigures(Wire);
  checkPaperFigures(C, Fig);

  Outcome O;
  O.Attempted = static_cast<uint64_t>(Round) * Cells.size();
  O.Failed = FailedCells;
  // cell_mips here is per second of lease: from dispatch to the worker's
  // committed result, fork, generation and calibration included.
  double CellMips = Served.LeaseSeconds > 0.0
                        ? Served.Cells * static_cast<double>(kServedBudget) /
                              Served.LeaseSeconds / 1e6
                        : 0.0;
  O.EndToEnd = {
      {"setup_s", SetupS, "s"},
      {"wall_s", median(SubmitS), "s"},
      {"cell_mips", CellMips, "MIPS"},
      {"peak_rss_mb", PeakRss, "MB"},
      {"l1d_energy_saved_pct", Fig.L1dSavedPct, "%"},
      {"l2_energy_saved_pct", Fig.L2SavedPct, "%"},
      {"slowdown_pct", Fig.SlowdownPct, "%"},
  };
  if (A.Trace) {
    LayerContext Ctx;
    Ctx.Profiles = &Profiles;
    Ctx.Opts = Opts;
    Ctx.Runs = &Wire;
    Ctx.Setup = &Setup;
    Ctx.Proofs = Proofs;
    Ctx.SetupRegistry = SetupRegistry;
    Ctx.PoolBusyRatio = BusyS / (Jobs * RefS);
    Ctx.Serve = Served;
    Ctx.Serve.Have = true; // Report what was read; never fall back.
    Ctx.Dir = &Dir;
    O.Layers = measureLayers(Ctx, C);
  }
  return O;
}

} // namespace perfbench
