//===- perfbench/src/SelfTest.cpp - The checks' own test ------------------===//
//
// Shows that every output check and every traced-run check can fail: each
// is first run on real, unperturbed results (and must pass), then on a
// copy with one field, count or stream element perturbed (and must fail,
// under its own name).
//
//===----------------------------------------------------------------------===//

#include "Checks.h"
#include "Daemon.h"
#include "Layers.h"
#include "Workloads.h"

#include <cstdio>
#include <cmath>
#include <functional>

#include <unistd.h>

using namespace dynace;

namespace perfbench {

namespace {

constexpr uint64_t kSelfTestBudget = 300'000;

struct Tally {
  unsigned Cases = 0;
  unsigned Bad = 0;
};

/// Runs \p Check on the unperturbed input (must pass) and on the perturbed
/// one (must fail as \p Name).
void expectCatches(Tally &T, const std::string &Name, const std::string &What,
                   const std::function<void(Checker &, bool Perturb)> &Check) {
  ++T.Cases;
  Checker Clean, Dirty;
  Check(Clean, false);
  Check(Dirty, true);
  bool Ok = Clean.ok() && Dirty.failed(Name);
  std::printf("%s %-15s %s\n", Ok ? "ok  " : "FAIL", Name.c_str(),
              What.c_str());
  if (!Clean.ok())
    std::printf("     unperturbed input failed: %s\n",
                Clean.failures().front().c_str());
  if (!Dirty.failed(Name))
    std::printf("     perturbation not caught\n");
  T.Bad += !Ok;
}

} // namespace

int runSelfTest() {
  const WorkloadProfile &P = specjvm98Profiles().front();
  const Program &Prog = cachedWorkload(P).Prog;
  SimulationOptions Opts = gridOptions(kSelfTestBudget);
  SimulationResult Res[3];
  const Scheme Schemes[3] = {Scheme::Baseline, Scheme::Bbv, Scheme::Hotspot};
  for (int I = 0; I != 3; ++I) {
    SimulationOptions O = Opts;
    O.SchemeKind = Schemes[I];
    System Sys(Prog, O);
    Res[I] = Sys.run();
  }
  const SimulationResult &Base = Res[0], &Hot = Res[2];
  Tally T;

  auto Cell = [&](int I, const std::function<void(SimulationResult &)> &Mut) {
    return [&, I, Mut](Checker &C, bool Perturb) {
      SimulationResult R = Res[I];
      if (Perturb)
        Mut(R);
      checkCell(C, "selftest", R, Schemes[I], Opts);
    };
  };
  expectCatches(T, "cell-budget", "one instruction short of the budget",
                Cell(2, [](SimulationResult &R) { R.Instructions -= 1; }));
  expectCatches(T, "cell-budget", "result of another scheme",
                Cell(1, [](SimulationResult &R) {
                  R.SchemeKind = Scheme::Hotspot;
                }));
  expectCatches(T, "cache-counts", "more L1D read misses than reads",
                Cell(0, [](SimulationResult &R) {
                  R.L1DStats.ReadMisses = R.L1DStats.Reads + 1;
                }));
  expectCatches(T, "cache-counts", "L1D misses that never reached L2",
                Cell(0, [](SimulationResult &R) {
                  R.L2Stats.Reads = R.L1DStats.misses() / 2;
                  R.L2Stats.Writes = 0;
                  R.L2Stats.ReadMisses = 0;
                  R.L2Stats.WriteMisses = 0;
                  R.L2AccessesBySetting = {R.L2Stats.accesses(), 0, 0, 0};
                }));
  expectCatches(T, "setting-sum", "an L1D access counted at two settings",
                Cell(2, [](SimulationResult &R) {
                  R.L1DAccessesBySetting.back() += 1;
                }));
  expectCatches(T, "baseline-fixed", "a baseline reconfiguration",
                Cell(0, [](SimulationResult &R) {
                  R.L2HardwareReconfigs = 1;
                }));
  expectCatches(T, "baseline-fixed", "a baseline access at a smaller setting",
                Cell(0, [](SimulationResult &R) {
                  R.L1DAccessesBySetting[0] -= 1;
                  R.L1DAccessesBySetting[1] += 1;
                }));
  expectCatches(T, "reconfig-guard", "L1D reconfigured inside its interval",
                Cell(2, [&Opts](SimulationResult &R) {
                  R.L1DHardwareReconfigs =
                      R.Instructions / Opts.L1DReconfigInterval + 2;
                }));
  expectCatches(T, "reconfig-guard", "L2 reconfigured inside its interval",
                Cell(1, [&Opts](SimulationResult &R) {
                  R.L2HardwareReconfigs =
                      R.Instructions / Opts.L2ReconfigInterval + 2;
                }));
  expectCatches(T, "ipc-range", "IPC above the issue width",
                Cell(0, [&Opts](SimulationResult &R) {
                  R.Cycles = R.Instructions / (Opts.Core.IssueWidth + 1);
                  R.Ipc = static_cast<double>(R.Instructions) /
                          static_cast<double>(R.Cycles);
                }));
  expectCatches(T, "ipc-range", "IPC that disagrees with the cycle count",
                Cell(2, [](SimulationResult &R) { R.Ipc *= 1.001; }));

  auto Same = [&](const std::function<void(SimulationResult &)> &Mut) {
    return [&, Mut](Checker &C, bool Perturb) {
      SimulationResult R = Hot;
      if (Perturb)
        Mut(R);
      checkSame(C, "selftest", Hot, R);
    };
  };
  expectCatches(T, "identity", "an energy off in the last digit",
                Same([](SimulationResult &R) {
                  R.L2Energy.Dynamic = std::nextafter(R.L2Energy.Dynamic, 0.0);
                }));
  expectCatches(T, "identity", "one metrics counter off by one",
                Same([](SimulationResult &R) {
                  R.Metrics.Counters["sim.batches"] += 1;
                }));

  std::vector<uint64_t> Stream;
  uint64_t Executed = forEachDataAddress(
      Prog, kSelfTestBudget, [&Stream](uint64_t A) { Stream.push_back(A); });
  const CacheGeometry &L1 = Opts.Hierarchy.L1DSettings[0];
  expectCatches(T, "lru-model", "one extra address in the stream",
                [&](Checker &C, bool Perturb) {
                  std::vector<uint64_t> S = Stream;
                  if (Perturb)
                    S.push_back(0x7fff'0000'0000ull);
                  checkLru(C, "selftest", replayLru(S, L1, Executed), Base);
                });
  expectCatches(T, "lru-model", "one L1D miss counted as a hit",
                [&](Checker &C, bool Perturb) {
                  SimulationResult R = Base;
                  if (Perturb)
                    R.L1DStats.ReadMisses -= 1;
                  checkLru(C, "selftest", replayLru(Prog, kSelfTestBudget, L1),
                           R);
                });

  expectCatches(T, "paper-figures", "a negative L2 saving",
                [](Checker &C, bool Perturb) {
                  PaperFigures F{19.1, 5.2, 5.04};
                  if (Perturb)
                    F.L2SavedPct = -6.5;
                  checkPaperFigures(C, F);
                });
  expectCatches(T, "warm-cache", "one cell simulated instead of loaded",
                [](Checker &C, bool Perturb) {
                  std::vector<RunStats> S(3);
                  for (RunStats &R : S)
                    R.CacheHit = true;
                  if (Perturb)
                    S[1].CacheHit = false;
                  checkAllHits(C, S);
                });

  // The traced run's own checks.
  ReplayFacts Good;
  Good.Budget = Good.Recorded = Good.CoreInsts = kSelfTestBudget;
  Good.CondBranches = Good.PredLookups = 1234;
  Good.ReplayL1d = Good.SystemL1d = Base.L1DStats;
  auto Replay = [&](const std::function<void(ReplayFacts &)> &Mut) {
    return [&, Mut](Checker &C, bool Perturb) {
      ReplayFacts F = Good;
      if (Perturb)
        Mut(F);
      checkReplay(C, "selftest", F);
    };
  };
  expectCatches(T, "trace-replay", "a recording one instruction short",
                Replay([](ReplayFacts &F) { F.Recorded -= 1; }));
  expectCatches(T, "trace-replay", "a core that skipped a batch",
                Replay([](ReplayFacts &F) { F.CoreInsts -= 1024; }));
  expectCatches(T, "trace-replay", "a predictor that missed a branch",
                Replay([](ReplayFacts &F) { F.PredLookups -= 1; }));
  expectCatches(T, "trace-l1d", "a replayed L1D that differs by one miss",
                Replay([](ReplayFacts &F) { F.ReplayL1d.WriteMisses += 1; }));
  ServeFacts GoodServe;
  GoodServe.Have = true;
  GoodServe.Cells = 21;
  GoodServe.Dispatches = 21;
  GoodServe.LeaseMsP50 = 40.0;
  auto Serve = [&](const std::function<void(ServeFacts &)> &Mut) {
    return [&, Mut](Checker &C, bool Perturb) {
      ServeFacts F = GoodServe;
      if (Perturb)
        Mut(F);
      checkServeFacts(C, F);
    };
  };
  expectCatches(T, "trace-serve", "no metrics dump",
                Serve([](ServeFacts &F) { F.Have = false; }));
  expectCatches(T, "trace-serve", "a cell neither dispatched nor inline",
                Serve([](ServeFacts &F) { F.Dispatches = 20; }));
  expectCatches(T, "trace-serve", "no lease latency recorded",
                Serve([](ServeFacts &F) { F.LeaseMsP50 = 0.0; }));
  expectCatches(T, "trace-serve", "a dump without serve counters",
                [](Checker &C, bool Perturb) {
                  std::string Dump =
                      "{\"counters\": {\"serve.cells.total\": 21, "
                      "\"serve.dispatches\": 21, \"serve.grids\": 1}, "
                      "\"histograms\": {\"serve.lease.latency_ms\": "
                      "{\"count\": 21, \"sum\": 840, \"buckets\": "
                      "[0, 0, 0, 0, 0, 0, 21]}}}";
                  if (Perturb)
                    Dump.replace(Dump.find("serve.dispatches"), 5, "xxxxx");
                  checkServeFacts(C, serveFactsFromDump(Dump));
                });

  expectCatches(T, "processes", "a child left running",
                [](Checker &C, bool Perturb) {
                  if (Perturb) {
                    pid_t P = ::fork();
                    if (P == 0) {
                      ::pause();
                      ::_exit(0);
                    }
                  }
                  checkNoStrays(C, "selftest", reapDescendants());
                });

  std::printf("selftest: %u of %u perturbations caught\n", T.Cases - T.Bad,
              T.Cases);
  return T.Bad == 0 ? 0 : 1;
}

} // namespace perfbench
