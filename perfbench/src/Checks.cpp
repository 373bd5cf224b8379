//===- perfbench/src/Checks.cpp - Output checks ---------------------------===//

#include "Checks.h"

#include "sim/ResultCache.h"

#include <algorithm>
#include <cmath>
#include <numeric>

using namespace dynace;

namespace perfbench {

namespace {

std::string num(uint64_t V) { return std::to_string(V); }

uint64_t sum(const std::vector<uint64_t> &V) {
  return std::accumulate(V.begin(), V.end(), uint64_t(0));
}

void checkLevel(Checker &C, const std::string &Cell, const char *Level,
                const CacheStats &St, const std::vector<uint64_t> &BySetting) {
  const std::string Where = Cell + " " + Level;
  C.expect(St.ReadMisses <= St.Reads && St.WriteMisses <= St.Writes &&
               St.accesses() != 0,
           "cache-counts",
           Where + ": read hits " + num(St.Reads - St.ReadMisses) +
               " + misses " + num(St.ReadMisses) + " vs reads " +
               num(St.Reads) + ", write misses " + num(St.WriteMisses) +
               " vs writes " + num(St.Writes));
  C.expect(sum(BySetting) == St.accesses(), "setting-sum",
           Where + ": per-setting accesses sum to " + num(sum(BySetting)) +
               ", level total " + num(St.accesses()));
}

} // namespace

void checkCell(Checker &C, const std::string &Cell, const SimulationResult &R,
               Scheme S, const SimulationOptions &Opts) {
  C.expect(R.SchemeKind == S && R.Instructions == Opts.MaxInstructions,
           "cell-budget",
           Cell + ": retired " + num(R.Instructions) + " of a budget of " +
               num(Opts.MaxInstructions) + " (scheme " +
               schemeName(R.SchemeKind) + ")");
  checkLevel(C, Cell, "L1D", R.L1DStats, R.L1DAccessesBySetting);
  checkLevel(C, Cell, "L2", R.L2Stats, R.L2AccessesBySetting);
  C.expect(R.L2Stats.accesses() >= R.L1DStats.misses(), "cache-counts",
           Cell + ": " + num(R.L1DStats.misses()) + " L1D misses but only " +
               num(R.L2Stats.accesses()) + " L2 accesses");

  if (S == Scheme::Baseline) {
    bool Fixed = R.L1DHardwareReconfigs == 0 && R.L2HardwareReconfigs == 0 &&
                 !R.L1DAccessesBySetting.empty() &&
                 !R.L2AccessesBySetting.empty() &&
                 R.L1DAccessesBySetting[0] == R.L1DStats.accesses() &&
                 R.L2AccessesBySetting[0] == R.L2Stats.accesses();
    C.expect(Fixed, "baseline-fixed",
             Cell + ": " + num(R.L1DHardwareReconfigs) + "/" +
                 num(R.L2HardwareReconfigs) +
                 " L1D/L2 reconfigurations, largest-setting share " +
                 num(R.L1DAccessesBySetting.empty()
                         ? 0
                         : R.L1DAccessesBySetting[0]) +
                 " of " + num(R.L1DStats.accesses()) + " L1D accesses");
  } else {
    uint64_t L1Cap = R.Instructions / Opts.L1DReconfigInterval + 1;
    uint64_t L2Cap = R.Instructions / Opts.L2ReconfigInterval + 1;
    C.expect(R.L1DHardwareReconfigs <= L1Cap &&
                 R.L2HardwareReconfigs <= L2Cap,
             "reconfig-guard",
             Cell + ": " + num(R.L1DHardwareReconfigs) + " L1D (cap " +
                 num(L1Cap) + ") and " + num(R.L2HardwareReconfigs) +
                 " L2 (cap " + num(L2Cap) + ") reconfigurations");
  }

  double Width = static_cast<double>(Opts.Core.IssueWidth);
  double Ratio = R.Cycles ? static_cast<double>(R.Instructions) /
                                static_cast<double>(R.Cycles)
                          : 0.0;
  C.expect(R.Ipc > 0.0 && R.Ipc <= Width &&
               std::fabs(R.Ipc - Ratio) <= 1e-9 * Ratio,
           "ipc-range",
           Cell + ": IPC " + std::to_string(R.Ipc) + ", instructions/cycles " +
               std::to_string(Ratio) + ", issue width " +
               std::to_string(Opts.Core.IssueWidth));
}

void checkGrid(Checker &C, const std::vector<BenchmarkRun> &Runs,
               const SimulationOptions &Opts) {
  for (const BenchmarkRun &R : Runs) {
    C.expect(R.complete(), "cell-budget",
             R.Name + ": a cell failed: " + R.failureLabel());
    checkCell(C, R.Name + "/baseline", R.Baseline, Scheme::Baseline, Opts);
    checkCell(C, R.Name + "/bbv", R.Bbv, Scheme::Bbv, Opts);
    checkCell(C, R.Name + "/hotspot", R.Hotspot, Scheme::Hotspot, Opts);
  }
}

void checkPaperFigures(Checker &C, const PaperFigures &F) {
  C.expect(F.L1dSavedPct > 0.0 && F.L2SavedPct > 0.0 && F.SlowdownPct > 0.0,
           "paper-figures",
           "hotspot vs baseline: L1D saved " + std::to_string(F.L1dSavedPct) +
               "%, L2 saved " + std::to_string(F.L2SavedPct) +
               "%, slowdown " + std::to_string(F.SlowdownPct) + "%");
}

void checkAllHits(Checker &C, const std::vector<RunStats> &Stats) {
  // Runs inside grid-warm's timed loop: build a message only on failure.
  for (const RunStats &S : Stats)
    if (!S.CacheHit || S.Failed)
      C.expect(false, "warm-cache",
               S.Benchmark + "/" + schemeName(S.SchemeKind) +
                   " was not served from the populated cache");
}

void checkSame(Checker &C, const std::string &What, const SimulationResult &A,
               const SimulationResult &B) {
  std::string SA = serializeResult(A);
  std::string SB = serializeResult(B);
  if (SA == SB)
    return;
  // Name the first differing field line.
  size_t I = 0;
  while (I < SA.size() && I < SB.size() && SA[I] == SB[I])
    ++I;
  size_t LineStart = SA.rfind('\n', I == 0 ? 0 : I - 1);
  LineStart = LineStart == std::string::npos ? 0 : LineStart + 1;
  auto LineAt = [LineStart](const std::string &S) {
    size_t End = S.find('\n', LineStart);
    return S.substr(LineStart, End == std::string::npos ? std::string::npos
                                                        : End - LineStart);
  };
  C.expect(false, "identity",
           What + ": first difference '" + LineAt(SA) + "' vs '" +
               LineAt(SB) + "'");
}

LruModel::LruModel(const CacheGeometry &G)
    : BlockBytes(G.BlockBytes), NumSets(G.SizeBytes / (G.BlockBytes * G.Assoc)),
      Assoc(G.Assoc), Sets(NumSets) {}

bool LruModel::access(uint64_t Addr) {
  uint64_t Block = Addr / BlockBytes;
  std::vector<uint64_t> &Set = Sets[Block % NumSets];
  uint64_t Tag = Block / NumSets;
  auto It = std::find(Set.begin(), Set.end(), Tag);
  if (It != Set.end()) {
    Set.erase(It);
    Set.insert(Set.begin(), Tag);
    ++Hits;
    return true;
  }
  if (Set.size() == Assoc)
    Set.pop_back();
  Set.insert(Set.begin(), Tag);
  ++Misses;
  return false;
}

uint64_t forEachDataAddress(const Program &Prog, uint64_t Budget,
                            const std::function<void(uint64_t)> &Visit) {
  Interpreter Vm(Prog);
  DynInst Buf[kBatchCap];
  driveLikeRunLoop(Vm, Budget, Buf, [&](size_t N) {
    for (size_t I = 0; I != N; ++I)
      if (Buf[I].Class == OpClass::Load || Buf[I].Class == OpClass::Store)
        Visit(Buf[I].MemAddr);
  });
  return Vm.instructionCount();
}

LruCounts replayLru(const std::vector<uint64_t> &Addrs, const CacheGeometry &G,
                    uint64_t Instructions) {
  LruModel M(G);
  for (uint64_t A : Addrs)
    M.access(A);
  return {Instructions, M.hits(), M.misses()};
}

LruCounts replayLru(const Program &Prog, uint64_t Budget,
                    const CacheGeometry &G) {
  LruModel M(G);
  uint64_t N =
      forEachDataAddress(Prog, Budget, [&M](uint64_t A) { M.access(A); });
  return {N, M.hits(), M.misses()};
}

void checkLru(Checker &C, const std::string &Cell, const LruCounts &M,
              const SimulationResult &Baseline) {
  const CacheStats &St = Baseline.L1DStats;
  C.expect(M.Instructions == Baseline.Instructions &&
               M.Hits == St.accesses() - St.misses() &&
               M.Misses == St.misses(),
           "lru-model",
           Cell + ": textbook LRU " + num(M.Hits) + " hits / " +
               num(M.Misses) + " misses over " + num(M.Instructions) +
               " instructions; simulator " +
               num(St.accesses() - St.misses()) + " / " + num(St.misses()) +
               " over " + num(Baseline.Instructions));
}

} // namespace perfbench
