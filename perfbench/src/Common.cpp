//===- perfbench/src/Common.cpp - Shared benchmark plumbing ---------------===//

#include "Common.h"

#include "analysis/Dataflow.h"
#include "analysis/Verifier.h"
#include "sim/Reports.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <sstream>

#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

extern char **environ;

using namespace dynace;

namespace perfbench {

Clock::time_point ProcessStart;

double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

void Checker::expect(bool Ok, const std::string &Check,
                     const std::string &Detail) {
  if (!Ok)
    Failures.push_back(Check + ": " + Detail);
}

bool Checker::failed(const std::string &Check) const {
  for (const std::string &F : Failures)
    if (F.compare(0, Check.size() + 1, Check + ":") == 0)
      return true;
  return false;
}

double SpanLog::close(const char *Layer, const std::string &Name,
                      Clock::time_point Start) {
  Span S;
  S.Layer = Layer;
  S.Name = Name;
  S.DurUs =
      std::chrono::duration<double, std::micro>(Clock::now() - Start).count();
  Spans.push_back(S);
  return S.DurUs / 1e6;
}

double SpanLog::total(const char *Layer, const std::string &Name) const {
  double Us = 0.0;
  for (const Span &S : Spans)
    if (S.Layer == Layer && (Name.empty() || S.Name == Name))
      Us += S.DurUs;
  return Us / 1e6;
}

RunDir makeRunDir(const std::string &Workload) {
  ::mkdir(".bench_runs", 0755);
  RunDir D;
  D.Path = ".bench_runs/" + Workload + "-" + std::to_string(::getpid());
  removeTree(D.Path); // A dead run with a recycled pid left it behind.
  if (::mkdir(D.Path.c_str(), 0755) != 0)
    throw HarnessError{"cannot create run directory " + D.Path + ": " +
                       std::strerror(errno)};
  return D;
}

void removeTree(const std::string &Dir) {
  std::error_code Ec;
  std::filesystem::remove_all(Dir, Ec);
}

void setCacheDir(const std::string &Dir) {
  if (Dir.empty())
    ::unsetenv("DYNACE_CACHE_DIR");
  else
    ::setenv("DYNACE_CACHE_DIR", Dir.c_str(), 1);
}

void scrubProgramEnvironment() {
  std::vector<std::string> Names;
  for (char **E = environ; *E; ++E)
    if (std::strncmp(*E, "DYNACE_", 7) == 0) {
      const char *Eq = std::strchr(*E, '=');
      Names.emplace_back(*E, Eq ? static_cast<size_t>(Eq - *E)
                                : std::strlen(*E));
    }
  for (const std::string &N : Names)
    ::unsetenv(N.c_str());
}

namespace {
unsigned onlineCpusUpTo(long Max) {
  long N = ::sysconf(_SC_NPROCESSORS_ONLN);
  return static_cast<unsigned>(std::clamp<long>(N, 1, Max));
}
} // namespace

unsigned gridJobs() { return onlineCpusUpTo(2); }

unsigned serveWorkers() { return onlineCpusUpTo(4); }

std::vector<WorkloadProfile> gridProfiles(uint64_t Seed) {
  std::vector<WorkloadProfile> Out = specjvm98Profiles();
  if (Seed == 0)
    return Out;
  for (WorkloadProfile &P : Out) {
    P.Seed += Seed * 1000003ull;
    P.Name += ".s" + std::to_string(Seed);
  }
  return Out;
}

SimulationOptions gridOptions(uint64_t Budget) {
  SimulationOptions Opts;
  Opts.MaxInstructions = Budget;
  return Opts;
}

ProofCoverage prepareGrid(const std::vector<WorkloadProfile> &Profiles,
                          SpanLog *Spans) {
  ProofCoverage Cov;
  for (const WorkloadProfile &P : Profiles) {
    Clock::time_point T0 = Clock::now();
    const GeneratedWorkload &W = cachedWorkload(P);
    if (Spans) {
      Spans->close("workloads", "generate", T0);
      // The generator already ran these inside its strict finalize; the
      // traced run times them again on their own to split the layers.
      T0 = Clock::now();
      Status S = analysis::verifyProgramStatus(W.Prog);
      Spans->close("analysis", "finalize", T0);
      if (!S)
        throw HarnessError{"verifier rejected " + P.Name + ": " +
                           S.toString()};
      T0 = Clock::now();
      analysis::ProofSet Proofs = analysis::computeProofSet(W.Prog);
      Spans->close("analysis", "proof", T0);
      for (MethodId Id = 0; Id != W.Prog.numMethods(); ++Id) {
        const std::vector<Instruction> &Code = W.Prog.method(Id).Code;
        for (uint32_t I = 0; I != Code.size(); ++I) {
          OpClass K = opClassOf(Code[I].Op);
          if (K != OpClass::Load && K != OpClass::Store)
            continue;
          ++Cov.MemOps;
          Cov.ProvenMem += Proofs.has(Id, I, analysis::DF_MemInBounds);
        }
      }
    }
    T0 = Clock::now();
    SimulationOptions One = gridOptions(1);
    System Sys(W.Prog, One);
    Expected<SimulationResult> R = Sys.runChecked();
    if (Spans)
      Spans->close("vm", "select", T0);
    if (!R)
      throw HarnessError{"kernel selection run of " + P.Name +
                         " failed: " + R.status().toString()};
  }
  return Cov;
}

double peakRssMb() {
  rusage Self{}, Children{};
  ::getrusage(RUSAGE_SELF, &Self);
  ::getrusage(RUSAGE_CHILDREN, &Children);
  return static_cast<double>(std::max(Self.ru_maxrss, Children.ru_maxrss)) /
         1024.0;
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

std::vector<const SimulationResult *>
gridResults(const std::vector<BenchmarkRun> &Runs) {
  std::vector<const SimulationResult *> Out;
  for (const BenchmarkRun &R : Runs) {
    Out.push_back(&R.Baseline);
    Out.push_back(&R.Bbv);
    Out.push_back(&R.Hotspot);
  }
  return Out;
}

PaperFigures paperFigures(const std::vector<BenchmarkRun> &Runs) {
  PaperFigures F;
  if (Runs.empty())
    return F;
  for (const BenchmarkRun &R : Runs) {
    F.L1dSavedPct += 100.0 * BenchmarkRun::reduction(
                                 R.Hotspot.L1DEnergy.total(),
                                 R.Baseline.L1DEnergy.total());
    F.L2SavedPct += 100.0 * BenchmarkRun::reduction(
                                R.Hotspot.L2Energy.total(),
                                R.Baseline.L2Energy.total());
    F.SlowdownPct +=
        100.0 * BenchmarkRun::slowdown(R.Hotspot.Cycles, R.Baseline.Cycles);
  }
  double N = static_cast<double>(Runs.size());
  F.L1dSavedPct /= N;
  F.L2SavedPct /= N;
  F.SlowdownPct /= N;
  return F;
}

std::string renderPaperTable(unsigned Index,
                             const std::vector<BenchmarkRun> &Runs) {
  std::ostringstream OS;
  switch (Index) {
  case 0:
    printFigure1(OS, Runs);
    break;
  case 1:
    printTable1(OS, Runs);
    break;
  case 2:
    printTable4(OS, Runs);
    break;
  case 3:
    printTable5(OS, Runs);
    break;
  case 4:
    printTable6(OS, Runs);
    break;
  case 5:
    printFigure3(OS, Runs);
    break;
  default:
    printFigure4(OS, Runs);
    break;
  }
  return OS.str();
}

} // namespace perfbench
