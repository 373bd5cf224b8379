//===- perfbench/src/main.cpp - Benchmark entry point ---------------------===//
//
// Part of the DynACE project (CGO 2005 reproduction).
//
//===----------------------------------------------------------------------===//
//
// perfbench — runs one benchmark workload, checks the program's outputs and
// prints every metric by name with its unit. The last line of standard
// output is one JSON object:
//
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Untraced (--trace 0) it holds the end-to-end metrics, traced (--trace 1)
// the per-layer ones. Usually started through perfbench/run.py, which
// builds it first:
//
//   perfbench --workload grid-cold|grid-served|grid-warm --seed N
//             --seconds S --trace 0|1 --serve-bin PATH
//   perfbench --selftest
//
// Exit status: 0 when every output check passed, 1 when a check failed
// (the result line then says "correct": false and the failed checks are
// listed above it) or the harness itself failed (no result line), 2 on a
// usage error.
//
//===----------------------------------------------------------------------===//

#include "Daemon.h"
#include "Workloads.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include <fcntl.h>
#include <unistd.h>

using namespace perfbench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload grid-cold|grid-served|grid-warm "
               "--seed N --seconds S --trace 0|1 --serve-bin PATH\n"
               "       perfbench --selftest\n");
  return 2;
}

bool parseUnsigned(const char *Text, uint64_t Max, uint64_t &Out) {
  if (!Text || !*Text)
    return false;
  char *End = nullptr;
  errno = 0;
  unsigned long long V = std::strtoull(Text, &End, 10);
  if (*End || errno != 0 || V > Max || Text[0] == '-')
    return false;
  Out = V;
  return true;
}

void printMetrics(const std::vector<Metric> &Ms) {
  for (size_t I = 0; I != Ms.size(); ++I)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", Ms[I].Name.c_str(), Ms[I].Value,
                Ms[I].Unit.c_str());
}

void printTable(const char *Title, const std::vector<Metric> &Ms) {
  std::printf("%s\n", Title);
  for (const Metric &M : Ms)
    std::printf("  %-28s %14.6g %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str());
}

} // namespace

int main(int argc, char **argv) {
  ProcessStart = Clock::now();
  becomeSubreaper();
  scrubProgramEnvironment();

  Args A;
  bool SelfTest = false, HaveSeed = false, HaveSeconds = false,
       HaveTrace = false;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    const char *Val = I + 1 < argc ? argv[I + 1] : nullptr;
    uint64_t N = 0;
    if (Arg == "--selftest") {
      SelfTest = true;
    } else if (Arg == "--workload" && Val) {
      A.Workload = Val;
      ++I;
    } else if (Arg == "--serve-bin" && Val) {
      A.ServeBin = Val;
      ++I;
    } else if (Arg == "--seed" && parseUnsigned(Val, ~0ull >> 24, N)) {
      A.Seed = N;
      HaveSeed = true;
      ++I;
    } else if (Arg == "--seconds" && parseUnsigned(Val, 3600, N) && N != 0) {
      A.Seconds = static_cast<unsigned>(N);
      HaveSeconds = true;
      ++I;
    } else if (Arg == "--trace" && parseUnsigned(Val, 1, N)) {
      A.Trace = N == 1;
      HaveTrace = true;
      ++I;
    } else {
      return usage();
    }
  }

  if (SelfTest)
    return runSelfTest();
  if (!HaveSeed || !HaveSeconds || !HaveTrace ||
      (A.Workload != "grid-cold" && A.Workload != "grid-served" &&
       A.Workload != "grid-warm") ||
      (A.ServeBin.empty() && (A.Workload == "grid-served" || A.Trace)))
    return usage();

  RunDir Dir;
  Checker C;
  Outcome O;
  // The program logs one progress line per cell to stderr; it goes to the
  // run directory so a caller that does not drain stderr cannot stall the
  // run, and is shown when the run fails.
  int RealErr = ::dup(2);
  auto RestoreStderr = [RealErr] {
    std::fflush(stderr);
    ::dup2(RealErr, 2);
  };
  try {
    Dir = makeRunDir(A.Workload);
    int Log = ::open(Dir.file("program.log").c_str(),
                     O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (Log >= 0) {
      ::dup2(Log, 2);
      ::close(Log);
    }
    if (A.Workload == "grid-cold")
      O = runGridCold(A, Dir, C);
    else if (A.Workload == "grid-served")
      O = runGridServed(A, Dir, C);
    else
      O = runGridWarm(A, Dir, C);
  } catch (const HarnessError &E) {
    RestoreStderr();
    reapDescendants();
    std::fprintf(stderr, "perfbench: %s: harness failure: %s\n",
                 A.Workload.c_str(), E.Message.c_str());
    if (!Dir.Path.empty())
      std::fprintf(stderr, "perfbench: run directory kept: %s\n",
                   Dir.Path.c_str());
    return 1;
  }
  RestoreStderr();
  checkNoStrays(C, "after the run", reapDescendants());

  std::printf("perfbench %s seed %llu, %u s%s\n", A.Workload.c_str(),
              static_cast<unsigned long long>(A.Seed), A.Seconds,
              A.Trace ? ", traced" : "");
  printTable("end to end:", O.EndToEnd);
  if (A.Trace)
    printTable("per layer:", O.Layers);
  for (const std::string &F : C.failures()) {
    std::printf("CHECK FAILED %s\n", F.c_str());
    std::fprintf(stderr, "perfbench: CHECK FAILED %s\n", F.c_str());
  }
  if (C.ok())
    removeTree(Dir.Path);
  else
    std::printf("run directory: %s\n", Dir.Path.c_str());

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              C.ok() ? "true" : "false",
              static_cast<unsigned long long>(O.Attempted),
              static_cast<unsigned long long>(O.Failed));
  printMetrics(A.Trace ? O.Layers : O.EndToEnd);
  std::printf("}}\n");
  std::fflush(stdout);
  return C.ok() ? 0 : 1;
}
