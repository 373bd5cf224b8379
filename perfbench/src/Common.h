//===- perfbench/src/Common.h - Shared benchmark plumbing -------*- C++ -*-===//
//
// Part of the DynACE project (CGO 2005 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Declarations shared by the perfbench workloads: command-line options,
/// the metric and check records every workload returns, the per-run
/// scratch directory, the span log of traced runs, and the set-up steps
/// (profile reseeding, generation, kernel selection) all three workloads
/// share.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include "sim/ExperimentRunner.h"
#include "vm/Interpreter.h"
#include "workloads/WorkloadProfile.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// \returns host seconds elapsed since \p Start.
double secondsSince(Clock::time_point Start);

/// Wall-clock instant main() was entered; set-up time counts from here.
extern Clock::time_point ProcessStart;

/// Parsed command line.
struct Args {
  std::string Workload;
  uint64_t Seed = 0;
  unsigned Seconds = 10;
  bool Trace = false;
  /// Path of the dynace-serve binary built next to perfbench.
  std::string ServeBin;
};

/// One reported number.
struct Metric {
  std::string Name;
  double Value = 0.0;
  std::string Unit;
};

/// Collects output-check verdicts. Every failure names its check, so a
/// failing run says which property broke and on which cell.
class Checker {
public:
  /// Records a failure of \p Check when \p Ok is false.
  void expect(bool Ok, const std::string &Check, const std::string &Detail);
  bool ok() const { return Failures.empty(); }
  const std::vector<std::string> &failures() const { return Failures; }
  /// \returns true when some failure names \p Check.
  bool failed(const std::string &Check) const;

private:
  std::vector<std::string> Failures;
};

/// What one workload run produces. EndToEnd is measured in every run;
/// Layers only in a traced one.
struct Outcome {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<Metric> EndToEnd;
  std::vector<Metric> Layers;
};

/// A harness failure (daemon would not start, socket error, ...): the run
/// stops and prints Message without a result line.
struct HarnessError {
  std::string Message;
};

/// Span log of a traced run: the benchmark records one span around each
/// set-up call it makes into a layer and sums them per layer.
class SpanLog {
public:
  /// Records a span of layer \p Layer named \p Name from \p Start to now.
  /// \returns its duration in seconds.
  double close(const char *Layer, const std::string &Name,
               Clock::time_point Start);
  /// \returns the summed duration of every span of \p Layer named
  ///          \p Name (all names when empty), in seconds.
  double total(const char *Layer, const std::string &Name = "") const;

private:
  struct Span {
    std::string Layer;
    std::string Name;
    double DurUs = 0.0;
  };
  std::vector<Span> Spans;
};

/// The per-run scratch directory (.bench_runs/<workload>-<pid> under the
/// checkout root): every cache, socket, journal and log of the run lives
/// here. Removed when every check passed.
struct RunDir {
  std::string Path;
  /// \returns Path + "/" + \p Name.
  std::string file(const std::string &Name) const { return Path + "/" + Name; }
};

/// Creates the run directory for \p Workload. Throws HarnessError.
RunDir makeRunDir(const std::string &Workload);

/// Removes \p Dir and everything under it.
void removeTree(const std::string &Dir);

/// Points the program's result cache at \p Dir (empty disables it).
void setCacheDir(const std::string &Dir);

/// Clears every DYNACE_* variable inherited from the caller, so a run
/// uses the program's defaults whatever the shell exported.
void scrubProgramEnvironment();

/// Threads of the in-process grids (grid-cold, grid-warm): min(2, online
/// CPUs). Half of a 4-vCPU host stays free, so a round's time moves less
/// with what else the host runs.
unsigned gridJobs();

/// Daemon workers of grid-served and of the traced runs' serve probe:
/// min(4, online CPUs).
unsigned serveWorkers();

/// The seven SPECjvm98-like profiles. Seed 0 keeps their built-in seeds;
/// any other seed reseeds copies, which are renamed "<name>.s<seed>" so
/// their generated programs and cache keys never alias the built-ins.
std::vector<dynace::WorkloadProfile> gridProfiles(uint64_t Seed);

/// Default simulation options with a per-cell instruction budget.
dynace::SimulationOptions gridOptions(uint64_t Budget);

/// Set-up shared by all workloads: generate each program (strict
/// finalize and verification run inside the generator) and select its
/// interpreter kernel by running a one-instruction System, which is where
/// the program's default kernel selection (`auto`) builds its images,
/// computes dataflow proofs and calibrates. With \p Spans set, each call
/// is recorded, and the verifier and the proof pass are additionally
/// timed on their own (their proof coverage is returned).
struct ProofCoverage {
  uint64_t MemOps = 0;    ///< Load/Store instructions in the programs.
  uint64_t ProvenMem = 0; ///< ... whose address is proven in bounds.
};
ProofCoverage prepareGrid(const std::vector<dynace::WorkloadProfile> &Profiles,
                          SpanLog *Spans);

constexpr size_t kBatchCap = 1024; ///< System::runLoop's batch cap.

/// Drives \p Vm through its first \p Budget instructions with
/// System::runLoop's batching: stepBatch stops before each method
/// boundary, step() executes the boundary, and the boundary instruction
/// rides at the head of the next batch. Each batch lands in Buf[0, N) and
/// is handed to \p OnBatch(N). \returns the boundaries executed.
template <typename BatchFn>
uint64_t driveLikeRunLoop(dynace::Interpreter &Vm, uint64_t Budget,
                          dynace::DynInst *Buf, BatchFn &&OnBatch) {
  uint64_t Boundaries = 0;
  size_t Pending = 0;
  while (!Vm.isHalted() && !Vm.trapped() && Vm.instructionCount() < Budget) {
    size_t Limit = static_cast<size_t>(
        std::min<uint64_t>(kBatchCap, Budget - Vm.instructionCount()));
    size_t N = Pending;
    if (Limit > Pending)
      N += Vm.stepBatch(Buf + Pending, Limit - Pending);
    const bool Stalled = N == Pending && Limit > Pending;
    if (N != 0) {
      OnBatch(N);
      Pending = 0;
    }
    if (!Stalled || Vm.isHalted())
      continue;
    ++Boundaries;
    if (Vm.step(Buf[0]) == dynace::Interpreter::Status::Trapped)
      break;
    Pending = 1;
  }
  if (Pending)
    OnBatch(Pending);
  return Boundaries;
}

/// \returns max(peak RSS of this process, of its reaped children), MB.
double peakRssMb();

/// \returns the median of \p V (0 when empty).
double median(std::vector<double> V);

/// \returns every result of \p Runs in grid order (baseline, bbv,
///          hotspot per profile).
std::vector<const dynace::SimulationResult *>
gridResults(const std::vector<dynace::BenchmarkRun> &Runs);

/// Mean over programs of hotspot-vs-baseline L1D/L2 energy saved and
/// cycle slowdown, in percent.
struct PaperFigures {
  double L1dSavedPct = 0.0;
  double L2SavedPct = 0.0;
  double SlowdownPct = 0.0;
};
PaperFigures paperFigures(const std::vector<dynace::BenchmarkRun> &Runs);

/// Number of paper tables/figures rendered from a grid (Figures 1, 3, 4
/// and Tables 1, 4, 5, 6 — one paper-table binary each).
inline constexpr unsigned kPaperTables = 7;

/// Renders paper table/figure \p Index (< kPaperTables) from \p Runs, as
/// its paper-table binary prints it.
std::string renderPaperTable(unsigned Index,
                             const std::vector<dynace::BenchmarkRun> &Runs);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
