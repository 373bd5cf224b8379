//===- perfbench/src/Layers.h - Per-layer measurements ----------*- C++ -*-===//
//
// Part of the DynACE project (CGO 2005 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's per-layer metrics. Every time is taken by perfbench
/// around calls into a layer's public functions; nothing inside the
/// program is instrumented. The in-run layers follow the record-and-replay
/// method: one pass records each program's DynInst batches from the
/// interpreter, the batches are replayed through Core::consumeBatch, a
/// standalone MemoryHierarchy, a standalone BranchPredictor and
/// BbvManager::onInstructionBatch, and the DO/ACE hook cost is what
/// remains of a full System::runChecked of the same instructions.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_LAYERS_H
#define PERFBENCH_LAYERS_H

#include "Common.h"

#include "cache/Cache.h"
#include "obs/Metrics.h"

#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Serve-layer facts, per grid, either read from a dynace-serve daemon's
/// metrics dump (grid-served) or measured by an in-process serve probe.
struct ServeFacts {
  bool Have = false;
  double LeaseMsP50 = 0.0;
  /// Summed lease durations of a grid's cells, from dispatch to the
  /// committed result.
  double LeaseSeconds = 0.0;
  double Dispatches = 0.0;
  double Redispatches = 0.0;
  double InlineCells = 0.0;
  double JournalBytes = 0.0;
  double Cells = 0.0;
  /// The fleet's kernel selection: calibration bursts and picks per
  /// variant (vm.specialize.* counters the workers shipped).
  double Calibrations = 0.0;
  std::map<std::string, double> Picks;
};

/// Everything a workload hands to the per-layer measurement.
struct LayerContext {
  const std::vector<dynace::WorkloadProfile> *Profiles = nullptr;
  /// Options of the workload's cells (budget included).
  dynace::SimulationOptions Opts;
  /// The workload's grid results (one BenchmarkRun per profile).
  const std::vector<dynace::BenchmarkRun> *Runs = nullptr;
  /// Set-up spans (generate, finalize, proof, select) and proof coverage.
  const SpanLog *Setup = nullptr;
  ProofCoverage Proofs;
  /// Process metrics registry right after set-up (kernel picks).
  dynace::MetricsSnapshot SetupRegistry;
  /// Σ cell seconds / (jobs × wall) of the workload's in-process grids.
  double PoolBusyRatio = 0.0;
  /// Read from the workload's daemon; when empty, a one-submission serve
  /// probe against a fresh daemon started from ServeBin measures them.
  ServeFacts Serve;
  std::string ServeBin;
  const RunDir *Dir = nullptr;
};

/// Measures every per-layer metric, running the replay battery and, when
/// \p Ctx.Serve is empty, the serve probe. Appends the layer checks'
/// verdicts to \p C. Throws HarnessError when the probe cannot run.
std::vector<Metric> measureLayers(const LayerContext &Ctx, Checker &C);

/// What one program's replay saw; the traced run's own checks read it.
struct ReplayFacts {
  uint64_t Budget = 0;
  uint64_t Recorded = 0;     ///< Instructions recorded from the VM.
  uint64_t CoreInsts = 0;    ///< Instructions the replayed Core retired.
  uint64_t CondBranches = 0; ///< Conditional branches recorded.
  uint64_t PredLookups = 0;  ///< Lookups the standalone predictor made.
  dynace::CacheStats ReplayL1d; ///< Standalone hierarchy's L1D.
  dynace::CacheStats SystemL1d; ///< Baseline System run of the same budget.
};

/// trace-replay: the replay saw exactly the budget, and every layer saw
/// every recorded instruction (branch) once. trace-l1d: the standalone
/// hierarchy's L1D counts equal the baseline System run's.
void checkReplay(Checker &C, const std::string &Cell, const ReplayFacts &F);

/// trace-serve: facts were measured, cover the whole grid
/// (dispatches + inline cells >= cells), and the p50 lease is positive.
void checkServeFacts(Checker &C, const ServeFacts &F);

/// \returns the median of a log2-bucket histogram: the bucket
///          HistogramSnapshot::percentileLowerBound(0.5) names, interpolated
///          linearly inside it. (The bucket bound alone would read 64 ms for
///          every lease between 64 and 127 ms.)
double histogramMedian(const dynace::HistogramSnapshot &H);

/// Reads per-grid serve facts (totals over serve.grids), and the fleet's
/// kernel-selection counters, from a dynace-serve DYNACE_METRICS dump. \returns facts with Have = false when
/// a field is missing.
ServeFacts serveFactsFromDump(const std::string &Json);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_H
