//===- perfbench/src/Workloads.h - The benchmark workloads ------*- C++ -*-===//
//
// Part of the DynACE project (CGO 2005 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three workloads. Each prepares its inputs (set-up, timed into
/// setup_s), runs whole rounds of the same operations for the requested
/// seconds, checks the program's outputs, and returns its end-to-end
/// metrics — or, traced, its per-layer metrics.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Common.h"

namespace perfbench {

/// Instructions per cell of grid-cold and of grid-warm's cached grid. At
/// this length the hotspot scheme's savings have settled enough that the
/// paper figures of differently seeded programs agree within a few
/// percent (at 20M the L2 saving spreads by a quarter across seeds).
inline constexpr uint64_t kColdBudget = 60'000'000;
/// Instructions per cell of grid-served: short, so per-cell fixed costs
/// dominate.
inline constexpr uint64_t kServedBudget = 1'000'000;

/// The paper grid in-process (ExperimentRunner::runAll), an empty result
/// cache per round.
Outcome runGridCold(const Args &A, const RunDir &Dir, Checker &C);

/// The paper grid submitted to a dynace-serve daemon, back to back.
Outcome runGridServed(const Args &A, const RunDir &Dir, Checker &C);

/// The paper tables replayed from a warm result cache.
Outcome runGridWarm(const Args &A, const RunDir &Dir, Checker &C);

/// Feeds every output check and trace check a perturbed input and
/// \returns 0 when each one fails on it (and passes unperturbed).
int runSelfTest();

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
