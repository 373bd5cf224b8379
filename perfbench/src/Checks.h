//===- perfbench/src/Checks.h - Output checks -------------------*- C++ -*-===//
//
// Part of the DynACE project (CGO 2005 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The output checks every workload applies to the program's results.
/// They are built from properties the model must satisfy and from
/// independent computations (a textbook LRU cache), never from copies of
/// earlier output, so a result that drifts in a way the properties forbid
/// fails whatever today's numbers are. The self-test (SelfTest.cpp) feeds
/// each check a perturbed input and shows it fails.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_CHECKS_H
#define PERFBENCH_CHECKS_H

#include "Common.h"

#include "cache/Cache.h"
#include "isa/Program.h"
#include "sim/System.h"

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

/// Property checks on one cell's result:
///  * cell-budget:   it retired exactly \p Opts.MaxInstructions;
///  * cache-counts:  at L1D and L2, hits + misses = accesses per access
///                   kind, and every L1D miss reached the L2;
///  * setting-sum:   per-setting access counts sum to the level's total;
///  * baseline-fixed: a baseline cell never reconfigures and serves every
///                   access at the largest setting;
///  * reconfig-guard: adaptive cells reconfigure each CU at most
///                   floor(instructions / interval) + 1 times;
///  * ipc-range:     0 < IPC <= issue width, and IPC = instructions/cycles.
/// \p Cell names the cell in failure messages.
void checkCell(Checker &C, const std::string &Cell,
               const dynace::SimulationResult &R, dynace::Scheme S,
               const dynace::SimulationOptions &Opts);

/// Runs checkCell() over every cell of \p Runs.
void checkGrid(Checker &C, const std::vector<dynace::BenchmarkRun> &Runs,
               const dynace::SimulationOptions &Opts);

/// paper-figures: hotspot saves L1D and L2 energy against the baseline and
/// costs some cycles — each of the three figures is above 0.
void checkPaperFigures(Checker &C, const PaperFigures &F);

/// warm-cache: every cell of a warm replay was served from the cache.
void checkAllHits(Checker &C, const std::vector<dynace::RunStats> &Stats);

/// identity: \p A and \p B are field-for-field identical (their canonical
/// serializations, metrics snapshot included, compare equal). \p What
/// names the two paths compared.
void checkSame(Checker &C, const std::string &What,
               const dynace::SimulationResult &A,
               const dynace::SimulationResult &B);

/// A textbook set-associative LRU cache: each set is a recency-ordered
/// list of tags, most recent first; a miss allocates (writes too) and
/// evicts the least recent. No fast paths, no stamps, no shift tricks —
/// only the definition, so it can referee the production cache.
class LruModel {
public:
  explicit LruModel(const dynace::CacheGeometry &G);
  /// \returns true on a hit.
  bool access(uint64_t Addr);
  uint64_t hits() const { return Hits; }
  uint64_t misses() const { return Misses; }

private:
  uint64_t BlockBytes;
  uint64_t NumSets;
  uint64_t Assoc;
  std::vector<std::vector<uint64_t>> Sets;
  uint64_t Hits = 0;
  uint64_t Misses = 0;
};

/// Visits, in program order, the data address of every load and store
/// among the first \p Budget instructions of \p Prog, as the
/// interpreter's generic kernel executes them. \returns the instructions
/// executed.
uint64_t forEachDataAddress(const dynace::Program &Prog, uint64_t Budget,
                            const std::function<void(uint64_t)> &Visit);

/// What an LruModel of the L1D's largest setting saw on a stream.
struct LruCounts {
  uint64_t Instructions = 0;
  uint64_t Hits = 0;
  uint64_t Misses = 0;
};

/// Replays \p Addrs through an LruModel of geometry \p G.
LruCounts replayLru(const std::vector<uint64_t> &Addrs,
                    const dynace::CacheGeometry &G, uint64_t Instructions);

/// Streams \p Prog's first \p Budget instructions' data addresses
/// through an LruModel of geometry \p G.
LruCounts replayLru(const dynace::Program &Prog, uint64_t Budget,
                    const dynace::CacheGeometry &G);

/// lru-model: the textbook LRU's counts \p M over the baseline cell's
/// instructions equal the simulator's L1D hit and miss counts in
/// \p Baseline exactly.
void checkLru(Checker &C, const std::string &Cell, const LruCounts &M,
              const dynace::SimulationResult &Baseline);

} // namespace perfbench

#endif // PERFBENCH_CHECKS_H
