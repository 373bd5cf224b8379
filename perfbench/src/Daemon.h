//===- perfbench/src/Daemon.h - dynace-serve process control ----*- C++ -*-===//
//
// Part of the DynACE project (CGO 2005 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Starts the dynace-serve daemon as a child in its own process group,
/// waits until its socket accepts, submits grids to it as a client, and
/// stops it. Whatever path the run leaves by, the destructor kills the
/// group and reaps the daemon and every worker it forked (perfbench makes
/// itself the subreaper of its descendants, so orphaned workers come back
/// to it to be reaped).
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_DAEMON_H
#define PERFBENCH_DAEMON_H

#include "Common.h"

#include "serve/Protocol.h"

#include <string>
#include <utility>
#include <vector>

#include <sys/types.h>

namespace perfbench {

/// Makes this process the reaper of orphaned descendants. Call first.
void becomeSubreaper();

/// Descendants found still running or unreaped by reapDescendants().
struct Strays {
  unsigned Found = 0; ///< Descendants it had to kill or reap.
  unsigned Left = 0;  ///< ... of which still alive when it gave up (10 s).
};

/// Kills every remaining descendant (orphans come back to this process,
/// the subreaper) and reaps them all.
Strays reapDescendants();

/// processes: \p S found no descendant left behind. \p Where names the
/// point of the run.
void checkNoStrays(Checker &C, const std::string &Where, const Strays &S);

class Daemon {
public:
  Daemon() = default;
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;
  /// Kills the process group and reaps it unless stop() already did.
  ~Daemon();

  /// Starts \p Bin with \p Socket (and "<Socket>.stats") and the extra
  /// environment \p Env, logging to \p Log, then waits for the socket to
  /// accept. Throws HarnessError when the daemon exits or the socket does
  /// not accept within 60 s.
  void start(const std::string &Bin, const std::string &Socket,
             const std::vector<std::pair<std::string, std::string>> &Env,
             const std::string &Log);

  /// Submits \p Cells as one grid and waits for the reply. Throws
  /// HarnessError on a transport failure or an Error reply.
  dynace::serve::DoneMsg submit(const std::vector<dynace::serve::CellSpec> &Cells);

  /// Sends Shutdown, waits for the daemon to exit, then kills and reaps
  /// whatever it left behind. Throws HarnessError unless it exits 0 within
  /// 30 s. \returns the descendants it left behind (none when all is well).
  Strays stop();

private:
  std::string Socket;
  std::string Log;
  pid_t Pid = -1;
};

} // namespace perfbench

#endif // PERFBENCH_DAEMON_H
