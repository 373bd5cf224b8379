//===- perfbench/src/Daemon.cpp - dynace-serve process control ------------===//

#include "Daemon.h"

#include "serve/Wire.h"

#include <cerrno>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>

#include <fcntl.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

extern char **environ;

using namespace dynace;
using namespace dynace::serve;

namespace perfbench {

namespace {

/// \returns a connected fd to the Unix socket \p Path, or -1.
int connectTo(const std::string &Path) {
  sockaddr_un Addr{};
  if (Path.size() >= sizeof(Addr.sun_path))
    return -1;
  int Fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (Fd < 0)
    return -1;
  Addr.sun_family = AF_UNIX;
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    ::close(Fd);
    return -1;
  }
  return Fd;
}

std::string describeStatus(int St) {
  if (WIFEXITED(St))
    return "exited with status " + std::to_string(WEXITSTATUS(St));
  if (WIFSIGNALED(St))
    return "killed by signal " + std::to_string(WTERMSIG(St));
  return "stopped";
}

std::string logTail(const std::string &Log) {
  std::ifstream In(Log);
  std::stringstream SS;
  SS << In.rdbuf();
  std::string S = SS.str();
  return S.size() > 1500 ? S.substr(S.size() - 1500) : S;
}

/// \returns this process's children, read from /proc, each with whether
///          it is a zombie (ended but not yet reaped).
std::vector<std::pair<pid_t, bool>> listChildren() {
  std::vector<std::pair<pid_t, bool>> Out;
  const pid_t Self = ::getpid();
  std::error_code Ec;
  for (const auto &E : std::filesystem::directory_iterator("/proc", Ec)) {
    const std::string Name = E.path().filename().string();
    if (Name.find_first_not_of("0123456789") != std::string::npos)
      continue;
    std::ifstream In(E.path() / "stat");
    std::string Stat((std::istreambuf_iterator<char>(In)),
                     std::istreambuf_iterator<char>());
    // "pid (comm) state ppid ...": comm may hold spaces and parentheses.
    size_t Close = Stat.rfind(')');
    if (Close == std::string::npos)
      continue;
    std::istringstream Fields(Stat.substr(Close + 1));
    char State = 0;
    long Parent = 0;
    if (!(Fields >> State >> Parent) || Parent != Self)
      continue;
    Out.push_back({static_cast<pid_t>(std::stol(Name)), State == 'Z'});
  }
  return Out;
}

} // namespace

void becomeSubreaper() { ::prctl(PR_SET_CHILD_SUBREAPER, 1); }

Strays reapDescendants() {
  std::set<pid_t> Seen;
  Clock::time_point Start = Clock::now();
  for (;;) {
    for (;;) {
      int St = 0;
      pid_t P = ::waitpid(-1, &St, WNOHANG);
      if (P > 0)
        Seen.insert(P);
      else if (!(P < 0 && errno == EINTR))
        break;
    }
    std::vector<std::pair<pid_t, bool>> Children = listChildren();
    if (Children.empty())
      return {static_cast<unsigned>(Seen.size()), 0};
    unsigned Alive = 0;
    for (const auto &[Child, Zombie] : Children) {
      Seen.insert(Child);
      if (!Zombie) {
        ::kill(Child, SIGKILL);
        ++Alive;
      }
    }
    if (secondsSince(Start) > 10.0)
      return {static_cast<unsigned>(Seen.size()), Alive};
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

void checkNoStrays(Checker &C, const std::string &Where, const Strays &S) {
  C.expect(S.Found == 0, "processes",
           Where + ": " + std::to_string(S.Found) +
               " descendant processes were left behind (" +
               std::to_string(S.Left) + " still alive after SIGKILL)");
}

Daemon::~Daemon() {
  if (Pid <= 0)
    return;
  ::kill(-Pid, SIGKILL);
  int St = 0;
  while (::waitpid(Pid, &St, 0) < 0 && errno == EINTR) {
  }
  reapDescendants();
}

void Daemon::start(const std::string &Bin, const std::string &SocketPath,
                   const std::vector<std::pair<std::string, std::string>> &Env,
                   const std::string &LogPath) {
  Socket = SocketPath;
  Log = LogPath;
  std::string Stats = Socket + ".stats";
  std::vector<std::string> ArgStore = {Bin, "--socket", Socket,
                                       "--stats-socket", Stats};
  std::vector<std::string> EnvStore;
  for (char **E = environ; *E; ++E)
    EnvStore.emplace_back(*E);
  for (const auto &[K, V] : Env)
    EnvStore.push_back(K + "=" + V);
  std::vector<char *> Argv, Envp;
  for (std::string &S : ArgStore)
    Argv.push_back(S.data());
  Argv.push_back(nullptr);
  for (std::string &S : EnvStore)
    Envp.push_back(S.data());
  Envp.push_back(nullptr);

  int LogFd = ::open(Log.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                     0644);
  if (LogFd < 0)
    throw HarnessError{"cannot open daemon log " + Log};
  pid_t P = ::fork();
  if (P < 0) {
    ::close(LogFd);
    throw HarnessError{std::string("fork: ") + std::strerror(errno)};
  }
  if (P == 0) {
    // Own group, so one kill reaches the daemon and its workers; dies with
    // perfbench if perfbench dies first.
    ::setpgid(0, 0);
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    ::dup2(LogFd, 1);
    ::dup2(LogFd, 2);
    ::execve(Argv[0], Argv.data(), Envp.data());
    ::_exit(127);
  }
  ::close(LogFd);
  ::setpgid(P, P); // Either side may win the race; both set the same group.
  Pid = P;

  // The stats socket listens after the grid socket, so once it accepts
  // the daemon is ready; probing it leaves the grid socket's log clean.
  Clock::time_point Start = Clock::now();
  for (;;) {
    int St = 0;
    if (::waitpid(Pid, &St, WNOHANG) == Pid) {
      Pid = -1;
      throw HarnessError{"dynace-serve " + describeStatus(St) +
                         " before listening; log:\n" + logTail(Log)};
    }
    int Fd = connectTo(Stats);
    if (Fd >= 0) {
      ::close(Fd);
      return;
    }
    if (secondsSince(Start) > 60.0)
      throw HarnessError{"dynace-serve did not listen on " + Stats +
                         " within 60 s; log:\n" + logTail(Log)};
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

DoneMsg Daemon::submit(const std::vector<CellSpec> &Cells) {
  int Fd = connectTo(Socket);
  if (Fd < 0)
    throw HarnessError{"connect " + Socket + ": " + std::strerror(errno)};
  GridRequestMsg Req;
  Req.Cells = Cells;
  Status S = sendFrame(Fd, FrameType::GridRequest, encodeGridRequest(Req));
  Expected<Frame> F = S.ok() ? recvFrame(Fd, /*TimeoutMs=*/150000)
                             : Expected<Frame>(S);
  ::close(Fd);
  if (!F.ok())
    throw HarnessError{"grid submission: " + F.status().toString()};
  if (F.get().Type == FrameType::Error) {
    Expected<ErrorMsg> E = decodeErrorMsg(F.get().Payload);
    throw HarnessError{"daemon refused the grid: " +
                       (E.ok() ? E.get().Reason : E.status().toString())};
  }
  if (F.get().Type != FrameType::Done)
    throw HarnessError{std::string("unexpected reply frame ") +
                       frameTypeName(F.get().Type)};
  Expected<DoneMsg> D = decodeDone(F.get().Payload);
  if (!D.ok())
    throw HarnessError{"undecodable Done frame: " + D.status().toString()};
  return D.take();
}

Strays Daemon::stop() {
  int Fd = connectTo(Socket);
  if (Fd < 0)
    throw HarnessError{"connect " + Socket + " for shutdown: " +
                       std::strerror(errno)};
  Status S = sendFrame(Fd, FrameType::Shutdown, "");
  ::close(Fd);
  if (!S.ok())
    throw HarnessError{"shutdown frame: " + S.toString()};
  Clock::time_point Start = Clock::now();
  for (;;) {
    int St = 0;
    pid_t P = ::waitpid(Pid, &St, WNOHANG);
    if (P == Pid) {
      Pid = -1;
      Strays Left = reapDescendants();
      if (!WIFEXITED(St) || WEXITSTATUS(St) != 0)
        throw HarnessError{"dynace-serve " + describeStatus(St) +
                           " on shutdown; log:\n" + logTail(Log)};
      return Left;
    }
    if (secondsSince(Start) > 30.0)
      throw HarnessError{"dynace-serve did not exit within 30 s of a "
                         "shutdown request; log:\n" + logTail(Log)};
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

} // namespace perfbench
