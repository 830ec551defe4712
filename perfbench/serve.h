// The two halves of a service workload: the dbscout_serve child process
// and the open-loop load generator that drives it over service::Client.
#ifndef DBSCOUT_PERFBENCH_SERVE_H_
#define DBSCOUT_PERFBENCH_SERVE_H_

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "service/client.h"
#include "stats.h"

namespace perfbench {

double Now();

/// Where a service workload's two sides may run. kHalves puts the server
/// on the upper half of the CPUs and the load generator's threads on the
/// lower half; kShared leaves both to the scheduler.
enum class CpuSplit { kShared, kHalves };

/// dbscout_serve running as a child process. The destructor kills it with
/// SIGKILL and reaps it, so no server outlives the benchmark.
class ServerProcess {
 public:
  /// Spawns `binary args...` with stdout on a pipe and stderr appended to
  /// `log_path`, then waits (at most `timeout_s`) for the "listening on"
  /// banner, which the server prints only once crash recovery is done.
  static dbscout::Result<std::unique_ptr<ServerProcess>> Start(
      const std::string& binary, const std::vector<std::string>& args,
      const std::string& log_path, double timeout_s, CpuSplit split);

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;
  ~ServerProcess();

  uint16_t port() const { return port_; }

  /// Sends `signal` and waits for the process to exit.
  void Stop(int signal);

 private:
  ServerProcess(pid_t pid, int stdout_fd) : pid_(pid), stdout_fd_(stdout_fd) {}

  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  uint16_t port_ = 0;
};

/// One connection's share of an open-loop phase: `count` requests, the
/// k-th due at start + offset + k / rate. `op(client, k)` issues request
/// k and returns whether it succeeded.
struct Stream {
  double rate = 0.0;
  size_t count = 0;
  double offset = 0.0;
  std::function<bool(dbscout::service::Client&, size_t)> op;
};

/// Runs every stream on its own thread and connection against `port`,
/// all anchored to one start time shortly in the future. Each stream's
/// samples come back in schedule order. `tracing` stamps every request
/// with a trace id (the traced run). `split` must match the server's.
dbscout::Result<std::vector<std::vector<Sample>>> RunOpenLoop(
    uint16_t port, std::vector<Stream>& streams, bool tracing,
    CpuSplit split);

}  // namespace perfbench

#endif  // DBSCOUT_PERFBENCH_SERVE_H_
