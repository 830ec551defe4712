#include "serve.h"

#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <thread>

extern char** environ;

namespace perfbench {

using dbscout::Result;
using dbscout::Status;
using dbscout::service::Client;

namespace {

/// The CPUs of one side under CpuSplit::kHalves: of the CPUs the calling
/// thread may use, the server gets the upper half and the load generator
/// the lower half. With a single CPU both sides share it.
cpu_set_t SideCpus(bool server) {
  cpu_set_t allowed;
  ::sched_getaffinity(0, sizeof(allowed), &allowed);
  const int count = CPU_COUNT(&allowed);
  if (count < 2) {
    return allowed;
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu = 0, seen = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      if ((seen >= count / 2) == server) {
        CPU_SET(cpu, &set);
      }
      ++seen;
    }
  }
  return set;
}

}  // namespace

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Result<std::unique_ptr<ServerProcess>> ServerProcess::Start(
    const std::string& binary, const std::vector<std::string>& args,
    const std::string& log_path, double timeout_s, CpuSplit split) {
  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_CLOEXEC) != 0) {
    return Status::IoError("pipe failed");
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, pipe_fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(binary.c_str()));
  for (const std::string& arg : args) {
    argv.push_back(const_cast<char*>(arg.c_str()));
  }
  argv.push_back(nullptr);
  // The child inherits the spawning thread's CPU mask.
  cpu_set_t saved;
  ::sched_getaffinity(0, sizeof(saved), &saved);
  if (split == CpuSplit::kHalves) {
    const cpu_set_t server_cpus = SideCpus(/*server=*/true);
    ::sched_setaffinity(0, sizeof(server_cpus), &server_cpus);
  }
  pid_t pid = -1;
  const int rc = ::posix_spawn(&pid, binary.c_str(), &actions, nullptr,
                               argv.data(), environ);
  ::sched_setaffinity(0, sizeof(saved), &saved);
  posix_spawn_file_actions_destroy(&actions);
  ::close(pipe_fds[1]);
  if (rc != 0) {
    ::close(pipe_fds[0]);
    return Status::IoError("cannot spawn " + binary);
  }
  std::unique_ptr<ServerProcess> server(new ServerProcess(pid, pipe_fds[0]));

  const std::string banner = "listening on ";
  std::string out;
  const double deadline = Now() + timeout_s;
  while (out.find('\n') == std::string::npos) {
    const double left = deadline - Now();
    pollfd pfd{server->stdout_fd_, POLLIN, 0};
    if (left <= 0 || ::poll(&pfd, 1, static_cast<int>(left * 1000) + 1) <= 0) {
      return Status::Unavailable("server banner timed out");
    }
    char buf[256];
    const ssize_t n = ::read(server->stdout_fd_, buf, sizeof(buf));
    if (n <= 0) {
      return Status::Unavailable("server exited before its banner");
    }
    out.append(buf, static_cast<size_t>(n));
  }
  const size_t at = out.find(banner);
  const size_t colon = out.rfind(':', out.find('\n'));
  if (at == std::string::npos || colon == std::string::npos) {
    return Status::Internal("unexpected server banner: " + out);
  }
  server->port_ = static_cast<uint16_t>(std::stoi(out.substr(colon + 1)));
  return server;
}

void ServerProcess::Stop(int signal) {
  if (pid_ > 0) {
    ::kill(pid_, signal);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
  }
  if (stdout_fd_ >= 0) {
    ::close(stdout_fd_);
    stdout_fd_ = -1;
  }
}

ServerProcess::~ServerProcess() { Stop(SIGKILL); }

Result<std::vector<std::vector<Sample>>> RunOpenLoop(
    uint16_t port, std::vector<Stream>& streams, bool tracing,
    CpuSplit split) {
  std::vector<Client> clients;
  for (size_t i = 0; i < streams.size(); ++i) {
    auto client = Client::Connect("127.0.0.1", port);
    if (!client.ok()) {
      return client.status();
    }
    client->EnableTracing(tracing);
    clients.push_back(std::move(*client));
  }
  std::vector<std::vector<Sample>> samples(streams.size());
  // Every thread parks on its first deadline before the clock starts, so
  // thread start-up does not leak into the schedule.
  const double start = Now() + 0.05;
  const cpu_set_t generator_cpus = SideCpus(/*server=*/false);
  std::vector<std::thread> threads;
  for (size_t i = 0; i < streams.size(); ++i) {
    threads.emplace_back([&, i] {
      if (split == CpuSplit::kHalves) {
        ::sched_setaffinity(0, sizeof(generator_cpus), &generator_cpus);
      }
      // Sleeps end on schedule, not up to the default 50 us timer slack
      // late: that lateness counted in every schedule-relative latency
      // (QUERY p50 0.12-0.15 ms with the default, 0.085-0.11 ms without,
      // on a shared 4-vCPU VM).
      ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
      const Stream& stream = streams[i];
      std::vector<Sample>& out = samples[i];
      out.reserve(stream.count);
      for (size_t k = 0; k < stream.count; ++k) {
        Sample s;
        s.scheduled =
            start + stream.offset + static_cast<double>(k) / stream.rate;
        const double wait = s.scheduled - Now();
        if (wait > 0) {
          std::this_thread::sleep_for(std::chrono::duration<double>(wait));
        }
        s.sent = Now();
        s.ok = stream.op(clients[i], k);
        s.done = Now();
        out.push_back(s);
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  return samples;
}

}  // namespace perfbench
