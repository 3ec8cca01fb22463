#include "service/fleet.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <thread>

#include "service/http_server.h"
#include "util/timer.h"

namespace schemr {

namespace {

/// Budget for one replica to print its ports and answer /readyz.
constexpr double kReadyTimeoutSeconds = 30.0;

/// Parses "introspection: http://127.0.0.1:PORT ..." and
/// "search: http://127.0.0.1:PORT/search" from a replica's stdout.
bool ParsePortLine(const std::string& line, const char* prefix, int* port) {
  const std::string needle = std::string(prefix) + ": http://127.0.0.1:";
  const size_t at = line.find(needle);
  if (at == std::string::npos) return false;
  *port = std::atoi(line.c_str() + at + needle.size());
  return *port > 0;
}

}  // namespace

Fleet::Fleet(FleetOptions options, CoordinatorOptions coordinator)
    : options_(std::move(options)),
      coordinator_options_(std::move(coordinator)) {}

Fleet::~Fleet() { Shutdown(); }

std::string Fleet::ReplicaRepoDir(int id) const {
  return options_.repo_dir + ".replica" + std::to_string(id);
}

Result<Fleet::Replica> Fleet::Spawn(int id, const std::string& repo_dir) {
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    return Status::IOError(std::string("pipe() failed: ") +
                           std::strerror(errno));
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    return Status::IOError(std::string("fork() failed: ") +
                           std::strerror(errno));
  }
  if (pid == 0) {
    // Child: stdout → pipe (the parent reads the port lines), stderr
    // inherited so drain logs land in the operator's terminal.
    ::dup2(pipe_fds[1], STDOUT_FILENO);
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    const std::string workers = std::to_string(options_.serve_workers);
    constexpr size_t kServeCacheEntries = 256;
    const std::string cache = std::to_string(kServeCacheEntries);
    const std::string sample_every =
        std::to_string(options_.serve_sample_every);
    std::vector<const char*> argv = {options_.binary_path.c_str(),
                                     "serve",
                                     repo_dir.c_str(),
                                     "--port",
                                     "0",
                                     "--search-port",
                                     "0",
                                     "--workers",
                                     workers.c_str(),
                                     "--cache",
                                     cache.c_str()};
    if (options_.serve_sample_every > 0) {
      argv.push_back("--sample-every");
      argv.push_back(sample_every.c_str());
    }
    argv.push_back(nullptr);
    ::execv(options_.binary_path.c_str(), const_cast<char**>(argv.data()));
    std::fprintf(stderr, "fleet: execv(%s) failed: %s\n",
                 options_.binary_path.c_str(), std::strerror(errno));
    ::_exit(127);
  }

  // Parent: read the two port lines with a deadline. The pipe stays
  // open for the replica's lifetime (it writes nothing further).
  ::close(pipe_fds[1]);
  const int flags = ::fcntl(pipe_fds[0], F_GETFL, 0);
  (void)::fcntl(pipe_fds[0], F_SETFL, flags | O_NONBLOCK);
  Replica replica;
  replica.pid = pid;
  replica.stdout_fd = pipe_fds[0];
  replica.repo_dir = repo_dir;
  replica.config.host = "127.0.0.1";
  replica.config.name = "replica" + std::to_string(id);

  std::string buffered;
  const Timer timer;
  while (timer.ElapsedSeconds() < kReadyTimeoutSeconds) {
    struct pollfd pfd = {pipe_fds[0], POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 100);
    if (ready > 0) {
      char buf[512];
      const ssize_t n = ::read(pipe_fds[0], buf, sizeof(buf));
      if (n > 0) buffered.append(buf, static_cast<size_t>(n));
      if (n == 0) break;  // EOF: the child died before printing ports
    }
    size_t eol;
    while ((eol = buffered.find('\n')) != std::string::npos) {
      const std::string line = buffered.substr(0, eol);
      buffered.erase(0, eol + 1);
      int port = 0;
      if (ParsePortLine(line, "introspection", &port)) {
        replica.config.introspection_port = port;
      } else if (ParsePortLine(line, "search", &port)) {
        replica.config.search_port = port;
      }
    }
    if (replica.config.introspection_port > 0 &&
        replica.config.search_port > 0) {
      return replica;
    }
    int status = 0;
    if (::waitpid(pid, &status, WNOHANG) == pid) {
      ::close(pipe_fds[0]);
      return Status::IOError("replica " + std::to_string(id) +
                             " exited before serving (status " +
                             std::to_string(status) + ")");
    }
  }
  // Timed out: put the child down before reporting.
  ::kill(pid, SIGKILL);
  (void)::waitpid(pid, nullptr, 0);
  ::close(pipe_fds[0]);
  return Status::Unavailable("replica " + std::to_string(id) +
                             " did not report its ports within " +
                             std::to_string(kReadyTimeoutSeconds) + "s");
}

Status Fleet::Start() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (started_) return Status::InvalidArgument("fleet already started");
    started_ = true;
  }
  if (options_.replicas < 1) {
    return Status::InvalidArgument("fleet needs at least one replica");
  }
  std::vector<BackendConfig> configs;
  std::vector<Replica> replicas;
  for (int i = 0; i < options_.replicas; ++i) {
    const std::string dir = ReplicaRepoDir(i);
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    std::filesystem::copy(options_.repo_dir, dir,
                          std::filesystem::copy_options::recursive, ec);
    Result<Replica> spawned =
        ec ? Result<Replica>(Status::IOError("copying repo for replica " +
                                             std::to_string(i) + ": " +
                                             ec.message()))
           : Spawn(i, dir);
    if (!spawned.ok()) {
      for (Replica& r : replicas) {
        ::kill(r.pid, SIGKILL);
        (void)::waitpid(r.pid, nullptr, 0);
        ::close(r.stdout_fd);
      }
      return spawned.status();
    }
    configs.push_back(spawned->config);
    replicas.push_back(std::move(*spawned));
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    replicas_ = std::move(replicas);
  }
  coordinator_ =
      std::make_unique<Coordinator>(std::move(configs), coordinator_options_);
  Status started = coordinator_->Start();
  if (!started.ok()) return started;
  for (int i = 0; i < options_.replicas; ++i) {
    Status ready = WaitRoutable(i, kReadyTimeoutSeconds);
    if (!ready.ok()) return ready;
  }
  return Status::OK();
}

void Fleet::ReapLocked(Replica* replica) {
  if (replica->pid > 0) (void)::waitpid(replica->pid, nullptr, 0);
  if (replica->stdout_fd >= 0) ::close(replica->stdout_fd);
  replica->pid = -1;
  replica->stdout_fd = -1;
}

void Fleet::StopReplica(int id, double timeout_seconds) {
  pid_t pid;
  int introspection_port;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (id < 0 || static_cast<size_t>(id) >= replicas_.size()) return;
    pid = replicas_[id].pid;
    introspection_port = replicas_[id].config.introspection_port;
  }
  if (pid <= 0) return;
  ::kill(pid, SIGINT);
  // Wait for the drain: the process exits once Shutdown() completes; on
  // the way there /healthz reports `shut_down`. Escalate past the
  // deadline — a wedged drain must not wedge the restart.
  const Timer timer;
  bool exited = false;
  while (timer.ElapsedSeconds() < timeout_seconds) {
    if (::waitpid(pid, nullptr, WNOHANG) == pid) {
      exited = true;
      break;
    }
    HttpCallOptions probe;
    probe.attempt_timeout_seconds = 0.5;
    auto health = HttpCall("127.0.0.1", introspection_port, "/healthz", probe);
    if (health.ok() && health->body.find("shut_down") != std::string::npos) {
      // Drained; the exit follows immediately.
      (void)::waitpid(pid, nullptr, 0);
      exited = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  if (!exited) {
    ::kill(pid, SIGKILL);
    (void)::waitpid(pid, nullptr, 0);
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (replicas_[id].stdout_fd >= 0) ::close(replicas_[id].stdout_fd);
  replicas_[id].pid = -1;
  replicas_[id].stdout_fd = -1;
}

Status Fleet::RestartReplica(int id) {
  std::string dir;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (id < 0 || static_cast<size_t>(id) >= replicas_.size()) {
      return Status::InvalidArgument("no replica " + std::to_string(id));
    }
    ReapLocked(&replicas_[id]);
    dir = replicas_[id].repo_dir;
  }
  Result<Replica> spawned = Spawn(id, dir);
  if (!spawned.ok()) return spawned.status();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    replicas_[id] = std::move(*spawned);
  }
  if (coordinator_ != nullptr) {
    coordinator_->pool().UpdateBackend(id, ReplicaConfig(id));
  }
  return Status::OK();
}

Status Fleet::WaitRoutable(int id, double timeout_seconds) {
  if (coordinator_ == nullptr) {
    return Status::InvalidArgument("fleet not started");
  }
  const Timer timer;
  while (timer.ElapsedSeconds() < timeout_seconds) {
    const auto snapshot = coordinator_->pool().Snapshot();
    if (id >= 0 && static_cast<size_t>(id) < snapshot.size() &&
        snapshot[id].routable) {
      return Status::OK();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return Status::Unavailable("replica " + std::to_string(id) +
                                  " not routable after " +
                                  std::to_string(timeout_seconds) + "s");
}

Status Fleet::RollingRestart() {
  if (coordinator_ == nullptr) {
    return Status::InvalidArgument("fleet not started");
  }
  for (int i = 0; i < options_.replicas; ++i) {
    BackendPool& pool = coordinator_->pool();
    // 1. Stop routing to it (in-flight requests finish normally).
    pool.SetDraining(i, true);
    // 2+3. SIGINT and wait for the drain to complete.
    StopReplica(i, kReadyTimeoutSeconds);
    // 4. Respawn over the same repo copy and re-point the pool slot.
    Status restarted = RestartReplica(i);
    if (!restarted.ok()) {
      pool.SetDraining(i, false);
      return restarted;
    }
    // 5. Only move to the next replica once this one is back: that is
    // the N−1 invariant.
    pool.SetDraining(i, false);
    Status ready = WaitRoutable(i, kReadyTimeoutSeconds);
    if (!ready.ok()) return ready;
  }
  return Status::OK();
}

int Fleet::SupervisePass() {
  int respawned = 0;
  for (int i = 0; i < options_.replicas; ++i) {
    pid_t pid;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (static_cast<size_t>(i) >= replicas_.size()) break;
      pid = replicas_[i].pid;
    }
    if (pid <= 0) continue;  // planned stop in progress
    if (::waitpid(pid, nullptr, WNOHANG) == pid) {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        if (replicas_[i].pid == pid) {
          if (replicas_[i].stdout_fd >= 0) ::close(replicas_[i].stdout_fd);
          replicas_[i].pid = -1;
          replicas_[i].stdout_fd = -1;
        }
      }
      if (RestartReplica(i).ok()) ++respawned;
    }
  }
  return respawned;
}

Status Fleet::KillReplica(int id) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (id < 0 || static_cast<size_t>(id) >= replicas_.size() ||
      replicas_[id].pid <= 0) {
    return Status::InvalidArgument("no live replica " + std::to_string(id));
  }
  ::kill(replicas_[id].pid, SIGKILL);
  return Status::OK();
}

Status Fleet::StallReplica(int id, bool stalled) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (id < 0 || static_cast<size_t>(id) >= replicas_.size() ||
      replicas_[id].pid <= 0) {
    return Status::InvalidArgument("no live replica " + std::to_string(id));
  }
  ::kill(replicas_[id].pid, stalled ? SIGSTOP : SIGCONT);
  return Status::OK();
}

pid_t Fleet::ReplicaPid(int id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (id < 0 || static_cast<size_t>(id) >= replicas_.size()) return -1;
  return replicas_[id].pid;
}

BackendConfig Fleet::ReplicaConfig(int id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (id < 0 || static_cast<size_t>(id) >= replicas_.size()) return {};
  return replicas_[id].config;
}

void Fleet::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!started_ || shut_down_) return;
    shut_down_ = true;
  }
  if (coordinator_ != nullptr) coordinator_->Shutdown(1.0);
  std::vector<Replica> replicas;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    replicas = std::move(replicas_);
    replicas_.clear();
  }
  // SIGINT everyone in parallel (SIGCONT first: a stalled replica
  // cannot drain), then reap with a shared deadline.
  for (Replica& r : replicas) {
    if (r.pid > 0) {
      ::kill(r.pid, SIGCONT);
      ::kill(r.pid, SIGINT);
    }
  }
  const Timer timer;
  for (Replica& r : replicas) {
    if (r.pid <= 0) {
      if (r.stdout_fd >= 0) ::close(r.stdout_fd);
      continue;
    }
    bool exited = false;
    while (timer.ElapsedSeconds() < 10.0) {
      if (::waitpid(r.pid, nullptr, WNOHANG) == r.pid) {
        exited = true;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    if (!exited) {
      ::kill(r.pid, SIGKILL);
      (void)::waitpid(r.pid, nullptr, 0);
    }
    if (r.stdout_fd >= 0) ::close(r.stdout_fd);
  }
  for (int i = 0; i < options_.replicas; ++i) {
    std::error_code ec;
    std::filesystem::remove_all(ReplicaRepoDir(i), ec);
  }
}

}  // namespace schemr
