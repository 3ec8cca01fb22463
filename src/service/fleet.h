// Replica-fleet process supervision (DESIGN.md §14).
//
// A Fleet owns N real `schemr serve` child processes (each serving its
// own copy of the corpus on ephemeral ports) plus the Coordinator that
// fronts them. It is the piece that turns "a coordinator and some
// configs" into "a serving system that survives operators and chaos
// harnesses":
//
//   * Spawn: fork + exec of the schemr binary, replica stdout piped back
//     so the parent learns the kernel-assigned introspection and search
//     ports from the same two lines `schemr serve` prints for humans.
//   * Supervision: SupervisePass() reaps replicas that died (kill -9,
//     OOM, crash) and respawns them in place; the pool slot is
//     re-pointed at the fresh ports (UpdateBackend) and the probe loop
//     readmits the newcomer via half-open probing.
//   * Rolling drain: RollingRestart() cycles one replica at a time —
//     mark draining (routing stops immediately) → SIGINT → wait for the
//     drain to complete (process exit, watching /healthz for
//     `shut_down` on the way) → respawn → wait ready → next. The fleet
//     never has more than one replica out, so ready count stays ≥ N−1.
//   * Chaos hooks: KillReplica (SIGKILL) and StallReplica
//     (SIGSTOP/SIGCONT) give the torture harness real process-level
//     faults without it reimplementing supervision.
//
// Thread safety: public methods are safe to call concurrently (one
// mutex guards the replica table; child I/O and waitpid happen
// per-replica).

#ifndef SCHEMR_SERVICE_FLEET_H_
#define SCHEMR_SERVICE_FLEET_H_

#include <sys/types.h>

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "service/coordinator.h"
#include "util/status.h"

namespace schemr {

struct FleetOptions {
  /// The schemr executable replicas exec. The CLI passes
  /// /proc/self/exe; tests pass a build-time path.
  std::string binary_path;
  /// Source repository. Each replica serves its own copy
  /// (<repo>.replicaN) so audit logs and segment rebuilds never collide
  /// across processes.
  std::string repo_dir;
  int replicas = 3;
  size_t serve_workers = 2;
  /// Replica trace sampling rate (`schemr serve --sample-every`); 0
  /// keeps the serve default. Chaos/join tests pin 1 so every request
  /// carries a joinable replica-side trace.
  uint32_t serve_sample_every = 0;
};

class Fleet {
 public:
  Fleet(FleetOptions options, CoordinatorOptions coordinator = {});
  ~Fleet();

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  /// Spawns every replica, waits for their ports, then starts the
  /// coordinator over them and waits until all are routable.
  Status Start();

  /// Coordinator drain, SIGINT to every replica, reap (SIGKILL past the
  /// deadline), copy cleanup. Idempotent.
  void Shutdown();

  /// Rolling drain of the whole fleet, one replica at a time; the
  /// routable count never drops below N−1 replicas.
  Status RollingRestart();

  /// Reaps and respawns replicas whose process exited outside a planned
  /// restart. Returns how many were respawned.
  int SupervisePass();

  /// Respawns replica `id` in place (after a crash or kill): reap,
  /// spawn, re-point the pool slot. Does not wait for readiness — the
  /// probe loop readmits it; WaitRoutable() when a caller needs to
  /// block.
  Status RestartReplica(int id);

  /// Blocks until replica `id` is routable again (probe readmission).
  Status WaitRoutable(int id, double timeout_seconds);

  // Chaos hooks.
  Status KillReplica(int id);                  ///< SIGKILL, no respawn
  Status StallReplica(int id, bool stalled);   ///< SIGSTOP / SIGCONT

  Coordinator& coordinator() { return *coordinator_; }
  int replicas() const { return options_.replicas; }
  pid_t ReplicaPid(int id) const;
  BackendConfig ReplicaConfig(int id) const;

 private:
  struct Replica {
    pid_t pid = -1;
    int stdout_fd = -1;  ///< kept open until reap (children never block)
    BackendConfig config;
    std::string repo_dir;
  };

  /// Fork + exec one replica over `repo_dir`, parse its ports.
  Result<Replica> Spawn(int id, const std::string& repo_dir);
  /// SIGINT + wait for exit (watching /healthz for shut_down), SIGKILL
  /// past the deadline, reap.
  void StopReplica(int id, double timeout_seconds);
  void ReapLocked(Replica* replica);
  std::string ReplicaRepoDir(int id) const;

  const FleetOptions options_;
  CoordinatorOptions coordinator_options_;
  mutable std::mutex mutex_;
  std::vector<Replica> replicas_;
  std::unique_ptr<Coordinator> coordinator_;
  bool started_ = false;
  bool shut_down_ = false;
};

}  // namespace schemr

#endif  // SCHEMR_SERVICE_FLEET_H_
