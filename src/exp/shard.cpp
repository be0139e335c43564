#include "exp/shard.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <exception>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "exp/journal.hpp"
#include "exp/pipeline.hpp"
#include "exp/replication_summary.hpp"
#include "sim/workspace.hpp"
#include "util/binary_io.hpp"
#include "util/logging.hpp"

namespace dg::exp {

namespace {

// ---------------------------------------------------------------------------
// Shard protocol: framed messages over a per-worker SOCK_STREAM socketpair.
// Same-machine siblings of one build, so payloads are host-endian PODs
// (util/binary_io.hpp); the frame carries type + payload size.
//
//   kAssign     C->W  chunk_id u64 | count u32 | count x (cell u32, rep u32)
//   kChunkDone  W->C  chunk_id u64 | count u32
//                     | count x (cell u32, rep u32, size u32, size bytes)
//                     where the bytes are one serialized ReplicationSummary
//   kShutdown   C->W  (empty) — worker replies kStats and exits
//   kStats      W->C  busy_ns u64 | jobs u64
// ---------------------------------------------------------------------------

enum MsgType : std::uint32_t {
  kAssign = 1,
  kChunkDone = 2,
  kShutdown = 3,
  kStats = 4,
};

constexpr std::size_t kStatsWords = 2;
/// Upper bound on adaptive chunk size (jobs per kAssign).
constexpr std::size_t kChunkCap = 32;

struct MsgHeader {
  std::uint32_t type = 0;
  std::uint32_t size = 0;  ///< Payload bytes following the header.
};

/// Sends a framed message; false on a broken pipe (peer died). MSG_NOSIGNAL
/// turns SIGPIPE into an error return — the coordinator must not die with a
/// worker.
[[nodiscard]] bool send_msg(int fd, std::uint32_t type, const std::uint8_t* payload,
                            std::size_t size) {
  MsgHeader header{type, static_cast<std::uint32_t>(size)};
  const auto send_all = [fd](const void* data, std::size_t len) {
    const auto* bytes = static_cast<const std::uint8_t*>(data);
    std::size_t sent = 0;
    while (sent < len) {
      const ::ssize_t n = ::send(fd, bytes + sent, len - sent, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      sent += static_cast<std::size_t>(n);
    }
    return true;
  };
  return send_all(&header, sizeof(header)) && (size == 0 || send_all(payload, size));
}

/// Reads exactly `size` bytes; false on EOF (peer gone).
[[nodiscard]] bool read_exact(int fd, void* data, std::size_t size) {
  auto* bytes = static_cast<std::uint8_t*>(data);
  std::size_t got = 0;
  while (got < size) {
    const ::ssize_t n = ::read(fd, bytes + got, size - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;
    got += static_cast<std::size_t>(n);
  }
  return true;
}

[[nodiscard]] bool read_msg(int fd, MsgHeader& header, std::vector<std::uint8_t>& payload) {
  if (!read_exact(fd, &header, sizeof(header))) return false;
  payload.resize(header.size);
  return header.size == 0 || read_exact(fd, payload.data(), payload.size());
}

// ---------------------------------------------------------------------------
// Worker process body. Never returns; never runs the parent's exit handlers
// (_exit), so the fork leaves the coordinator's stdio/file state untouched.
// ---------------------------------------------------------------------------

[[noreturn]] void worker_main(int fd, const RunOptions& options,
                              const std::vector<NamedConfig>& cells, std::size_t kill_after_jobs) {
  try {
    sim::SimulationWorkspace workspace;
    std::size_t jobs_run = 0;
    std::uint64_t busy_ns = 0;

    MsgHeader header;
    std::vector<std::uint8_t> payload;
    std::vector<std::uint8_t> reply;
    for (;;) {
      if (!read_msg(fd, header, payload)) std::_Exit(0);  // coordinator gone
      if (header.type == kShutdown) {
        std::vector<std::uint8_t> wire;
        util::put_pod(wire, busy_ns);
        util::put_pod(wire, static_cast<std::uint64_t>(jobs_run));
        (void)send_msg(fd, kStats, wire.data(), wire.size());
        std::_Exit(0);
      }
      if (header.type != kAssign) {
        std::fprintf(stderr, "shard worker: unexpected message type %u\n", header.type);
        std::_Exit(1);
      }

      util::ByteReader reader(payload.data(), payload.size());
      const auto chunk_id = reader.pod<std::uint64_t>();
      const auto count = reader.pod<std::uint32_t>();
      reply.clear();
      util::put_pod(reply, chunk_id);
      util::put_pod(reply, count);
      for (std::uint32_t i = 0; i < count; ++i) {
        const auto cell = reader.pod<std::uint32_t>();
        const auto replication = reader.pod<std::uint32_t>();

        const auto job_start = std::chrono::steady_clock::now();
        const ReplicationSummary summary =
            run_job(cells[cell].config, replication, options.base_seed, nullptr, workspace);
        busy_ns += static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                                  std::chrono::steady_clock::now() - job_start)
                                                  .count());
        ++jobs_run;
        // Failure-injection hook: die mid-chunk, after a completed job but
        // before the chunk reply — the coordinator must requeue and the
        // replacement worker redo the whole chunk.
        if (kill_after_jobs > 0 && jobs_run >= kill_after_jobs) std::_Exit(9);

        util::put_pod(reply, cell);
        util::put_pod(reply, replication);
        // The size field precedes the summary; fill it in once it is known.
        const std::size_t size_at = reply.size();
        util::put_pod(reply, std::uint32_t{0});
        summary.serialize(reply);
        const auto size =
            static_cast<std::uint32_t>(reply.size() - size_at - sizeof(std::uint32_t));
        std::memcpy(reply.data() + size_at, &size, sizeof size);
      }
      if (!send_msg(fd, kChunkDone, reply.data(), reply.size())) std::_Exit(0);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "shard worker: %s\n", e.what());
    std::_Exit(1);
  } catch (...) {
    std::fprintf(stderr, "shard worker: unknown error\n");
    std::_Exit(1);
  }
}

}  // namespace

std::vector<WorkerLaneStats> run_process_lanes(const RunOptions& options,
                                               const ShardOptions& shard,
                                               const std::vector<NamedConfig>& cells,
                                               PipelineState& state, CampaignJournal* journal) {
  const std::size_t procs = shard.procs;

  struct Chunk {
    std::uint64_t id = 0;
    std::vector<PipelineJob> jobs;
  };
  struct Worker {
    pid_t pid = -1;
    int fd = -1;
    bool alive = false;
    std::deque<Chunk> outstanding;  ///< Assigned chunks, in send order (FIFO replies).
    bool spawned_once = false;      ///< Self-kill arms only the first incarnation.
  };
  std::vector<Worker> workers(procs);
  std::size_t respawns = 0;
  // Generous for flaky deaths, finite for a replication that crashes
  // deterministically (every respawn re-crashes until this throws).
  const std::size_t respawn_cap = procs * 8 + 8;

  auto spawn = [&](std::size_t w) {
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
      throw std::runtime_error("process lanes: socketpair failed");
    }
    const std::size_t kill_after =
        (!workers[w].spawned_once && w == shard.self_kill_worker) ? shard.self_kill_jobs : 0;
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(sv[0]);
      ::close(sv[1]);
      throw std::runtime_error("process lanes: fork failed");
    }
    if (pid == 0) {
      // Child: drop every coordinator-side descriptor we inherited so
      // sibling sockets don't stay half-open through us, then serve jobs.
      ::close(sv[0]);
      for (const Worker& other : workers) {
        if (other.fd >= 0) ::close(other.fd);
      }
      worker_main(sv[1], options, cells, kill_after);
    }
    ::close(sv[1]);
    workers[w].pid = pid;
    workers[w].fd = sv[0];
    workers[w].alive = true;
    workers[w].spawned_once = true;
  };

  auto handle_death = [&](std::size_t w) {
    Worker& worker = workers[w];
    if (worker.pid > 0) {
      int status = 0;
      (void)::waitpid(worker.pid, &status, 0);
    }
    if (worker.fd >= 0) ::close(worker.fd);
    worker.fd = -1;
    worker.pid = -1;
    worker.alive = false;
    for (const Chunk& chunk : worker.outstanding) state.requeue(chunk.jobs);
    worker.outstanding.clear();
    if (++respawns > respawn_cap) {
      throw std::runtime_error(
          "process lanes: worker respawn limit exceeded (a replication keeps crashing its "
          "worker; see stderr for the worker's error)");
    }
  };

  // Chunk size is proportional to remaining work, so chunks shrink toward
  // the campaign drain and the last stragglers are single replications (no
  // worker holds a queue of jobs another could run).
  const auto chunk_target = [&]() -> std::size_t {
    return std::min(kChunkCap,
                    std::max<std::size_t>(1, state.remaining_estimate() / (procs * 4)));
  };
  // Workers are double-buffered: the next chunk is already queued on the
  // socket while the current one runs, so finishing a chunk never leaves a
  // worker idle waiting on coordinator latency.
  constexpr std::size_t max_outstanding = 2;
  std::uint64_t next_chunk_id = 0;

  std::vector<std::uint8_t> wire;
  std::vector<std::uint8_t> payload;

  const auto any_outstanding = [&]() {
    for (const Worker& worker : workers) {
      if (!worker.outstanding.empty()) return true;
    }
    return false;
  };

  // Assign ready jobs to workers with spare chunk capacity.
  const auto assign_ready = [&]() {
    for (std::size_t w = 0; w < procs; ++w) {
      while (!state.finished() && workers[w].outstanding.size() < max_outstanding &&
             state.has_ready()) {
        if (!workers[w].alive) spawn(w);
        Chunk chunk;
        chunk.id = next_chunk_id++;
        chunk.jobs = state.pop_chunk(chunk_target());
        if (chunk.jobs.empty()) break;
        wire.clear();
        util::put_pod(wire, chunk.id);
        util::put_pod(wire, static_cast<std::uint32_t>(chunk.jobs.size()));
        for (const PipelineJob& job : chunk.jobs) {
          util::put_pod(wire, static_cast<std::uint32_t>(job.cell));
          util::put_pod(wire, static_cast<std::uint32_t>(job.replication));
        }
        const int fd = workers[w].fd;
        workers[w].outstanding.push_back(std::move(chunk));
        if (!send_msg(fd, kAssign, wire.data(), wire.size())) {
          handle_death(w);
          break;
        }
      }
    }
  };

  // Receive one worker's chunk reply and feed it through the ordered commit
  // (which journals, decides, and extends the launch window as summaries
  // become foldable).
  const auto receive_reply = [&](std::size_t w) {
    Worker& worker = workers[w];
    MsgHeader header;
    if (!read_msg(worker.fd, header, payload) || header.type != kChunkDone) {
      handle_death(w);
      return;
    }
    if (worker.outstanding.empty()) {
      throw std::runtime_error("process lanes: unexpected chunk reply");
    }
    Chunk chunk = std::move(worker.outstanding.front());
    worker.outstanding.pop_front();
    util::ByteReader reader(payload.data(), payload.size());
    const auto chunk_id = reader.pod<std::uint64_t>();
    const auto count = reader.pod<std::uint32_t>();
    if (chunk_id != chunk.id || count != chunk.jobs.size()) {
      throw std::runtime_error("process lanes: protocol mismatch in chunk reply");
    }
    for (std::uint32_t i = 0; i < count; ++i) {
      const auto cell = reader.pod<std::uint32_t>();
      const auto replication = reader.pod<std::uint32_t>();
      const auto size = reader.pod<std::uint32_t>();
      if (cell != chunk.jobs[i].cell || replication != chunk.jobs[i].replication) {
        throw std::runtime_error("process lanes: job mismatch in chunk reply");
      }
      util::ByteReader summary_reader(reader.skip(size), size);
      ReplicationSummary summary = ReplicationSummary::deserialize(summary_reader);
      if (!summary_reader.exhausted()) {
        throw std::runtime_error("process lanes: summary size mismatch in chunk reply");
      }
      state.deliver(cell, replication, std::move(summary));
    }
    if (!reader.exhausted()) {
      throw std::runtime_error("process lanes: trailing bytes after the last job in chunk reply");
    }
    if (journal != nullptr) journal->sync();
  };

  while (!state.finished() || any_outstanding()) {
    assign_ready();

    std::vector<::pollfd> fds;
    std::vector<std::size_t> fd_workers;
    for (std::size_t w = 0; w < procs; ++w) {
      if (workers[w].alive && !workers[w].outstanding.empty()) {
        fds.push_back(::pollfd{workers[w].fd, POLLIN, 0});
        fd_workers.push_back(w);
      }
    }
    if (fds.empty()) {
      if (state.finished()) break;
      if (!state.has_ready()) {
        // Unstopped cells always have a job queued or in flight; neither
        // here means the pipeline state is corrupt, not merely slow.
        throw std::runtime_error("process lanes: stalled with no ready or in-flight jobs");
      }
      continue;  // every busy worker died; the next pass respawns
    }
    if (::poll(fds.data(), fds.size(), -1) < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("process lanes: poll failed");
    }
    for (std::size_t f = 0; f < fds.size(); ++f) {
      if ((fds[f].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      receive_reply(fd_workers[f]);
    }
  }

  // Shutdown: collect every worker's execution-lane accounting, then reap.
  // A lane whose worker was respawned reports only the surviving
  // incarnation (a killed worker's counters die with it).
  std::vector<WorkerLaneStats> lanes(procs);
  for (std::size_t w = 0; w < procs; ++w) {
    Worker& worker = workers[w];
    if (!worker.alive) continue;
    MsgHeader header;
    if (send_msg(worker.fd, kShutdown, nullptr, 0) && read_msg(worker.fd, header, payload) &&
        header.type == kStats && payload.size() == kStatsWords * sizeof(std::uint64_t)) {
      util::ByteReader reader(payload.data(), payload.size());
      lanes[w].busy_s = static_cast<double>(reader.pod<std::uint64_t>()) * 1e-9;
      lanes[w].jobs = reader.pod<std::uint64_t>();
    }
    ::close(worker.fd);
    worker.fd = -1;
    int status = 0;
    (void)::waitpid(worker.pid, &status, 0);
    worker.alive = false;
  }
  return lanes;
}

}  // namespace dg::exp
