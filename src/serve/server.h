// msim_serve daemon core: newline-delimited JSON over a Unix stream
// socket, jobs dispatched onto the work-stealing JobScheduler, one
// process-wide CacheRegistry shared by every job.
//
// Protocol (one JSON object per line, either direction):
//
//   -> {"op":"ping"}
//   <- {"ok":true,"op":"ping"}
//
//   -> {"op":"submit","id":"j1","deck":"...netlist text...",
//       "probe":"out","budget_ms":0,"pss":false,
//       "mc":0,"mc_seed":1,"tran_stats":false,"telemetry":true,
//       "result_cache":true}
//   <- {"ok":true,"op":"submit","id":"j1","status":"queued"}
//      (an omitted id gets a daemon-generated one; an id that is
//       already in flight is rejected with ok:false -- two live jobs
//       under one id would make cancel and result lines ambiguous;
//       so is an "mc" outside the integers [0, 1e6), an "mc_seed"
//       outside [0, 2^53), or a non-finite or negative "budget_ms")
//   ...job runs on a scheduler worker...
//   <- {"op":"result","id":"j1","exit_code":0,"warm":true,
//       "cached":false,"out":"...","err":"..."}
//
//   -> {"op":"cancel","id":"j1"}         cooperative (RunBudget cancel)
//   <- {"ok":true,"op":"cancel","id":"j1","found":true}
//
//   -> {"op":"stats"}
//   <- {"ok":true,"op":"stats","registry":{...},"scheduler":{...},
//       "jobs":{"submitted":N,"completed":N,"warm":N,"cached":N,
//               "cancelled":N},"connections":N}
//
//   -> {"op":"shutdown"}
//   <- {"ok":true,"op":"shutdown"}       then the daemon exits
//
// Only the deck travels over the wire (not a path): the daemon never
// reads client-relative files, and a job's "out"/"err" bytes are
// exactly what `msim_cli <deck>` with the same options would print
// (shared serve::run_deck underneath).
//
// Threading: one acceptor thread, one reader thread per connection,
// job bodies on the scheduler workers.  Replies to one connection are
// serialized by a per-connection write mutex (the submit ack and any
// number of in-flight job results interleave line-atomically).  A
// disconnected client's fd closes immediately and its reader thread is
// reaped by the acceptor (a long-lived daemon must not leak one fd per
// finished connection); results of its still-running jobs are dropped.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/budget.h"
#include "serve/deck.h"
#include "serve/json.h"
#include "serve/registry.h"
#include "serve/scheduler.h"

namespace msim::serve {

struct ServerOptions {
  std::string socket_path;
  std::size_t workers = 0;               // 0 = hardware concurrency
  std::size_t cache_bytes = 64u << 20;   // structural registry cap
  std::size_t result_bytes = 16u << 20;  // whole-result memo cap
};

class Server {
 public:
  explicit Server(ServerOptions opt);
  ~Server();

  // Binds + listens on the socket; false (with *err set) on failure.
  bool start(std::string* err);

  // Blocks until a shutdown request (or shutdown() from another
  // thread).  start() must have succeeded.
  void run();

  // Stops accepting, unblocks every connection, drains the scheduler.
  void shutdown();

  CacheRegistry& registry() { return registry_; }
  std::size_t workers() const { return scheduler_.workers(); }
  Json stats_json();

 private:
  struct Conn {
    int fd = -1;
    std::mutex write_mu;
    std::atomic<bool> open{true};
  };
  struct JobCtl {
    core::CancelToken token;
    core::RunBudget budget;
    std::atomic<bool> done{false};
  };

  void accept_loop();
  void serve_connection(std::shared_ptr<Conn> conn);
  // Closes the conn's fd (under its write mutex, so an in-flight
  // result write fails cleanly instead of racing a reused fd number),
  // drops it from conns_ and parks the reader's thread handle on
  // finished_threads_ for the acceptor / shutdown to join.
  void reap_connection(const std::shared_ptr<Conn>& conn);
  void join_finished_threads();
  void handle_line(const std::shared_ptr<Conn>& conn,
                   const std::string& line);
  void handle_submit(const std::shared_ptr<Conn>& conn, const Json& req);
  static void send_line(const std::shared_ptr<Conn>& conn,
                        const Json& msg);

  ServerOptions opt_;
  CacheRegistry registry_;
  JobScheduler scheduler_;
  // Atomic: shutdown() retires the fd while the acceptor thread still
  // holds its own snapshot taken at loop entry.
  std::atomic<int> listen_fd_{-1};
  std::thread acceptor_;
  std::mutex conns_mu_;
  std::vector<std::shared_ptr<Conn>> conns_;
  // Live reader threads keyed by their Conn; a reader that observes its
  // peer hang up moves its own handle to finished_threads_ (a thread
  // cannot join itself) where the acceptor joins it on the next accept.
  std::unordered_map<Conn*, std::thread> conn_threads_;
  std::vector<std::thread> finished_threads_;
  std::mutex jobs_mu_;
  std::unordered_map<std::string, std::shared_ptr<JobCtl>> jobs_;
  std::uint64_t auto_id_ = 0;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> shutdown_requested_{false};
  std::mutex shutdown_mu_;
  std::condition_variable shutdown_cv_;
  // Daemon-level job counters (distinct from scheduler/registry stats).
  std::atomic<long> jobs_submitted_{0};
  std::atomic<long> jobs_completed_{0};
  std::atomic<long> jobs_warm_{0};
  std::atomic<long> jobs_cached_{0};
  std::atomic<long> jobs_cancelled_{0};
};

// Client helpers (msim_serve's --submit/--stats/--shutdown modes and
// the serve_smoke test).

// One request, one reply line.  Returns a null Json (and sets *err) on
// connect/IO/parse failure.
Json request(const std::string& socket_path, const Json& req,
             std::string* err);

// Submits a deck and blocks for its result message.  Returns the job's
// exit code (or -1 with *err set on transport failure); fills out/err
// with the job's captured streams and, when non-null, *warm / *cached
// with the result flags.
int submit_and_wait(const std::string& socket_path, const Json& submit,
                    std::string& out, std::string& err_stream,
                    std::string* err, bool* warm = nullptr,
                    bool* cached = nullptr);

}  // namespace msim::serve
