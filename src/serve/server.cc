#include "serve/server.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>

namespace msim::serve {
namespace {

// MSG_NOSIGNAL keeps a client that hung up from killing the daemon
// with SIGPIPE; the short-write loop finishes the line or gives up.
bool write_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

bool connect_unix(const std::string& path, int& fd, std::string* err) {
  fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    if (err) *err = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    if (err) *err = "socket path too long: " + path;
    ::close(fd);
    fd = -1;
    return false;
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    if (err) *err = "connect " + path + ": " + std::strerror(errno);
    ::close(fd);
    fd = -1;
    return false;
  }
  return true;
}

// Reads lines from fd until `want` returns true for one (that line is
// returned) or the peer closes.  `pending` carries partial data across
// calls on the same fd -- a reply can land in the same recv() as an
// earlier line, so the buffer must outlive one match.
bool read_line_matching(int fd, std::string& pending,
                        const std::function<bool(const Json&)>& want,
                        Json& out, std::string* err) {
  char buf[65536];
  for (;;) {
    std::size_t nl;
    while ((nl = pending.find('\n')) != std::string::npos) {
      const std::string line = pending.substr(0, nl);
      pending.erase(0, nl + 1);
      if (line.empty()) continue;
      std::string perr;
      Json msg = Json::parse(line, &perr);
      if (msg.is_null() && !perr.empty()) {
        if (err) *err = "bad reply: " + perr;
        return false;
      }
      if (want(msg)) {
        out = std::move(msg);
        return true;
      }
    }
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n == 0) {
      if (err) *err = "connection closed";
      return false;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      if (err) *err = std::string("recv: ") + std::strerror(errno);
      return false;
    }
    pending.append(buf, static_cast<std::size_t>(n));
  }
}

// Fills `o` from a submit request; returns the refusal message, or ""
// when every field is usable.  Numeric fields arrive as doubles parsed
// by strtod (inf, nan and 1e999 included), so each is range-checked
// before any integer conversion.
std::string options_from_json(const Json& req, DeckOptions& o) {
  const double mc = req["mc"].as_number(0);
  if (!count_in_range(mc, kMaxDirectivePoints))
    return "\"mc\" must be an integer in [0, 1e6)";
  const double seed = req["mc_seed"].as_number(1);
  if (!count_in_range(seed, kMaxExactSeed))
    return "\"mc_seed\" must be an integer in [0, 2^53)";
  const double budget_ms = req["budget_ms"].as_number(0.0);
  if (!std::isfinite(budget_ms) || budget_ms < 0.0)
    return "\"budget_ms\" must be finite and non-negative";
  o.probe_arg = req["probe"].as_string();
  o.lint_only = req["lint_only"].as_bool(false);
  o.lint_json = req["lint"].as_bool(false);
  o.lint_strict = req["lint_strict"].as_bool(false);
  o.range_json = req["range"].as_bool(false);
  o.telemetry = req["telemetry"].as_bool(true);
  o.tran_stats = req["tran_stats"].as_bool(false);
  o.budget_ms = budget_ms;
  o.pss = req["pss"].as_bool(false);
  o.mc = static_cast<int>(mc);
  o.mc_seed = static_cast<std::uint64_t>(seed);
  o.use_result_cache = req["result_cache"].as_bool(true);
  for (const auto& d : req["lint_disable"].items())
    o.lint_disable.push_back(d.as_string());
  return "";
}

}  // namespace

Server::Server(ServerOptions opt)
    : opt_(std::move(opt)),
      registry_(opt_.cache_bytes, opt_.result_bytes),
      scheduler_(opt_.workers) {}

Server::~Server() { shutdown(); }

bool Server::start(std::string* err) {
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    if (err) *err = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (opt_.socket_path.size() >= sizeof addr.sun_path) {
    if (err) *err = "socket path too long: " + opt_.socket_path;
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  std::strncpy(addr.sun_path, opt_.socket_path.c_str(),
               sizeof addr.sun_path - 1);
  ::unlink(opt_.socket_path.c_str());  // stale socket from a dead daemon
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
      0) {
    if (err)
      *err = "bind " + opt_.socket_path + ": " + std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  if (::listen(listen_fd_, 64) != 0) {
    if (err) *err = std::string("listen: ") + std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  acceptor_ = std::thread([this] { accept_loop(); });
  return true;
}

void Server::run() {
  std::unique_lock<std::mutex> lk(shutdown_mu_);
  shutdown_cv_.wait(lk, [&] { return shutdown_requested_.load(); });
  lk.unlock();
  shutdown();
}

void Server::shutdown() {
  if (stopping_.exchange(true)) {
    // Another thread is (or was) already tearing down; just make sure
    // run() wakes.
    shutdown_requested_.store(true);
    shutdown_cv_.notify_all();
    return;
  }
  shutdown_requested_.store(true);
  shutdown_cv_.notify_all();
  // Unblock the acceptor (shutdown() aborts its blocking accept), join
  // it, and only then close the fd -- closing first could let the fd
  // number be reused while the acceptor still references it.
  const int lfd = listen_fd_.exchange(-1);
  if (lfd >= 0) ::shutdown(lfd, SHUT_RDWR);
  if (acceptor_.joinable()) acceptor_.join();
  if (lfd >= 0) ::close(lfd);
  {
    std::lock_guard<std::mutex> g(conns_mu_);
    for (auto& c : conns_) {
      // write_mu keeps this from racing a reader that is concurrently
      // closing (and thereby freeing for reuse) the same fd number.
      std::lock_guard<std::mutex> wg(c->write_mu);
      if (c->open.load()) ::shutdown(c->fd, SHUT_RD);
    }
  }
  // Let in-flight jobs finish (their results still flush to open
  // connections), then join the readers -- live ones and the handles
  // already parked by self-reaped connections -- and close what's left.
  scheduler_.stop();
  std::vector<std::thread> readers;
  {
    std::lock_guard<std::mutex> g(conns_mu_);
    for (auto& [c, t] : conn_threads_) readers.push_back(std::move(t));
    conn_threads_.clear();
  }
  for (auto& t : readers)
    if (t.joinable()) t.join();
  join_finished_threads();
  {
    std::lock_guard<std::mutex> g(conns_mu_);
    for (auto& c : conns_) {
      if (c->open.exchange(false)) ::close(c->fd);
    }
    conns_.clear();
  }
  ::unlink(opt_.socket_path.c_str());
}

void Server::accept_loop() {
  const int lfd = listen_fd_.load();
  if (lfd < 0) return;
  for (;;) {
    const int fd = ::accept(lfd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener closed (shutdown) or fatal
    }
    // Join readers whose clients already hung up before tracking the
    // new one; otherwise a long accept stream accretes dead handles.
    join_finished_threads();
    if (stopping_.load()) {
      ::close(fd);
      return;
    }
    auto conn = std::make_shared<Conn>();
    conn->fd = fd;
    std::lock_guard<std::mutex> g(conns_mu_);
    conns_.push_back(conn);
    conn_threads_[conn.get()] =
        std::thread([this, conn] { serve_connection(conn); });
  }
}

void Server::serve_connection(std::shared_ptr<Conn> conn) {
  std::string pending;
  char buf[65536];
  for (;;) {
    const ssize_t n = ::recv(conn->fd, buf, sizeof buf, 0);
    if (n == 0) break;  // peer closed
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    pending.append(buf, static_cast<std::size_t>(n));
    std::size_t nl;
    while ((nl = pending.find('\n')) != std::string::npos) {
      const std::string line = pending.substr(0, nl);
      pending.erase(0, nl + 1);
      if (!line.empty()) handle_line(conn, line);
    }
  }
  // Peer is gone: release the fd now (a long-lived daemon that parks
  // dead connections until shutdown eventually hits EMFILE and stops
  // accepting anyone).  Results of this conn's in-flight jobs see
  // open == false and are dropped cleanly.
  reap_connection(conn);
}

void Server::reap_connection(const std::shared_ptr<Conn>& conn) {
  {
    std::lock_guard<std::mutex> g(conn->write_mu);
    if (conn->open.exchange(false)) ::close(conn->fd);
  }
  std::lock_guard<std::mutex> g(conns_mu_);
  conns_.erase(std::remove(conns_.begin(), conns_.end(), conn),
               conns_.end());
  auto it = conn_threads_.find(conn.get());
  if (it != conn_threads_.end()) {
    // A thread cannot join itself: park the handle for the acceptor
    // (or shutdown) to join.  During shutdown the handle may already
    // have moved out of the map -- the joiner owns it then.
    finished_threads_.push_back(std::move(it->second));
    conn_threads_.erase(it);
  }
}

void Server::join_finished_threads() {
  std::vector<std::thread> done;
  {
    std::lock_guard<std::mutex> g(conns_mu_);
    done.swap(finished_threads_);
  }
  for (auto& t : done)
    if (t.joinable()) t.join();
}

void Server::send_line(const std::shared_ptr<Conn>& conn, const Json& msg) {
  if (!conn->open.load()) return;
  std::lock_guard<std::mutex> g(conn->write_mu);
  if (!conn->open.load()) return;
  write_all(conn->fd, msg.dump() + "\n");
}

void Server::handle_line(const std::shared_ptr<Conn>& conn,
                         const std::string& line) {
  std::string perr;
  const Json req = Json::parse(line, &perr);
  if (!req.is_object()) {
    Json r = Json::object();
    r.set("ok", false);
    r.set("error", perr.empty() ? "request must be a JSON object" : perr);
    send_line(conn, r);
    return;
  }
  const std::string op = req["op"].as_string();
  if (op == "ping") {
    Json r = Json::object();
    r.set("ok", true);
    r.set("op", "ping");
    send_line(conn, r);
  } else if (op == "submit") {
    handle_submit(conn, req);
  } else if (op == "cancel") {
    const std::string id = req["id"].as_string();
    bool found = false;
    {
      std::lock_guard<std::mutex> g(jobs_mu_);
      auto it = jobs_.find(id);
      if (it != jobs_.end() && !it->second->done.load()) {
        it->second->token.request();
        found = true;
      }
    }
    Json r = Json::object();
    r.set("ok", true);
    r.set("op", "cancel");
    r.set("id", id);
    r.set("found", found);
    send_line(conn, r);
  } else if (op == "stats") {
    Json r = stats_json();
    r.set("ok", true);
    r.set("op", "stats");
    send_line(conn, r);
  } else if (op == "shutdown") {
    Json r = Json::object();
    r.set("ok", true);
    r.set("op", "shutdown");
    send_line(conn, r);
    shutdown_requested_.store(true);
    shutdown_cv_.notify_all();
  } else {
    Json r = Json::object();
    r.set("ok", false);
    r.set("error", "unknown op: " + op);
    send_line(conn, r);
  }
}

void Server::handle_submit(const std::shared_ptr<Conn>& conn,
                           const Json& req) {
  if (!req["deck"].is_string() || req["deck"].as_string().empty()) {
    Json r = Json::object();
    r.set("ok", false);
    r.set("op", "submit");
    r.set("error", "submit needs a non-empty \"deck\" string");
    send_line(conn, r);
    return;
  }
  std::string id = req["id"].as_string();
  DeckOptions dopt;
  const std::string bad = options_from_json(req, dopt);
  if (!bad.empty()) {
    Json r = Json::object();
    r.set("ok", false);
    r.set("op", "submit");
    r.set("id", id);
    r.set("error", bad);
    send_line(conn, r);
    return;
  }
  auto ctl = std::make_shared<JobCtl>();
  ctl->budget.max_wall_ms = dopt.budget_ms;
  ctl->budget.cancel = &ctl->token;
  bool duplicate = false;
  {
    std::lock_guard<std::mutex> g(jobs_mu_);
    if (id.empty()) {
      do {  // skip generated ids a client happened to claim
        id = "job-" + std::to_string(++auto_id_);
      } while (jobs_.count(id));
    }
    duplicate = !jobs_.emplace(id, ctl).second;
  }
  if (duplicate) {
    // Two live jobs under one id would interleave indistinguishable
    // result lines, and the first completion's erase would strip the
    // second job's JobCtl out from under a later cancel.
    Json r = Json::object();
    r.set("ok", false);
    r.set("op", "submit");
    r.set("id", id);
    r.set("error", "job id '" + id + "' is already in flight");
    send_line(conn, r);
    return;
  }
  jobs_submitted_.fetch_add(1);

  Json ack = Json::object();
  ack.set("ok", true);
  ack.set("op", "submit");
  ack.set("id", id);
  ack.set("status", "queued");
  send_line(conn, ack);

  const std::string deck = req["deck"].as_string();
  scheduler_.submit([this, conn, ctl, id, deck,
                     dopt = std::move(dopt)]() mutable {
    dopt.budget = &ctl->budget;
    const DeckResult res = run_deck(deck, dopt, &registry_);
    ctl->done.store(true);
    jobs_completed_.fetch_add(1);
    if (res.warm) jobs_warm_.fetch_add(1);
    if (res.result_cached) jobs_cached_.fetch_add(1);
    if (ctl->token.cancelled()) jobs_cancelled_.fetch_add(1);
    {
      std::lock_guard<std::mutex> g(jobs_mu_);
      jobs_.erase(id);
    }
    Json msg = Json::object();
    msg.set("op", "result");
    msg.set("id", id);
    msg.set("exit_code", res.exit_code);
    msg.set("warm", res.warm);
    msg.set("cached", res.result_cached);
    msg.set("out", res.out);
    msg.set("err", res.err);
    send_line(conn, msg);
  });
}

Json Server::stats_json() {
  Json jobs = Json::object();
  jobs.set("submitted", jobs_submitted_.load());
  jobs.set("completed", jobs_completed_.load());
  jobs.set("warm", jobs_warm_.load());
  jobs.set("cached", jobs_cached_.load());
  jobs.set("cancelled", jobs_cancelled_.load());
  Json r = Json::object();
  r.set("registry", registry_.stats().json());
  r.set("scheduler", scheduler_.stats().json());
  r.set("jobs", std::move(jobs));
  {
    // Live connection gauge: stays bounded in a healthy daemon because
    // disconnected clients are reaped immediately, not at shutdown.
    std::lock_guard<std::mutex> g(conns_mu_);
    r.set("connections", static_cast<double>(conns_.size()));
  }
  return r;
}

Json request(const std::string& socket_path, const Json& req,
             std::string* err) {
  int fd = -1;
  if (!connect_unix(socket_path, fd, err)) return Json();
  Json reply;
  std::string pending;
  bool ok = write_all(fd, req.dump() + "\n");
  if (!ok) {
    if (err) *err = "send failed";
  } else {
    ok = read_line_matching(fd, pending, [](const Json&) { return true; },
                            reply, err);
  }
  ::close(fd);
  return ok ? reply : Json();
}

int submit_and_wait(const std::string& socket_path, const Json& submit,
                    std::string& out, std::string& err_stream,
                    std::string* err, bool* warm, bool* cached) {
  int fd = -1;
  if (!connect_unix(socket_path, fd, err)) return -1;
  if (!write_all(fd, submit.dump() + "\n")) {
    if (err) *err = "send failed";
    ::close(fd);
    return -1;
  }
  // First the ack (carries the daemon-assigned id), then the result.
  // One shared pending buffer: the result may arrive in the same recv.
  std::string pending;
  Json ack;
  if (!read_line_matching(
          fd, pending,
          [](const Json& m) { return m["op"].as_string() == "submit"; },
          ack, err)) {
    ::close(fd);
    return -1;
  }
  if (!ack["ok"].as_bool(false)) {
    if (err) *err = ack["error"].as_string();
    ::close(fd);
    return -1;
  }
  const std::string id = ack["id"].as_string();
  Json result;
  const bool ok = read_line_matching(
      fd, pending,
      [&](const Json& m) {
        return m["op"].as_string() == "result" &&
               m["id"].as_string() == id;
      },
      result, err);
  ::close(fd);
  if (!ok) return -1;
  out = result["out"].as_string();
  err_stream = result["err"].as_string();
  if (warm) *warm = result["warm"].as_bool(false);
  if (cached) *cached = result["cached"].as_bool(false);
  return static_cast<int>(result["exit_code"].as_number(1));
}

}  // namespace msim::serve
