// msim_serve: long-lived simulation daemon over a Unix socket.
//
// Daemon mode (default):
//   msim_serve --socket /tmp/msim.sock [--workers N] [--cache-mb M]
// accepts newline-delimited JSON jobs (see src/serve/server.h for the
// protocol), runs them on a work-stealing scheduler, and shares one
// solver-cache registry across every job: repeated topologies adopt the
// cached sparsity pattern / symbolic LU / stamp-slot tables and skip
// straight to numeric work.
//
// Client modes (same binary, for scripts and the smoke test):
//   msim_serve --socket S --ping
//   msim_serve --socket S --stats                 registry/scheduler JSON
//   msim_serve --socket S --shutdown
//   msim_serve --socket S --submit deck.sp [--probe n1,n2] [--mc N]
//              [--mc-seed K] [--pss] [--tran-stats]
//              [--no-telemetry] [--budget-ms N] [--no-result-cache]
// --submit sends the deck text, waits for the result message, replays
// the job's stdout/stderr locally and exits with the job's exit code --
// so a daemon round-trip is a drop-in replacement for msim_cli.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "serve/deck.h"
#include "serve/json.h"
#include "serve/server.h"

using namespace msim;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: msim_serve --socket PATH [--workers N] [--cache-mb M]\n"
      "       msim_serve --socket PATH --ping | --stats | --shutdown\n"
      "       msim_serve --socket PATH --submit deck.sp [job options]\n"
      "job options: --probe n1,n2,... --mc N --mc-seed K\n"
      "             --pss --tran-stats --no-telemetry --budget-ms N\n"
      "             --no-result-cache\n");
  return 2;
}

int simple_request(const std::string& socket, const char* op) {
  serve::Json req = serve::Json::object();
  req.set("op", op);
  std::string err;
  const serve::Json reply = serve::request(socket, req, &err);
  if (reply.is_null()) {
    std::fprintf(stderr, "error: %s\n", err.c_str());
    return 1;
  }
  std::printf("%s\n", reply.dump().c_str());
  return reply["ok"].as_bool(false) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket, submit_path;
  std::string mode = "daemon";
  serve::ServerOptions sopt;
  serve::Json job = serve::Json::object();
  job.set("op", "submit");
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--socket") == 0 && i + 1 < argc)
      socket = argv[++i];
    else if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc)
      sopt.workers = static_cast<std::size_t>(std::atoi(argv[++i]));
    else if (std::strcmp(argv[i], "--cache-mb") == 0 && i + 1 < argc)
      sopt.cache_bytes =
          static_cast<std::size_t>(std::atof(argv[++i]) * (1u << 20));
    else if (std::strcmp(argv[i], "--ping") == 0)
      mode = "ping";
    else if (std::strcmp(argv[i], "--stats") == 0 ||
             std::strcmp(argv[i], "--serve-stats") == 0)
      mode = "stats";
    else if (std::strcmp(argv[i], "--shutdown") == 0)
      mode = "shutdown";
    else if (std::strcmp(argv[i], "--submit") == 0 && i + 1 < argc) {
      mode = "submit";
      submit_path = argv[++i];
    } else if (std::strcmp(argv[i], "--probe") == 0 && i + 1 < argc)
      job.set("probe", argv[++i]);
    else if (std::strcmp(argv[i], "--mc") == 0 && i + 1 < argc)
      job.set("mc", std::atoi(argv[++i]));
    else if (std::strcmp(argv[i], "--mc-seed") == 0 && i + 1 < argc)
      job.set("mc_seed", std::atof(argv[++i]));
    else if (std::strcmp(argv[i], "--pss") == 0)
      job.set("pss", true);
    else if (std::strcmp(argv[i], "--tran-stats") == 0)
      job.set("tran_stats", true);
    else if (std::strcmp(argv[i], "--no-telemetry") == 0)
      job.set("telemetry", false);
    else if (std::strcmp(argv[i], "--budget-ms") == 0 && i + 1 < argc)
      job.set("budget_ms", std::atof(argv[++i]));
    else if (std::strcmp(argv[i], "--no-result-cache") == 0)
      job.set("result_cache", false);
    else
      return usage();
  }
  if (socket.empty()) return usage();
  sopt.socket_path = socket;

  if (mode == "ping" || mode == "stats" || mode == "shutdown")
    return simple_request(socket, mode.c_str());

  if (mode == "submit") {
    std::string deck;
    if (!serve::read_file(submit_path, deck)) {
      std::fprintf(stderr, "error: cannot read %s\n", submit_path.c_str());
      return 2;
    }
    job.set("deck", deck);
    std::string out, errs, err;
    const int code =
        serve::submit_and_wait(socket, job, out, errs, &err);
    if (code < 0) {
      std::fprintf(stderr, "error: %s\n", err.c_str());
      return 1;
    }
    std::fwrite(out.data(), 1, out.size(), stdout);
    std::fwrite(errs.data(), 1, errs.size(), stderr);
    return code;
  }

  serve::Server server(sopt);
  std::string err;
  if (!server.start(&err)) {
    std::fprintf(stderr, "error: %s\n", err.c_str());
    return 1;
  }
  std::fprintf(stderr, "msim_serve: listening on %s (%zu workers)\n",
               socket.c_str(), server.workers());
  server.run();
  return 0;
}
