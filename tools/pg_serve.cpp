// pg_serve: the resident scenario service.
//
// Daemon mode (`pg_serve --socket PATH [opts]`) stands up one long-lived
// process that owns a shared Executor, warm payoff-cache shards, and a
// disk cache, then serves ScenarioSpec requests over a local socket with
// the versioned framing in src/serve/protocol.h -- so a fleet of short
// client invocations (CI jobs, notebooks, sweep drivers) reuses one warm
// substrate instead of paying cold-start and retrain costs per process.
// SIGTERM/SIGINT drain gracefully: admitted requests finish, the cache
// spills to disk, and --metrics-out/--trace artifacts are written.
//
// Client mode (`pg_serve --request SPECFILE --socket PATH`) sends one
// spec file and prints the JSON response envelope (exit 0 on ok, 3 when
// the server answered a structured error). `pg_run --compare` accepts
// the envelope directly. `--retries`/`--read-timeout-ms` bound transport
// flakiness (each retry reconnects fresh, with exponential backoff), and
// `--ping` is the body-less health check (protocol minor 1).
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "robust/atomic_file.h"
#include "robust/faultpoint.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "util/error.h"

namespace {

pg::serve::ScenarioServer* g_server = nullptr;

void handle_stop_signal(int) {
  if (g_server != nullptr) g_server->request_stop();
}

std::string usage() {
  return
      "pg_serve -- resident scenario service (protocol PGSERVE/" +
      std::to_string(pg::serve::kProtocolMajor) + "." +
      std::to_string(pg::serve::kProtocolMinor) + ")\n"
      "\n"
      "daemon mode:\n"
      "  pg_serve --socket PATH [options]\n"
      "  --threads N           executor width shared by all requests\n"
      "                        (0 = all cores)\n"
      "  --workers N           concurrent scenario executions (default 2)\n"
      "  --queue-limit N       reject (queue_full) past N queued (default 64)\n"
      "  --max-request-bytes N longest accepted spec body (default 1 MiB)\n"
      "  --cache-dir DIR       payoff disk cache (default $PG_CACHE_DIR)\n"
      "  --cache-max-bytes N   evict oldest disk shards past N bytes\n"
      "  --no-cache            disable payoff memoization\n"
      "  --trace PATH          Chrome trace written at shutdown\n"
      "  --metrics-out PATH    metrics snapshot written at shutdown\n"
      "  (SIGTERM/SIGINT drain: finish admitted requests, spill, exit)\n"
      "\n"
      "client mode:\n"
      "  pg_serve --request SPECFILE --socket PATH [options]\n"
      "  pg_serve --ping --socket PATH [options]   health check (pong)\n"
      "  --id ID               request id (default auto req-<n>)\n"
      "  --priority N          scheduling priority (lower runs first)\n"
      "  --deadline-ms N       fail with deadline_exceeded if still\n"
      "                        queued after N ms\n"
      "  --timeout-ms N        connect retry window (default 15000)\n"
      "  --retries N           re-send on transport failure up to N more\n"
      "                        times, reconnecting fresh with exponential\n"
      "                        backoff (default 0; structured errors never\n"
      "                        retry)\n"
      "  --read-timeout-ms N   fail a response read blocked past N ms\n"
      "                        (default 0 = wait forever)\n"
      "  --out-file PATH       write the response envelope there\n"
      "  exit codes: 0 ok, 1 local error, 2 usage, 3 server-side error\n";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  PG_CHECK(static_cast<bool>(in), "cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::size_t parse_size(const std::string& value, const std::string& flag) {
  char* end = nullptr;
  const unsigned long long n = std::strtoull(value.c_str(), &end, 10);
  PG_CHECK(!value.empty() && end != nullptr && *end == '\0',
           flag + " expects a non-negative integer, got '" + value + "'");
  return static_cast<std::size_t>(n);
}

struct CliOptions {
  bool help = false;
  bool ping = false;         // client mode: health check, no spec body
  std::string request_file;  // non-empty = client mode
  pg::serve::ServeOptions serve;
  pg::serve::RequestHeader meta;
  std::size_t timeout_ms = 15000;
  std::size_t retries = 0;
  std::size_t read_timeout_ms = 0;
  std::string out_file;
};

CliOptions parse_args(const std::vector<std::string>& args) {
  CliOptions options;
  const auto value = [&](std::size_t& i, const std::string& flag) {
    PG_CHECK(i + 1 < args.size(), flag + " requires a value");
    return args[++i];
  };
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--help" || arg == "-h") {
      options.help = true;
    } else if (arg == "--socket") {
      options.serve.socket_path = value(i, arg);
    } else if (arg == "--threads") {
      options.serve.threads = parse_size(value(i, arg), arg);
    } else if (arg == "--workers") {
      options.serve.request_workers = parse_size(value(i, arg), arg);
    } else if (arg == "--queue-limit") {
      options.serve.queue_limit = parse_size(value(i, arg), arg);
    } else if (arg == "--max-request-bytes") {
      options.serve.max_request_bytes = parse_size(value(i, arg), arg);
    } else if (arg == "--cache-dir") {
      options.serve.cache_dir = value(i, arg);
    } else if (arg == "--cache-max-bytes") {
      options.serve.cache_max_bytes = parse_size(value(i, arg), arg);
    } else if (arg == "--no-cache") {
      options.serve.use_cache = false;
    } else if (arg == "--trace") {
      options.serve.trace = value(i, arg);
    } else if (arg == "--metrics-out") {
      options.serve.metrics_out = value(i, arg);
    } else if (arg == "--request") {
      options.request_file = value(i, arg);
    } else if (arg == "--ping") {
      options.ping = true;
    } else if (arg == "--retries") {
      options.retries = parse_size(value(i, arg), arg);
    } else if (arg == "--read-timeout-ms") {
      options.read_timeout_ms = parse_size(value(i, arg), arg);
    } else if (arg == "--id") {
      options.meta.request_id = value(i, arg);
    } else if (arg == "--priority") {
      options.meta.priority = parse_size(value(i, arg), arg);
    } else if (arg == "--deadline-ms") {
      options.meta.deadline_ms = parse_size(value(i, arg), arg);
    } else if (arg == "--timeout-ms") {
      options.timeout_ms = parse_size(value(i, arg), arg);
    } else if (arg == "--out-file") {
      options.out_file = value(i, arg);
    } else {
      PG_CHECK(false, "unknown argument: " + arg + "\n" + usage());
    }
  }
  PG_CHECK(options.help || !options.serve.socket_path.empty(),
           "--socket is required\n" + usage());
  PG_CHECK(!(options.ping && !options.request_file.empty()),
           "--ping and --request are mutually exclusive");
  return options;
}

int run_daemon(const CliOptions& options) {
  pg::serve::ScenarioServer server(options.serve);
  g_server = &server;
  std::signal(SIGTERM, handle_stop_signal);
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGPIPE, SIG_IGN);
  server.start();
  server.wait();  // returns after a drain triggered by SIGTERM/SIGINT
  g_server = nullptr;
  return 0;
}

int run_client(const CliOptions& options) {
  pg::serve::Client::RetryPolicy policy;
  policy.attempts = options.retries + 1;
  policy.connect_timeout_ms = options.timeout_ms;
  policy.read_timeout_ms = options.read_timeout_ms;
  const pg::serve::Client::Response response =
      options.ping
          ? pg::serve::Client::ping_retry(options.serve.socket_path, policy)
          : pg::serve::Client::request_retry(options.serve.socket_path,
                                             read_file(options.request_file),
                                             policy, options.meta);
  if (!options.out_file.empty()) {
    pg::robust::atomic_write_file(options.out_file, response.body);
    std::cout << "wrote " << options.out_file << "\n";
  } else {
    std::cout << response.body;
  }
  if (!response.ok()) {
    std::cerr << "error: server answered status=" << response.header.status
              << " for request " << response.header.request_id << "\n";
    return 3;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  CliOptions options;
  try {
    options = parse_args(args);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
  try {
    if (options.help) {
      std::cout << usage();
      return 0;
    }
    pg::robust::configure_from_env();  // $PG_FAULTS chaos specs
    return (options.request_file.empty() && !options.ping)
               ? run_daemon(options)
               : run_client(options);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
