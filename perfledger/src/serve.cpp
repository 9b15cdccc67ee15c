// serve_mixed: a self-hosted ScenarioServer (executor width 2, two
// request workers) under two closed-loop serve::Client connections.
//
// The request stream is seeded and independent of timing: each client
// sends rounds of 20 requests, 18 of which repeat one of 8 small
// pure_sweep specs warmed during set-up (in-memory cache hits) and 2 of
// which, at seeded positions, are a mixed_table at a fresh seed (cold
// retrains plus cache stores). A round ends when both clients have their
// 20 replies; wall_s is the round's wall time. After the timed phase
// every reply is checked: status ok, and a result equal to a direct
// scenario::run_scenario of the same spec.
#include <algorithm>
#include <atomic>
#include <barrier>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <thread>

#include "ledger.h"
#include "runtime/executor.h"
#include "scenario/cache_bundle.h"
#include "scenario/diff.h"
#include "scenario/engine.h"
#include "serve/client.h"
#include "serve/server.h"

namespace ledger {

namespace {

constexpr std::size_t kClients = 2;
constexpr std::size_t kWarmSpecs = 8;
constexpr std::size_t kRoundRequests = 20;  // per client
constexpr std::size_t kRoundCold = 2;       // per client
/// Threads for the direct runs that check the replies (after timing).
constexpr std::size_t kCheckThreads = 4;

/// Spec key: warm spec k < kWarmSpecs, or a cold spec by its seed.
struct Request {
  bool cold = false;
  std::uint64_t seed = 0;
};

struct Reply {
  Request request;
  double ms = 0.0;
  bool ok = false;
  std::string body;  // response envelope, or the transport error
};

std::uint64_t warm_seed(std::uint64_t seed, std::size_t k) {
  return seed * 1000000ULL + k;
}

/// The requests one client sends in one round: a pure function of
/// (seed, round, client), so timing never changes the stream.
std::vector<Request> round_requests(std::uint64_t seed, std::size_t round,
                                    std::size_t client) {
  const std::size_t slot = round * kClients + client;
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ULL + slot);
  std::vector<std::size_t> positions(kRoundRequests);
  for (std::size_t i = 0; i < kRoundRequests; ++i) positions[i] = i;
  std::shuffle(positions.begin(), positions.end(), rng);
  std::vector<Request> out(kRoundRequests);
  for (Request& r : out) r.seed = warm_seed(seed, rng() % kWarmSpecs);
  for (std::size_t j = 0; j < kRoundCold; ++j) {
    out[positions[j]] = {true,
                         warm_seed(seed, kWarmSpecs + slot * kRoundCold + j)};
  }
  return out;
}

/// The spec texts the stream is made of, read once.
class Stream {
 public:
  explicit Stream(const Options& options)
      : warm_(read_file(options.specs_dir + "/serve_warm.spec")),
        cold_(read_file(options.specs_dir + "/serve_cold.spec")) {}

  [[nodiscard]] pg::scenario::ScenarioSpec spec(const Request& r) const {
    return spec_from_text(r.cold ? cold_ : warm_, r.seed);
  }
  [[nodiscard]] std::string text(const Request& r) const {
    return spec(r).to_text();
  }

 private:
  std::string warm_;
  std::string cold_;
};

struct Server {
  std::unique_ptr<pg::serve::ScenarioServer> server;
  std::string socket;
};

Server start_server(const Options& options, std::size_t rep) {
  Server s;
  s.socket = options.work_dir + "/serve" + std::to_string(rep) + ".sock";
  pg::serve::ServeOptions so;
  so.socket_path = s.socket;
  so.threads = 2;
  so.request_workers = 2;
  s.server = std::make_unique<pg::serve::ScenarioServer>(so);
  s.server->start();
  return s;
}

/// Closed-loop rounds until `budget` seconds have passed; returns each
/// round's wall time and appends every reply.
std::vector<double> run_rounds(const std::string& socket, const Stream& stream,
                               std::uint64_t seed, std::size_t& next_round,
                               double budget, Spans& spans, int pass,
                               std::vector<Reply>& replies) {
  std::atomic<bool> stop{false};
  std::barrier<> sync(kClients + 1);
  std::vector<std::vector<Reply>> per_client(kClients);
  const std::size_t first_round = next_round;
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::unique_ptr<pg::serve::Client> client;
      for (std::size_t round = first_round;; ++round) {
        sync.arrive_and_wait();
        if (stop.load()) break;
        for (const Request& r : round_requests(seed, round, c)) {
          Reply reply{r, 0.0, false, ""};
          Clock::time_point start = Clock::now();
          try {
            const std::string text = stream.text(r);
            start = Clock::now();
            if (!client) {
              client = std::make_unique<pg::serve::Client>(
                  pg::serve::Client::connect(socket));
            }
            pg::serve::Client::Response response = client->request(text);
            reply.ok = response.ok();
            reply.body = std::move(response.body);
          } catch (const std::exception& e) {
            reply.body = e.what();
            client.reset();
          }
          reply.ms = seconds_since(start) * 1000.0;
          per_client[c].push_back(std::move(reply));
        }
        sync.arrive_and_wait();
      }
    });
  }
  std::vector<double> walls;
  const Clock::time_point timed = Clock::now();
  for (;; ++next_round) {
    const Clock::time_point start = Clock::now();
    {
      spans.set_pass(pass);
      const Spans::Scope root = spans.span("bench.pass");
      sync.arrive_and_wait();  // round starts
      sync.arrive_and_wait();  // both clients have all replies
      spans.set_pass(-1);
    }
    walls.push_back(seconds_since(start));
    if (seconds_since(timed) >= budget) break;
  }
  ++next_round;
  stop.store(true);
  sync.arrive_and_wait();
  for (std::thread& t : clients) t.join();
  for (auto& replies_of_client : per_client) {
    for (Reply& r : replies_of_client) replies.push_back(std::move(r));
  }
  return walls;
}

struct CacheBlock {
  double total = 0.0;
  double retrained = 0.0;
  double hits = 0.0;
};

}  // namespace

WorkloadResult run_serve_mixed(const Options& options, Spans& spans) {
  WorkloadResult out;
  const Stream stream(options);
  const std::uint64_t first = warm_seed(options.seed, 0);
  out.spec_text = "# warm specs: seed = " + std::to_string(first) +
                  " + k, k < 8\n" + stream.text({false, first}) +
                  "# cold specs: a fresh seed per request\n" +
                  stream.text({true, warm_seed(options.seed, kWarmSpecs)});

  // Set-up: server construction and start, one connection, and the warm
  // fill of the 8 pure_sweep specs the stream repeats.
  Server server;
  std::vector<Reply> replies;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    if (server.server) server.server->stop();
    server = {};
    replies.clear();
    const Clock::time_point start = Clock::now();
    const Spans::Scope s = spans.span("bench.setup");
    server = start_server(options, rep);
    pg::serve::Client client = pg::serve::Client::connect(server.socket);
    for (std::size_t k = 0; k < kWarmSpecs; ++k) {
      const Request r{false, warm_seed(options.seed, k)};
      pg::serve::Client::Response response = client.request(stream.text(r));
      replies.push_back({r, 0.0, response.ok(), std::move(response.body)});
    }
    out.setup_s.push_back(seconds_since(start));
  }
  const std::size_t setup_replies = replies.size();

  const bool traced = spans.enabled();
  spans.set_enabled(false);
  std::size_t next_round = 0;
  const double budget = traced ? options.seconds / 2.0 : options.seconds;
  const Clock::time_point timed = Clock::now();
  out.wall_s = run_rounds(server.socket, stream, options.seed, next_round,
                          budget, spans, 0, replies);
  out.req_window_s = seconds_since(timed);
  const std::size_t untraced_end = replies.size();

  std::vector<double> traced_walls;
  std::optional<ObsWindow> obs;
  if (traced) {
    spans.set_enabled(true);
    obs.emplace();
    traced_walls = run_rounds(server.socket, stream, options.seed, next_round,
                              budget, spans, 1, replies);
    obs->stop();
  }
  server.server->stop();

  // ---- checks: every reply ok and equal to a direct run --------------
  // One direct run per distinct spec, spread over kCheckThreads threads
  // with a serial executor each (results do not depend on the executor).
  std::map<std::pair<bool, std::uint64_t>, std::size_t> slot_of;
  std::vector<Request> distinct;
  for (const Reply& reply : replies) {
    const auto key = std::make_pair(reply.request.cold, reply.request.seed);
    if (reply.ok && slot_of.emplace(key, distinct.size()).second) {
      distinct.push_back(reply.request);
    }
  }
  std::vector<pg::scenario::JsonValue> expected(distinct.size());
  std::vector<double> run_ms(distinct.size());
  std::vector<double> json_ms(distinct.size());
  std::vector<std::string> direct_error(distinct.size());
  {
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> workers;
    for (std::size_t w = 0; w < kCheckThreads; ++w) {
      workers.emplace_back([&] {
        pg::scenario::ShardStore store(false, "", 0);
        pg::scenario::EngineContext context{&pg::runtime::serial_executor(),
                                            &store};
        for (std::size_t i = next++; i < distinct.size(); i = next++) {
          try {
            Clock::time_point start = Clock::now();
            const pg::scenario::ScenarioResult direct =
                pg::scenario::run_scenario(stream.spec(distinct[i]), context);
            run_ms[i] = seconds_since(start) * 1000.0;
            start = Clock::now();
            const std::string json = to_json(direct);
            json_ms[i] = seconds_since(start) * 1000.0;
            expected[i] = pg::scenario::parse_json(json);
          } catch (const std::exception& e) {
            direct_error[i] = e.what();
          }
        }
      });
    }
    for (std::thread& t : workers) t.join();
  }
  std::vector<double> result_bytes;
  std::vector<CacheBlock> cache_blocks;
  for (std::size_t i = 0; i < replies.size(); ++i) {
    const Reply& reply = replies[i];
    const std::string what = std::string(reply.request.cold ? "cold" : "warm") +
                             " request seed " +
                             std::to_string(reply.request.seed) + ": ";
    if (i >= setup_replies && i < untraced_end && reply.ok) {
      out.req_ms.push_back(reply.ms);
    }
    if (!reply.ok) {
      out.ops.record(false, what + "not ok: " + reply.body.substr(0, 200));
      continue;
    }
    const std::size_t slot = slot_of.at({reply.request.cold, reply.request.seed});
    if (!direct_error[slot].empty()) {
      out.ops.record(false, what + "direct run failed: " + direct_error[slot]);
      continue;
    }
    const pg::scenario::JsonValue& want = expected[slot];
    const pg::scenario::JsonValue envelope =
        pg::scenario::parse_json(reply.body);
    const pg::scenario::JsonValue* result = envelope.find("result");
    std::string problem = "no result in the reply";
    if (result != nullptr) {
      const pg::scenario::ResultDiff diff =
          pg::scenario::diff_results(want, *result, {.tolerance = 0.0});
      problem = diff.clean() ? "" : "differs from a direct run at " +
                                        diff.entries.front().location;
      if (const pg::scenario::JsonValue* cache = result->find("cache");
          cache != nullptr && i >= untraced_end) {
        const auto num = [cache](const char* k) {
          const pg::scenario::JsonValue* v = cache->find(k);
          return v == nullptr ? 0.0 : v->number;
        };
        cache_blocks.push_back(
            {num("cells_total"), num("cells_retrained"), num("cache_hits")});
      }
    }
    result_bytes.push_back(static_cast<double>(reply.body.size()));
    out.ops.record(problem.empty(), what + problem);
  }
  if (!traced) return out;

  // ---- traced run: server counters over the traced rounds ------------
  auto& layers = out.layers;
  layers["serve.request_wall_mean_ms"] =
      obs->timer_mean_ms("obs.serve.request_wall");
  layers["serve.queue_wait_mean_ms"] = obs->timer_mean_ms("obs.serve.queue_wait");
  layers["serve.rejected"] = obs->count("obs.serve.rejected");
  layers["serve.errors"] = obs->count("obs.serve.errors");
  layers["runtime.exec_dispatch"] = obs->count("obs.exec.dispatch");
  layers["runtime.pool_tasks_stolen"] = obs->count("obs.pool.tasks_stolen");
  layers["runtime.team_generations"] = obs->count("obs.team.generations");
  layers["runtime.coalesced"] = obs->count("obs.cache.coalesced");
  // Per round of the traced phase: cache traffic from the replies.
  CacheBlock sum;
  for (const CacheBlock& b : cache_blocks) {
    sum.total += b.total;
    sum.retrained += b.retrained;
    sum.hits += b.hits;
  }
  const double rounds = static_cast<double>(traced_walls.size());
  layers["runtime.cells_total"] = {sum.total / rounds, "", false};
  layers["runtime.cells_retrained"] = {sum.retrained / rounds, "", false};
  layers["runtime.cache_hit_ratio"] = {
      sum.total > 0 ? sum.hits / sum.total : 0.0, "", false};
  // Direct runs of the distinct specs (the check above), per call.
  layers["scenario.run_scenario_ms"] = median_layer(run_ms, "no direct run");
  layers["scenario.write_json_ms"] = median_layer(json_ms, "no direct run");
  layers["scenario.result_bytes"] = median_layer(result_bytes, "no reply");
  layers["bench.trace_overhead_ratio"] = {
      median(traced_walls) / median(out.wall_s), "", false};
  // Nothing inside the server is reachable by outside spans: the whole
  // round is unattributed.
  layers["bench.unattributed_ms"] = {median(traced_walls) * 1000.0, "", false};
  return out;
}

}  // namespace ledger
