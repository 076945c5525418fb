// Serving bench: drives query load through serve::ServeEngine and reports
// the latency distribution (p50/p95/p99) and throughput of two phases over
// the same snapshot in one report:
//
//   cold  — uniform random nodes over the whole graph with a deliberately
//           undersized cache, interleaved with edge mutations so misses and
//           incremental 2-hop recomputes dominate;
//   warm  — the same query volume drawn from a small hot set, so the LRU
//           cache answers almost everything.
//
// The warm phase's higher throughput in the same document is the headline
// number: it demonstrates the cache and the coherent invalidation path
// working together. `--json=<path>` adds a "serve" section to the
// rgae.bench.v1 document (validated by scripts/check_bench_json.py and the
// `serve_schema` ctest); `--trace=` works as in every bench.
//
// `RGAE_SERVE_QUERIES` sets the queries per phase (default 2000). The rest
// of the load is fixed, by the constants below and a cache of a quarter of
// the nodes, so bench/baselines/serve.json always measures one
// configuration.

#include <chrono>
#include <memory>
#include <thread>

#include "bench/bench_common.h"
#include "src/models/model_factory.h"
#include "src/serve/engine.h"
#include "src/tensor/random.h"

namespace {

constexpr int kWorkers = 2;    // Engine worker threads.
constexpr int kIssuers = 4;    // Concurrent issuer threads.
constexpr int kMaxBatch = 32;  // Max queries per worker tick.
constexpr int kHotSet = 32;    // Hot-set size of the warm phase.

struct PhaseReport {
  std::string name;
  double seconds = 0.0;
  double throughput_qps = 0.0;
  rgae_bench::LatencySummary latency_us;
  rgae::serve::CacheCounters cache;
  int mutations = 0;
  int invalidated_rows = 0;
};

rgae::obs::JsonValue PhaseJson(const PhaseReport& phase) {
  rgae::obs::JsonValue out = rgae::obs::JsonValue::MakeObject();
  out.Set("name", rgae::obs::JsonValue(phase.name));
  out.Set("queries", rgae::obs::JsonValue(phase.latency_us.count));
  out.Set("seconds", rgae::obs::JsonValue(phase.seconds));
  out.Set("throughput_qps", rgae::obs::JsonValue(phase.throughput_qps));
  out.Set("latency_us", rgae_bench::LatencySummaryJson(phase.latency_us));
  rgae::obs::JsonValue cache = rgae::obs::JsonValue::MakeObject();
  cache.Set("hits", rgae::obs::JsonValue(phase.cache.hits));
  cache.Set("misses", rgae::obs::JsonValue(phase.cache.misses));
  cache.Set("evictions", rgae::obs::JsonValue(phase.cache.evictions));
  cache.Set("invalidations", rgae::obs::JsonValue(phase.cache.invalidations));
  out.Set("cache", std::move(cache));
  out.Set("mutations", rgae::obs::JsonValue(phase.mutations));
  out.Set("invalidated_rows", rgae::obs::JsonValue(phase.invalidated_rows));
  return out;
}

rgae::serve::CacheCounters DiffCounters(const rgae::serve::CacheCounters& a,
                                        const rgae::serve::CacheCounters& b) {
  rgae::serve::CacheCounters d;
  d.hits = b.hits - a.hits;
  d.misses = b.misses - a.misses;
  d.evictions = b.evictions - a.evictions;
  d.invalidations = b.invalidations - a.invalidations;
  return d;
}

// Runs one load phase: kIssuers threads each issue their share of `queries`
// blocking queries (uniform over the hot set when `hot_set` > 0, over the
// whole graph otherwise), measuring per-query wall latency. Mutations (when
// `mutate_every` > 0) are applied from the main thread while the issuers
// run — concurrent with the load.
PhaseReport RunPhase(rgae::serve::ServeEngine* engine, const std::string& name,
                     int queries, uint64_t seed, int hot_set,
                     int mutate_every) {
  using Clock = std::chrono::steady_clock;
  const rgae::serve::CacheCounters before = engine->stats().cache;

  std::vector<std::vector<double>> latencies(static_cast<size_t>(kIssuers));
  const auto phase_start = Clock::now();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(kIssuers));
  for (int i = 0; i < kIssuers; ++i) {
    const int share = queries / kIssuers + (i < queries % kIssuers ? 1 : 0);
    threads.emplace_back([engine, i, share, seed, hot_set, &latencies] {
      rgae::Rng rng(seed + static_cast<uint64_t>(i) * 7919);
      std::vector<double>& sink = latencies[static_cast<size_t>(i)];
      sink.reserve(static_cast<size_t>(share));
      for (int q = 0; q < share; ++q) {
        const int node = hot_set > 0 ? rng.UniformInt(hot_set)
                                     : rng.UniformInt(engine->num_nodes());
        const auto start = Clock::now();
        engine->QueryBlocking(node);
        const auto end = Clock::now();
        sink.push_back(
            std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
                .count() /
            1000.0);
      }
    });
  }

  // Edge churn concurrent with the load: flip edges near a roaming cursor
  // so the incremental 2-hop path and cache invalidation run under fire.
  int mutations = 0, invalidated = 0;
  if (mutate_every > 0) {
    rgae::Rng mut_rng(seed + 104729);
    const int rounds = queries / mutate_every;
    for (int m = 0; m < rounds; ++m) {
      rgae::AttributedGraph next = engine->CurrentGraph();
      const int u = mut_rng.UniformInt(next.num_nodes());
      const int v = mut_rng.UniformInt(next.num_nodes());
      if (u == v) continue;
      if (next.HasEdge(u, v)) {
        next.RemoveEdge(u, v);
      } else {
        next.AddEdge(u, v);
      }
      invalidated += static_cast<int>(engine->MutateGraph(next).size());
      ++mutations;
    }
  }
  for (std::thread& t : threads) t.join();
  const auto phase_end = Clock::now();

  PhaseReport report;
  report.name = name;
  report.mutations = mutations;
  report.invalidated_rows = invalidated;
  std::vector<double> all;
  all.reserve(static_cast<size_t>(queries));
  for (const std::vector<double>& sink : latencies) {
    all.insert(all.end(), sink.begin(), sink.end());
  }
  report.latency_us = rgae_bench::SummarizeLatencies(std::move(all));
  report.seconds =
      std::chrono::duration_cast<std::chrono::nanoseconds>(phase_end -
                                                           phase_start)
          .count() /
      1e9;
  report.throughput_qps =
      report.seconds > 0.0 ? static_cast<double>(queries) / report.seconds
                           : 0.0;
  report.cache = DiffCounters(before, engine->stats().cache);
  return report;
}

void PrintPhase(const PhaseReport& p) {
  std::printf(
      "%-5s  %6lld queries in %.3fs  %9.0f qps  "
      "p50/p95/p99 %.1f/%.1f/%.1f us  hits %lld misses %lld evict %lld\n",
      p.name.c_str(), p.latency_us.count, p.seconds, p.throughput_qps,
      p.latency_us.p50, p.latency_us.p95, p.latency_us.p99,
      static_cast<long long>(p.cache.hits),
      static_cast<long long>(p.cache.misses),
      static_cast<long long>(p.cache.evictions));
}

}  // namespace

int main(int argc, char** argv) {
  rgae_bench::BenchObs obs(&argc, argv, "serve");
  rgae_bench::PrintRunBanner("serving: snapshot + batched queries + cache",
                             /*trials=*/1);

  const std::string dataset = "Cora";
  const std::string model_name = "DGAE";
  const uint64_t seed = 1;
  const rgae::AttributedGraph graph = rgae::MakeDataset(dataset, seed);
  const int num_clusters = graph.num_clusters();

  // A trained head is not needed to measure serving performance; a fresh
  // model with an initialized clustering head exercises the same code.
  rgae::ModelOptions options;
  options.seed = seed;
  std::unique_ptr<rgae::GaeModel> model =
      rgae::CreateModel(model_name, graph, options);
  rgae::Rng head_rng(seed);
  model->InitClusteringHead(num_clusters, head_rng);
  rgae::serve::ModelSnapshot snapshot = model->ExportSnapshot();

  const int queries = rgae::PositiveIntFromEnv("RGAE_SERVE_QUERIES", 2000);
  rgae::serve::ServeOptions serve_options;
  serve_options.num_workers = kWorkers;
  serve_options.max_batch = kMaxBatch;
  serve_options.cache_capacity = snapshot.num_nodes() / 4;

  std::printf(
      "model=%s dataset=%s nodes=%d workers=%d batch=%d cache=%d "
      "queries=%d issuers=%d\n",
      model_name.c_str(), dataset.c_str(), snapshot.num_nodes(),
      serve_options.num_workers, serve_options.max_batch,
      serve_options.cache_capacity, queries, kIssuers);

  rgae::serve::ServeEngine engine(std::move(snapshot), serve_options);

  // Cold: uniform nodes, undersized cache, concurrent edge churn.
  const PhaseReport cold =
      RunPhase(&engine, "cold", queries, seed, /*hot_set=*/0,
               /*mutate_every=*/200);
  PrintPhase(cold);

  // Warm: repeat queries over a small hot set; the cache answers.
  const PhaseReport warm = RunPhase(&engine, "warm", queries, seed + 17,
                                    kHotSet, /*mutate_every=*/0);
  PrintPhase(warm);

  const double speedup =
      cold.throughput_qps > 0.0 ? warm.throughput_qps / cold.throughput_qps
                                : 0.0;
  std::printf("warm/cold throughput: %.2fx (cache hit rate warm %.1f%%)\n",
              speedup,
              warm.latency_us.count > 0
                  ? 100.0 * static_cast<double>(warm.cache.hits) /
                        static_cast<double>(warm.latency_us.count)
                  : 0.0);

  if (obs.json_requested()) {
    rgae::obs::JsonValue serve = rgae::obs::JsonValue::MakeObject();
    serve.Set("model", rgae::obs::JsonValue(model_name));
    serve.Set("dataset", rgae::obs::JsonValue(dataset));
    serve.Set("num_nodes", rgae::obs::JsonValue(engine.num_nodes()));
    serve.Set("workers", rgae::obs::JsonValue(serve_options.num_workers));
    serve.Set("max_batch", rgae::obs::JsonValue(serve_options.max_batch));
    serve.Set("cache_capacity",
              rgae::obs::JsonValue(serve_options.cache_capacity));
    serve.Set("warm_over_cold_throughput", rgae::obs::JsonValue(speedup));
    rgae::obs::JsonValue phases = rgae::obs::JsonValue::MakeArray();
    phases.Append(PhaseJson(cold));
    phases.Append(PhaseJson(warm));
    serve.Set("phases", std::move(phases));
    obs.SetExtra("serve", std::move(serve));
  }
  return 0;
}
