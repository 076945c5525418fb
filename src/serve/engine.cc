#include "src/serve/engine.h"

#include <algorithm>
#include <utility>

#include "src/obs/trace.h"

namespace rgae {
namespace serve {

namespace {

std::vector<double> RowVector(const Matrix& m, int r) {
  const double* p = m.row(r);
  return std::vector<double>(p, p + m.cols());
}

double ElapsedUs(std::chrono::steady_clock::time_point since) {
  // Raw timing: per-query serve_us is a product field on QueryResult, not an
  // obs span (R8 opt-out).
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - since)
             .count() /
         1000.0;
}

}  // namespace

ServeEngine::ServeEngine(ModelSnapshot snapshot, const ServeOptions& options)
    : options_(options),
      num_nodes_(snapshot.num_nodes()),
      has_head_(snapshot.has_head()),
      forward_(std::move(snapshot)),
      cache_(options.cache_capacity) {
  const int workers = std::max(1, options_.num_workers);
  workers_.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ServeEngine::~ServeEngine() {
  // Workers exit only once the queue is empty, so every accepted query is
  // answered before teardown completes.
  {
    MutexLock lock(queue_mu_);
    stop_ = true;
  }
  queue_cv_.NotifyAll();
  for (std::thread& w : workers_) w.join();
}

std::future<QueryResult> ServeEngine::Query(int node) {
  Request request;
  request.node = node;
  std::future<QueryResult> result = request.promise.get_future();
  if (node < 0 || node >= num_nodes_) {
    // Checked in every build type: an out-of-range id would index past the
    // forward engine's rows on a worker thread.
    QueryResult empty;
    empty.node = node;
    request.promise.set_value(std::move(empty));
    return result;
  }
  RGAE_COUNT("serve.queries");
  queries_.fetch_add(1, std::memory_order_relaxed);
  request.submitted = Clock::now();  // Raw timing: start of serve_us.
  {
    MutexLock lock(queue_mu_);
    queue_.push_back(std::move(request));
  }
  queue_cv_.NotifyOne();
  return result;
}

QueryResult ServeEngine::QueryBlocking(int node) { return Query(node).get(); }

std::vector<int> ServeEngine::MutateGraph(const AttributedGraph& next) {
  RGAE_SPAN("serve.mutate");
  MutexLock lock(state_mu_);
  const std::vector<int> invalidated = forward_.UpdateGraph(next);
  cache_.Invalidate(invalidated);
  return invalidated;
}

AttributedGraph ServeEngine::CurrentGraph() const {
  MutexLock lock(state_mu_);
  return forward_.graph();
}

ServeStats ServeEngine::stats() const {
  ServeStats s;
  s.queries = queries_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.cache = cache_.counters();
  return s;
}

void ServeEngine::WorkerLoop() {
  for (;;) {
    std::vector<Request> batch;
    {
      MutexLock lock(queue_mu_);
      queue_cv_.Wait(queue_mu_, [this]() RGAE_REQUIRES(queue_mu_) {
        return stop_ || !queue_.empty();
      });
      if (queue_.empty()) return;  // Stopped and fully drained.
      const size_t take = std::min(static_cast<size_t>(std::max(
                                       1, options_.max_batch)),
                                   queue_.size());
      for (size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
    }
    ProcessBatch(&batch);
  }
}

void ServeEngine::ProcessBatch(std::vector<Request>* batch) {
  RGAE_SPAN("serve.batch");
  RGAE_COUNT("serve.batches");
  batches_.fetch_add(1, std::memory_order_relaxed);

  // Probe the cache without the state mutex; hits resolve immediately.
  std::vector<size_t> miss_index;
  std::vector<int> miss_nodes;
  for (size_t i = 0; i < batch->size(); ++i) {
    Request& request = (*batch)[i];
    CachedEntry entry;
    if (cache_.Get(request.node, &entry)) {
      QueryResult result;
      result.node = request.node;
      result.embedding = std::move(entry.embedding);
      result.assignment = std::move(entry.assignment);
      result.cache_hit = true;
      result.serve_us = ElapsedUs(request.submitted);
      request.promise.set_value(std::move(result));
    } else {
      miss_index.push_back(i);
      miss_nodes.push_back(request.node);
    }
  }
  if (miss_nodes.empty()) return;

  // One row-restricted forward batch for every miss in this tick. Inserts
  // stay under the state mutex so they cannot race a MutateGraph
  // invalidation (coherence, engine.h).
  Matrix z, p;
  {
    MutexLock lock(state_mu_);
    z = forward_.EmbedRows(miss_nodes);
    if (has_head_) p = SoftAssignRows(forward_.snapshot(), z);
    for (size_t m = 0; m < miss_nodes.size(); ++m) {
      CachedEntry entry;
      entry.embedding = RowVector(z, static_cast<int>(m));
      if (has_head_) entry.assignment = RowVector(p, static_cast<int>(m));
      cache_.Put(miss_nodes[m], std::move(entry));
    }
  }
  for (size_t m = 0; m < miss_index.size(); ++m) {
    Request& request = (*batch)[miss_index[m]];
    QueryResult result;
    result.node = request.node;
    result.embedding = RowVector(z, static_cast<int>(m));
    if (has_head_) result.assignment = RowVector(p, static_cast<int>(m));
    result.cache_hit = false;
    result.serve_us = ElapsedUs(request.submitted);
    request.promise.set_value(std::move(result));
  }
}

}  // namespace serve
}  // namespace rgae
