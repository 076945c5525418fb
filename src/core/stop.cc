#include "src/core/stop.h"

#include <atomic>

namespace rgae {

namespace {
std::atomic<bool> g_stop_requested{false};
}  // namespace

void RequestGlobalStop() {
  g_stop_requested.store(true, std::memory_order_relaxed);
}

bool GlobalStopRequested() {
  return g_stop_requested.load(std::memory_order_relaxed);
}

void ClearGlobalStop() {
  g_stop_requested.store(false, std::memory_order_relaxed);
}

}  // namespace rgae
