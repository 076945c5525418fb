#ifndef RGAE_CORE_FAULT_INJECTION_H_
#define RGAE_CORE_FAULT_INJECTION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/tensor/random.h"

namespace rgae {

class GaeModel;

/// One scheduled fault. Faults fire just before the training step of the
/// matching (phase, epoch); which weight entries they hit is drawn from the
/// injector's seeded RNG, so runs reproduce bit-identically.
struct FaultEvent {
  enum class Type {
    /// Overwrite one randomly chosen weight entry with NaN.
    kNanWeight,
    /// Multiply the optimizer's learning rate by `magnitude` (the spike
    /// persists until a rollback restores the checkpointed rate).
    kLrSpike,
    /// Add `magnitude`-scaled random noise to one parameter block, the
    /// footprint of a corrupted gradient having been applied.
    kCorruptGradient,
  };

  Type type = Type::kNanWeight;
  /// Epoch within the phase at which the fault fires.
  int epoch = 0;
  /// Fire during pretraining (true) or the clustering phase (false).
  bool pretrain = false;
  /// Strength of the fault (LR multiplier / noise scale).
  double magnitude = 1e3;
  /// One-shot faults are consumed by their first firing, so a rolled-back
  /// run passes the epoch cleanly on retry. Persistent faults (`once ==
  /// false`) re-fire on every pass and make the run unrecoverable.
  bool once = true;
};

/// Human-readable name of a fault type ("nan-weight", ...).
const char* FaultTypeName(FaultEvent::Type type);

/// Deterministic, seed-driven fault injector used by the resilience tests
/// and `bench_robust_training` to prove each recovery path fires. Attach
/// one via `TrainerOptions::fault_injector`; the trainer calls `Apply`
/// before every training step.
class FaultInjector {
 public:
  FaultInjector(std::vector<FaultEvent> events, uint64_t seed);

  /// Applies every event scheduled for (phase, epoch) to the model.
  /// Returns the number of faults that fired.
  int Apply(bool pretrain, int epoch, GaeModel* model);

  /// Total number of faults fired so far (across rollback replays).
  int faults_fired() const { return faults_fired_; }

  /// Log lines describing each fired fault, for bench output.
  const std::vector<std::string>& log() const { return log_; }

 private:
  struct Scheduled {
    FaultEvent event;
    bool consumed = false;
  };

  std::vector<Scheduled> events_;
  Rng rng_;
  int faults_fired_ = 0;
  std::vector<std::string> log_;
};

}  // namespace rgae

#endif  // RGAE_CORE_FAULT_INJECTION_H_
