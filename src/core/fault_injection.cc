#include "src/core/fault_injection.h"

#include <chrono>
#include <limits>
#include <thread>

#include "src/models/model.h"

namespace rgae {

const char* FaultTypeName(FaultEvent::Type type) {
  switch (type) {
    case FaultEvent::Type::kNanWeight:
      return "nan-weight";
    case FaultEvent::Type::kLrSpike:
      return "lr-spike";
    case FaultEvent::Type::kCorruptGradient:
      return "corrupt-gradient";
    case FaultEvent::Type::kSlowEpoch:
      return "slow-epoch";
  }
  return "unknown";
}

FaultInjector::FaultInjector(std::vector<FaultEvent> events, uint64_t seed)
    : rng_(seed) {
  events_.reserve(events.size());
  for (FaultEvent& e : events) events_.push_back({e, false});
}

int FaultInjector::Apply(bool pretrain, int epoch, GaeModel* model) {
  int fired = 0;
  for (Scheduled& s : events_) {
    if (s.consumed || s.event.pretrain != pretrain || s.event.epoch != epoch) {
      continue;
    }
    const std::vector<Parameter*> params = model->Params();
    if (params.empty()) continue;
    std::string line = std::string(pretrain ? "pretrain" : "cluster") +
                       " epoch " + std::to_string(epoch) + ": " +
                       FaultTypeName(s.event.type);
    switch (s.event.type) {
      case FaultEvent::Type::kNanWeight: {
        Parameter* p = params[rng_.UniformInt(static_cast<int>(params.size()))];
        const int idx = rng_.UniformInt(static_cast<int>(p->value.size()));
        p->value.data()[idx] = std::numeric_limits<double>::quiet_NaN();
        line += " in " + p->value.ShapeString();
        break;
      }
      case FaultEvent::Type::kLrSpike: {
        Adam* adam = model->optimizer();
        if (adam == nullptr) continue;
        adam->set_learning_rate(adam->learning_rate() * s.event.magnitude);
        line += " x" + std::to_string(s.event.magnitude);
        break;
      }
      case FaultEvent::Type::kCorruptGradient: {
        Parameter* p = params[rng_.UniformInt(static_cast<int>(params.size()))];
        double* v = p->value.data();
        for (size_t i = 0; i < p->value.size(); ++i) {
          v[i] += s.event.magnitude * rng_.Gaussian();
        }
        line += " in " + p->value.ShapeString();
        break;
      }
      case FaultEvent::Type::kSlowEpoch: {
        std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
            s.event.magnitude));
        line += " " + std::to_string(s.event.magnitude) + "ms";
        break;
      }
    }
    if (s.event.once) s.consumed = true;
    ++faults_fired_;
    ++fired;
    log_.push_back(std::move(line));
  }
  return fired;
}

}  // namespace rgae
