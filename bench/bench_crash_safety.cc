// Crash-safety driver: a small deterministic trial set run under the trial
// journal and the cooperative stop, for the resume and schema tests
// (scripts/resume_test.py, scripts/check_bench_json.py --journal).
//
// The aggregate lines print doubles with %.17g — an exact round-trip — so
// a killed-and-resumed run (same --journal) can be compared bit-for-bit
// against an uninterrupted one. Wall-clock seconds are deliberately left
// out of these lines: timing is the one field that legitimately differs
// between runs of the same trial.

#include "bench/bench_common.h"

namespace {

void PrintAggregate(const char* name, const rgae::Aggregate& a) {
  std::printf("agg %s trials=%d dropped=%d\n", name, a.num_trials,
              a.dropped_trials);
  std::printf("agg %s best %.17g %.17g %.17g\n", name, a.best.acc, a.best.nmi,
              a.best.ari);
  std::printf("agg %s mean %.17g %.17g %.17g\n", name, a.mean.acc, a.mean.nmi,
              a.mean.ari);
  std::printf("agg %s stddev %.17g %.17g %.17g\n", name, a.stddev.acc,
              a.stddev.nmi, a.stddev.ari);
}

}  // namespace

int main(int argc, char** argv) {
  const rgae_bench::BenchObs obs(&argc, argv, "crash_safety");
  rgae_bench::PrintRunBanner("crash safety — journaled GAE couples on Cora");
  const int trials = rgae::NumTrialsFromEnv();

  const rgae_bench::MethodResult result =
      rgae_bench::RunCoupleTrials("GAE", "Cora", trials);
  if (rgae::GlobalStopRequested()) {
    std::printf("run interrupted; aggregates omitted\n");
    return 130;
  }
  PrintAggregate("base", result.base);
  PrintAggregate("r", result.rvariant);
  return 0;
}
