#ifndef RGAE_KERNELS_DISPATCH_H_
#define RGAE_KERNELS_DISPATCH_H_

#include <string>
#include <vector>

namespace rgae {
namespace kernels {

/// Instruction-set tiers a kernel stub can carry: the portable scalar
/// reference and AVX2. Every dispatched op gives the same bits on both, so
/// golden-number tests pass under either (DESIGN.md §9).
enum class Isa {
  kScalar = 0,
  kAvx2 = 1,
};

/// Numeric tier for ordering comparisons and the metrics gauge:
/// scalar=0, avx2=1.
inline constexpr int IsaLevel(Isa isa) { return static_cast<int>(isa); }

/// "scalar" / "avx2".
const char* IsaName(Isa isa);

/// Parses an `RGAE_KERNEL` value. Returns true and sets *out on an exact
/// match; unknown strings return false (the caller falls back to auto).
bool IsaFromName(const std::string& name, Isa* out);

/// The best tier this build *and* this CPU support: the AVX2 tier when it
/// was compiled in and CPUID/XCR0 report AVX2 with YMM state enabled,
/// otherwise scalar.
Isa BestSupportedIsa();

/// Every tier usable in this process, ascending (always starts with
/// kScalar). The equivalence suite and the bench ISA sweep iterate this.
std::vector<Isa> SupportedIsas();

/// The tier every stub resolves to. Decided once on first use: the
/// `RGAE_KERNEL=scalar|avx2` environment override (clamped down to
/// BestSupportedIsa if the machine cannot honor it), otherwise
/// BestSupportedIsa. Cheap to call from kernel wrappers (one relaxed
/// atomic load after initialization).
Isa SelectedIsa();

/// Test/bench hook: redirects every stub to `isa` (clamped to
/// BestSupportedIsa) from now on. Product code never calls this — the
/// supported override path is the RGAE_KERNEL environment variable.
void SetIsaForTesting(Isa isa);

/// A runtime-dispatched kernel in the style of ATen's DispatchStub: one
/// function pointer per ISA tier, resolved against SelectedIsa on every
/// call. The avx2 slot stays null when the build lacks the tier, and the
/// stub then falls back to scalar, which must always be set. Resolution is
/// one predictable branch on top of the atomic load in SelectedIsa — noise
/// next to any kernel body, and re-reading it per call is what lets
/// SetIsaForTesting retarget live stubs.
template <typename Fn>
struct KernelStub {
  Fn scalar = nullptr;
  Fn avx2 = nullptr;

  Fn Get() const {
    if (SelectedIsa() == Isa::kAvx2 && avx2 != nullptr) return avx2;
    return scalar;
  }
};

}  // namespace kernels
}  // namespace rgae

#endif  // RGAE_KERNELS_DISPATCH_H_
