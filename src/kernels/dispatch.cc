#include "src/kernels/dispatch.h"

#include <atomic>
#include <cstdint>
#include <cstdlib>

#if defined(RGAE_KERNELS_HAVE_AVX2)
#include <cpuid.h>
#endif

namespace rgae {
namespace kernels {

namespace {

#if defined(RGAE_KERNELS_HAVE_AVX2)

// XCR0 bits the OS must have enabled for YMM register state (XMM + YMM).
constexpr uint64_t kXcr0Ymm = 0x6;

uint64_t ReadXcr0() {
  uint32_t eax = 0, edx = 0;
  // xgetbv with ecx=0; the xsave intrinsic needs -mxsave, plain asm does not.
  asm volatile("xgetbv" : "=a"(eax), "=d"(edx) : "c"(0));
  return (static_cast<uint64_t>(edx) << 32) | eax;
}

/// CPUID + XCR0 probe: AVX2 in the CPU and YMM state enabled by the OS.
bool CpuHasAvx2() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  if ((ecx & bit_OSXSAVE) == 0) return false;
  if ((ReadXcr0() & kXcr0Ymm) != kXcr0Ymm) return false;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  return (ebx & bit_AVX2) != 0;
}

#endif

Isa ClampToSupported(Isa isa) {
  const Isa best = BestSupportedIsa();
  return IsaLevel(isa) <= IsaLevel(best) ? isa : best;
}

/// First-use selection: RGAE_KERNEL override (clamped), else best
/// supported. Unknown override strings fall back to auto-detection.
Isa InitialIsa() {
  const char* env = std::getenv("RGAE_KERNEL");
  Isa requested;
  if (env != nullptr && IsaFromName(env, &requested)) {
    return ClampToSupported(requested);
  }
  return BestSupportedIsa();
}

std::atomic<Isa>& SelectedIsaCell() {
  static std::atomic<Isa> cell{InitialIsa()};
  return cell;
}

}  // namespace

const char* IsaName(Isa isa) {
  return isa == Isa::kAvx2 ? "avx2" : "scalar";
}

bool IsaFromName(const std::string& name, Isa* out) {
  for (const Isa isa : {Isa::kScalar, Isa::kAvx2}) {
    if (name == IsaName(isa)) {
      *out = isa;
      return true;
    }
  }
  return false;
}

Isa BestSupportedIsa() {
#if defined(RGAE_KERNELS_HAVE_AVX2)
  static const Isa best = CpuHasAvx2() ? Isa::kAvx2 : Isa::kScalar;
  return best;
#else
  return Isa::kScalar;
#endif
}

std::vector<Isa> SupportedIsas() {
  std::vector<Isa> out{Isa::kScalar};
  if (BestSupportedIsa() == Isa::kAvx2) out.push_back(Isa::kAvx2);
  return out;
}

Isa SelectedIsa() {
  return SelectedIsaCell().load(std::memory_order_relaxed);
}

void SetIsaForTesting(Isa isa) {
  SelectedIsaCell().store(ClampToSupported(isa), std::memory_order_relaxed);
}

}  // namespace kernels
}  // namespace rgae
