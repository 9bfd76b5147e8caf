// Layer spans and link-time hooks for the perfbench harness.
//
// The harness never edits the program. It sees inside it in two ways, both
// from its own files:
//   * hooks: two program functions are wrapped at link time in every build
//     (`-Wl,--wrap`), so a chaos campaign run as one library call still
//     reports when its set-up ended and what its Stats held at the end;
//   * spans: the traced build also wraps each layer's public entry points
//     and times every call into them on one span stack. A span's self time
//     is its duration minus its nested spans; heap allocations are charged
//     to the innermost open span.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <functional>

namespace encompass::sim {
class Simulation;
}

namespace perfbench {

/// The eight src/ modules, in dependency order.
enum Layer : int {
  kSim,
  kNet,
  kOs,
  kStorage,
  kDiscprocess,
  kAudit,
  kTmf,
  kEncompass,
  kNumLayers
};

inline constexpr const char* kLayerNames[kNumLayers] = {
    "sim", "net", "os", "storage", "discprocess", "audit", "tmf", "encompass"};

/// Per-layer totals accumulated by the span stack since the last reset.
struct LayerTotals {
  uint64_t self_ns[kNumLayers] = {};
  uint64_t calls[kNumLayers] = {};
  uint64_t allocs[kNumLayers] = {};
};

#ifdef PERFBENCH_TRACED
inline constexpr bool kTraced = true;
/// Opens the root (sim) span: the harness calls this around the simulated
/// work it measures. Layer spans open only inside a root, so set-up and
/// output checks are never charged to a layer.
void OpenRoot();
void CloseRoot();
/// Totals so far; Reset clears them (no span may be open).
const LayerTotals& Totals();
void ResetTotals();
#else
inline constexpr bool kTraced = false;
inline void OpenRoot() {}
inline void CloseRoot() {}
inline const LayerTotals& Totals() {
  static const LayerTotals none;
  return none;
}
inline void ResetTotals() {}
#endif

/// Called after every NodeDeployment::ArchiveVolumes made from outside the
/// deployment module, i.e. once per node at the end of a campaign's set-up.
void SetArchiveHook(std::function<void()> hook);
/// Called with every Simulation just before it is destroyed.
void SetSimulationEndHook(std::function<void(encompass::sim::Simulation&)> hook);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
