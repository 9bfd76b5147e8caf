// Link-time wrappers (see spans.h). Each wrapped function F is declared
// twice under GCC assembler labels: `__wrap_F` is defined here and receives
// every call the linker redirects, `__real_F` resolves to the original. A
// member function is declared as a free function taking `this` first, which
// is the same calling convention under the Itanium C++ ABI. The mangled
// names must match the `--wrap` list in CMakeLists.txt; a mismatch fails
// the link rather than going unnoticed.

#include "spans.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <string_view>
#include <typeinfo>
#include <utility>
#include <vector>

#include "audit/audit_trail.h"
#include "discprocess/lock_manager.h"
#include "encompass/deployment.h"
#include "net/network.h"
#include "os/node.h"
#include "os/process.h"
#include "sim/simulation.h"
#include "storage/volume.h"

namespace en = encompass;

namespace perfbench {
namespace {

std::function<void()>& ArchiveHook() {
  static std::function<void()> hook;
  return hook;
}

std::function<void(en::sim::Simulation&)>& SimulationEndHook() {
  static std::function<void(en::sim::Simulation&)> hook;
  return hook;
}

}  // namespace

void SetArchiveHook(std::function<void()> hook) {
  ArchiveHook() = std::move(hook);
}

void SetSimulationEndHook(
    std::function<void(en::sim::Simulation&)> hook) {
  SimulationEndHook() = std::move(hook);
}

}  // namespace perfbench

#define PB_DECLARE(ret, name, sym, ...)                    \
  ret Real##name(__VA_ARGS__) __asm__("__real_" sym);      \
  ret Wrap##name(__VA_ARGS__) __asm__("__wrap_" sym)

// ---- hooks, in every build -------------------------------------------------

PB_DECLARE(void, ArchiveVolumes,
           "_ZN9encompass3app14NodeDeployment14ArchiveVolumesEv",
           en::app::NodeDeployment*);
PB_DECLARE(void, SimulationDtor, "_ZN9encompass3sim10SimulationD1Ev",
           en::sim::Simulation*);

void WrapArchiveVolumes(en::app::NodeDeployment* self) {
  RealArchiveVolumes(self);
  if (perfbench::ArchiveHook()) perfbench::ArchiveHook()();
}

void WrapSimulationDtor(en::sim::Simulation* self) {
  if (perfbench::SimulationEndHook()) perfbench::SimulationEndHook()(*self);
  RealSimulationDtor(self);
}

#ifdef PERFBENCH_TRACED

// ---- span stack --------------------------------------------------------------

namespace perfbench {
namespace {

struct OpenFrame {
  Layer layer;
  uint64_t start_ns;
  uint64_t child_ns;
};

constexpr int kMaxDepth = 1024;
OpenFrame g_stack[kMaxDepth];
int g_depth = 0;
LayerTotals g_totals;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void OpenFrameOf(Layer layer) {
  if (g_depth == kMaxDepth) {
    std::fprintf(stderr, "perfbench: span stack overflow\n");
    std::abort();
  }
  ++g_totals.calls[layer];
  g_stack[g_depth++] = OpenFrame{layer, NowNs(), 0};
}

void CloseFrame() {
  const OpenFrame f = g_stack[--g_depth];
  const uint64_t dur = NowNs() - f.start_ns;
  g_totals.self_ns[f.layer] += dur - f.child_ns;
  if (g_depth > 0) g_stack[g_depth - 1].child_ns += dur;
}

}  // namespace

void OpenRoot() {
  if (g_depth != 0) {
    std::fprintf(stderr, "perfbench: root span opened inside a span\n");
    std::abort();
  }
  OpenFrameOf(kSim);
}

void CloseRoot() {
  if (g_depth != 1) {
    std::fprintf(stderr, "perfbench: root span closed at depth %d\n", g_depth);
    std::abort();
  }
  CloseFrame();
}

const LayerTotals& Totals() { return g_totals; }

void ResetTotals() {
  if (g_depth != 0) {
    std::fprintf(stderr, "perfbench: ResetTotals inside a span\n");
    std::abort();
  }
  g_totals = LayerTotals{};
}

namespace {

/// A layer span for its scope; opens only inside a root span.
class ScopedSpan {
 public:
  explicit ScopedSpan(Layer layer) : open_(g_depth > 0) {
    if (open_) OpenFrameOf(layer);
  }
  ~ScopedSpan() {
    if (open_) CloseFrame();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const bool open_;
};

void CountAlloc() {
  if (g_depth > 0) ++g_totals.allocs[g_stack[g_depth - 1].layer];
}

/// Layer of a process class, from its namespace in the mangled type name
/// ("N9encompass3tmf10TmpProcessE" -> tmf). Application processes
/// (encompass::app, encompass::apps::*) are the encompass layer; anything
/// else, including os test processes, stays with os.
Layer LayerOfType(const std::type_info& type) {
  // Fixed storage: this runs inside spans, where an allocation of its own
  // would be charged to the layer being measured.
  struct Entry {
    const std::type_info* type;
    Layer layer;
  };
  static Entry cache[64];
  static int cached = 0;
  for (int i = 0; i < cached; ++i) {
    if (*cache[i].type == type) return cache[i].layer;
  }
  Layer layer = kOs;
  constexpr std::string_view kRoot = "N9encompass";
  const std::string_view name = type.name();
  if (name.substr(0, kRoot.size()) == kRoot) {
    std::string_view rest = name.substr(kRoot.size());
    size_t len = 0, digits = 0;
    while (digits < rest.size() && rest[digits] >= '0' && rest[digits] <= '9') {
      len = len * 10 + static_cast<size_t>(rest[digits++] - '0');
    }
    const std::string_view ns = rest.substr(digits, len);
    if (ns == "tmf") layer = kTmf;
    if (ns == "discprocess") layer = kDiscprocess;
    if (ns == "audit") layer = kAudit;
    if (ns == "app" || ns == "apps") layer = kEncompass;
  }
  if (cached < 64) cache[cached++] = Entry{&type, layer};
  return layer;
}

}  // namespace
}  // namespace perfbench

using perfbench::ScopedSpan;

// ---- layer entry points -------------------------------------------------------

PB_DECLARE(void, NetworkSend, "_ZN9encompass3net7Network4SendENS0_7MessageE",
           en::net::Network*, en::net::Message);
PB_DECLARE(void, NodeRoute, "_ZN9encompass2os4Node5RouteENS_3net7MessageE",
           en::os::Node*, en::net::Message);
PB_DECLARE(void, DeliverToProcess,
           "_ZN9encompass2os7Process16DeliverToProcessENS_3net7MessageE",
           en::os::Process*, en::net::Message);
PB_DECLARE(en::storage::OpResult, VolumeReadRecord,
           "_ZN9encompass7storage6Volume10ReadRecordERKNSt7__cxx1112basic_"
           "stringIcSt11char_traitsIcESaIcEEERKNS_5SliceE",
           en::storage::Volume*, const std::string&, const en::Slice&);
PB_DECLARE(en::storage::OpResult, VolumeMutate,
           "_ZN9encompass7storage6Volume6MutateERKNSt7__cxx1112basic_"
           "stringIcSt11char_traitsIcESaIcEEENS0_10MutationOpERKNS_5SliceESD_",
           en::storage::Volume*, const std::string&, en::storage::MutationOp,
           const en::Slice&, const en::Slice&);
PB_DECLARE(int, VolumeFlush, "_ZN9encompass7storage6Volume5FlushEv",
           en::storage::Volume*);
PB_DECLARE(en::discprocess::LockManager::AcquireResult, LockAcquire,
           "_ZN9encompass11discprocess11LockManager7AcquireERKNS_"
           "7TransidERKNS0_7LockKeyE",
           en::discprocess::LockManager*, const en::Transid&,
           const en::discprocess::LockKey&);
PB_DECLARE(std::vector<en::discprocess::LockGrant>, LockReleaseAll,
           "_ZN9encompass11discprocess11LockManager10ReleaseAllERKNS_"
           "7TransidE",
           en::discprocess::LockManager*, const en::Transid&);
PB_DECLARE(uint64_t, AuditAppend,
           "_ZN9encompass5audit10AuditTrail6AppendENS0_11AuditRecordE",
           en::audit::AuditTrail*, en::audit::AuditRecord);
PB_DECLARE(size_t, AuditForce, "_ZN9encompass5audit10AuditTrail5ForceEv",
           en::audit::AuditTrail*);

void WrapNetworkSend(en::net::Network* self, en::net::Message msg) {
  ScopedSpan span(perfbench::kNet);
  RealNetworkSend(self, std::move(msg));
}

void WrapNodeRoute(en::os::Node* self, en::net::Message msg) {
  ScopedSpan span(perfbench::kOs);
  RealNodeRoute(self, std::move(msg));
}

// Charged to the receiving process's layer: the handler it runs is that
// layer's work.
void WrapDeliverToProcess(en::os::Process* self, en::net::Message msg) {
  ScopedSpan span(perfbench::LayerOfType(typeid(*self)));
  RealDeliverToProcess(self, std::move(msg));
}

en::storage::OpResult WrapVolumeReadRecord(en::storage::Volume* self,
                                           const std::string& fname,
                                           const en::Slice& key) {
  ScopedSpan span(perfbench::kStorage);
  return RealVolumeReadRecord(self, fname, key);
}

en::storage::OpResult WrapVolumeMutate(en::storage::Volume* self,
                                       const std::string& fname,
                                       en::storage::MutationOp op,
                                       const en::Slice& key,
                                       const en::Slice& value) {
  ScopedSpan span(perfbench::kStorage);
  return RealVolumeMutate(self, fname, op, key, value);
}

int WrapVolumeFlush(en::storage::Volume* self) {
  ScopedSpan span(perfbench::kStorage);
  return RealVolumeFlush(self);
}

en::discprocess::LockManager::AcquireResult WrapLockAcquire(
    en::discprocess::LockManager* self, const en::Transid& owner,
    const en::discprocess::LockKey& key) {
  ScopedSpan span(perfbench::kDiscprocess);
  return RealLockAcquire(self, owner, key);
}

std::vector<en::discprocess::LockGrant> WrapLockReleaseAll(
    en::discprocess::LockManager* self, const en::Transid& owner) {
  ScopedSpan span(perfbench::kDiscprocess);
  return RealLockReleaseAll(self, owner);
}

uint64_t WrapAuditAppend(en::audit::AuditTrail* self,
                         en::audit::AuditRecord record) {
  ScopedSpan span(perfbench::kAudit);
  return RealAuditAppend(self, std::move(record));
}

size_t WrapAuditForce(en::audit::AuditTrail* self) {
  ScopedSpan span(perfbench::kAudit);
  return RealAuditForce(self);
}

// ---- heap allocation counter ---------------------------------------------------

namespace {

void* CountedAlloc(std::size_t n) {
  perfbench::CountAlloc();
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* CountedAlignedAlloc(std::size_t n, std::align_val_t al) {
  perfbench::CountAlloc();
  const auto a = static_cast<std::size_t>(al);
  const std::size_t size = (n == 0 ? a : (n + a - 1) / a * a);
  if (void* p = std::aligned_alloc(a, size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  perfbench::CountAlloc();
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  perfbench::CountAlloc();
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new(std::size_t n, std::align_val_t al) {
  return CountedAlignedAlloc(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return CountedAlignedAlloc(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

#endif  // PERFBENCH_TRACED
