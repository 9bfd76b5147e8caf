// EventFn: the callback type carried by every simulation event.
//
// A drop-in replacement for std::function<void()> on the engine's hottest
// path. Callables whose state fits kInlineCapacity bytes (and is nothrow
// move-constructible) live inside the EventFn itself — scheduling a typical
// timer chain or message hand-off performs no heap allocation. Larger or
// throwing-move captures fall back to a single heap cell, which is what
// std::function did for anything past its (much smaller) SSO buffer anyway.
//
// Move-only by design: an event's callback has exactly one owner (the queue
// cell holding it), moves loop-to-loop through the cross-node channels, and
// is consumed by the single call that fires it. Copyability is what forces
// std::function to type-erase through a heavier control block; dropping it
// is most of the win.

#ifndef ENCOMPASS_SIM_EVENT_FN_H_
#define ENCOMPASS_SIM_EVENT_FN_H_

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace encompass::sim {

class EventFn {
 public:
  /// Captures up to this many bytes are stored inline (no allocation).
  /// Sized for the engine's own lambdas: a this-pointer, a couple of values,
  /// a context struct, or a shared_ptr cell (the network's in-flight
  /// message). Bigger closures, such as one capturing a Message by value,
  /// go to the heap.
  static constexpr size_t kInlineCapacity = 48;

  EventFn() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventFn> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  EventFn(F&& f) {  // NOLINT(google-explicit-constructor): callable adaptor
    using D = std::decay_t<F>;
    if constexpr (sizeof(D) <= kInlineCapacity &&
                  alignof(D) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<D>) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      vtable_ = &kInlineVTable<D>;
    } else {
      *reinterpret_cast<D**>(storage_) = new D(std::forward<F>(f));
      vtable_ = &kHeapVTable<D>;
    }
  }

  EventFn(EventFn&& other) noexcept : vtable_(other.vtable_) {
    if (vtable_ != nullptr) {
      vtable_->relocate(storage_, other.storage_);
      other.vtable_ = nullptr;
    }
  }

  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      if (vtable_ != nullptr) vtable_->destroy(storage_);
      vtable_ = other.vtable_;
      if (vtable_ != nullptr) {
        vtable_->relocate(storage_, other.storage_);
        other.vtable_ = nullptr;
      }
    }
    return *this;
  }

  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;

  ~EventFn() {
    if (vtable_ != nullptr) vtable_->destroy(storage_);
  }

  explicit operator bool() const { return vtable_ != nullptr; }

  void operator()() { vtable_->invoke(storage_); }

 private:
  struct VTable {
    void (*invoke)(void* storage);
    // Move-constructs into dst from src and destroys src's residue; the
    // source EventFn is then vacant. noexcept by construction (inline
    // storage requires nothrow move; heap storage relocates a pointer).
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void* storage);
  };

  template <typename D>
  static constexpr VTable kInlineVTable = {
      [](void* s) { (*std::launder(reinterpret_cast<D*>(s)))(); },
      [](void* dst, void* src) {
        D* from = std::launder(reinterpret_cast<D*>(src));
        ::new (dst) D(std::move(*from));
        from->~D();
      },
      [](void* s) { std::launder(reinterpret_cast<D*>(s))->~D(); },
  };

  template <typename D>
  static constexpr VTable kHeapVTable = {
      [](void* s) { (**reinterpret_cast<D**>(s))(); },
      [](void* dst, void* src) {
        *reinterpret_cast<D**>(dst) = *reinterpret_cast<D**>(src);
      },
      [](void* s) { delete *reinterpret_cast<D**>(s); },
  };

  alignas(std::max_align_t) unsigned char storage_[kInlineCapacity];
  const VTable* vtable_ = nullptr;
};

}  // namespace encompass::sim

#endif  // ENCOMPASS_SIM_EVENT_FN_H_
