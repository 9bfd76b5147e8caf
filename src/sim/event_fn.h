// InlineFunction / EventFn: the move-only callables of the hot paths.
//
// InlineFunction<R(Args...), N> replaces std::function<R(Args...)> where a
// callback has exactly one owner. Callables whose state fits N bytes (and
// is nothrow move-constructible) live inside the InlineFunction itself —
// scheduling a typical timer chain, message hand-off or reply callback
// performs no heap allocation. Larger or throwing-move captures fall back
// to a single heap cell, which is what std::function did for anything past
// its (much smaller) SSO buffer anyway.
//
// Move-only by design: an event's callback has exactly one owner (the queue
// cell holding it), moves loop-to-loop through the cross-node channels, and
// is consumed by the single call that fires it; a pending call's reply
// callback likewise lives in one slab cell until the reply resolves it.
// Copyability is what forces std::function to type-erase through a heavier
// control block; dropping it is most of the win.
//
// EventFn, the callback carried by every simulation event, is the
// void() instance.

#ifndef ENCOMPASS_SIM_EVENT_FN_H_
#define ENCOMPASS_SIM_EVENT_FN_H_

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace encompass::sim {

template <typename Signature, size_t InlineCapacity>
class InlineFunction;

template <typename R, typename... Args, size_t InlineCapacity>
class InlineFunction<R(Args...), InlineCapacity> {
 public:
  /// Captures up to this many bytes are stored inline (no allocation).
  static constexpr size_t kInlineCapacity = InlineCapacity;

  InlineFunction() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineFunction> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  InlineFunction(F&& f) {  // NOLINT(google-explicit-constructor): adaptor
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

  InlineFunction(InlineFunction&& other) noexcept : vtable_(other.vtable_) {
    if (vtable_ != nullptr) {
      vtable_->relocate(storage_, other.storage_);
      other.vtable_ = nullptr;
    }
  }

  InlineFunction& operator=(InlineFunction&& other) noexcept {
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

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() {
    if (vtable_ != nullptr) vtable_->destroy(storage_);
  }

  explicit operator bool() const { return vtable_ != nullptr; }

  R operator()(Args... args) {
    return vtable_->invoke(storage_, std::forward<Args>(args)...);
  }

 private:
  struct VTable {
    R (*invoke)(void* storage, Args&&... args);
    // Move-constructs into dst from src and destroys src's residue; the
    // source is then vacant. noexcept by construction (inline storage
    // requires nothrow move; heap storage relocates a pointer).
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void* storage);
  };

  // A void signature discards whatever the callable returns.
  template <typename D>
  static R Invoke(D& f, Args&&... args) {
    if constexpr (std::is_void_v<R>) {
      f(std::forward<Args>(args)...);
    } else {
      return f(std::forward<Args>(args)...);
    }
  }

  template <typename D>
  static constexpr VTable kInlineVTable = {
      [](void* s, Args&&... args) -> R {
        return Invoke(*std::launder(reinterpret_cast<D*>(s)),
                      std::forward<Args>(args)...);
      },
      [](void* dst, void* src) {
        D* from = std::launder(reinterpret_cast<D*>(src));
        ::new (dst) D(std::move(*from));
        from->~D();
      },
      [](void* s) { std::launder(reinterpret_cast<D*>(s))->~D(); },
  };

  template <typename D>
  static constexpr VTable kHeapVTable = {
      [](void* s, Args&&... args) -> R {
        return Invoke(**reinterpret_cast<D**>(s), std::forward<Args>(args)...);
      },
      [](void* dst, void* src) {
        *reinterpret_cast<D**>(dst) = *reinterpret_cast<D**>(src);
      },
      [](void* s) { delete *reinterpret_cast<D**>(s); },
  };

  alignas(std::max_align_t) unsigned char storage_[kInlineCapacity];
  const VTable* vtable_ = nullptr;
};

/// The callback of every simulation event. 48 inline bytes are sized for
/// the engine's own lambdas: a this-pointer, a couple of values, a context
/// struct, or a shared_ptr cell (the network's in-flight message). Bigger
/// closures, such as one capturing a Message by value, go to the heap.
using EventFn = InlineFunction<void(), 48>;

}  // namespace encompass::sim

#endif  // ENCOMPASS_SIM_EVENT_FN_H_
