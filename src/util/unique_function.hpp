#pragma once

/// \file unique_function.hpp
/// Type-erased move-only callable (a C++20 stand-in for C++23's
/// std::move_only_function). The event queue and the timer wheel store
/// their closures in these. No event owns a packet any more (a link hop is
/// two packet hand-offs on the event queue's lanes, not closures), so what
/// this buys over std::function is its inline buffer, and move-only
/// captures where a caller needs them.
///
/// Small callables (up to kInlineSize bytes, nothrow-move-constructible)
/// are stored inline; scheduling them performs no heap allocation. This is
/// what keeps the per-flow probation timers — lambdas capturing a pointer
/// and a 64-bit key — allocation-free on the datapath. The control
/// plane's [this, action list] apply event fits inline too; std::function's
/// buffer holds 16 bytes. Larger captures fall back to the heap
/// transparently.

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace mafic::util {

template <typename Signature>
class UniqueFunction;

template <typename R, typename... Args>
class UniqueFunction<R(Args...)> {
 public:
  /// Inline storage: enough for a lambda capturing [this, key, a couple of
  /// doubles] — the common shape of simulator events.
  static constexpr std::size_t kInlineSize = 48;

  UniqueFunction() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, UniqueFunction> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  UniqueFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    using D = std::decay_t<F>;
    if constexpr (kFitsInline<D>) {
      ::new (static_cast<void*>(&storage_)) D(std::forward<F>(f));
      vtable_ = &kInlineVTable<D>;
    } else {
      *reinterpret_cast<D**>(&storage_) = new D(std::forward<F>(f));
      vtable_ = &kHeapVTable<D>;
    }
  }

  UniqueFunction(UniqueFunction&& other) noexcept { take(other); }

  UniqueFunction& operator=(UniqueFunction&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
    return *this;
  }

  UniqueFunction(const UniqueFunction&) = delete;
  UniqueFunction& operator=(const UniqueFunction&) = delete;

  ~UniqueFunction() { reset(); }

  explicit operator bool() const noexcept { return vtable_ != nullptr; }

  R operator()(Args... args) {
    return vtable_->invoke(&storage_, std::forward<Args>(args)...);
  }

  /// True when the held callable lives in the inline buffer (diagnostics;
  /// the allocation-free guarantees of the hot path rest on this).
  bool is_inline() const noexcept {
    return vtable_ != nullptr && vtable_->inline_storage;
  }

 private:
  struct VTable {
    R (*invoke)(void*, Args&&...);
    void (*move_to)(void* src, void* dst) noexcept;  // move + destroy src
    void (*destroy)(void*) noexcept;
    bool inline_storage;
  };

  template <typename D>
  static constexpr bool kFitsInline =
      sizeof(D) <= kInlineSize &&
      alignof(D) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<D>;

  template <typename D>
  static constexpr VTable kInlineVTable{
      [](void* s, Args&&... args) -> R {
        return (*std::launder(reinterpret_cast<D*>(s)))(
            std::forward<Args>(args)...);
      },
      [](void* src, void* dst) noexcept {
        D* f = std::launder(reinterpret_cast<D*>(src));
        ::new (dst) D(std::move(*f));
        f->~D();
      },
      [](void* s) noexcept { std::launder(reinterpret_cast<D*>(s))->~D(); },
      true,
  };

  template <typename D>
  static constexpr VTable kHeapVTable{
      [](void* s, Args&&... args) -> R {
        return (**reinterpret_cast<D**>(s))(std::forward<Args>(args)...);
      },
      [](void* src, void* dst) noexcept {
        *reinterpret_cast<D**>(dst) = *reinterpret_cast<D**>(src);
      },
      [](void* s) noexcept { delete *reinterpret_cast<D**>(s); },
      false,
  };

  void take(UniqueFunction& other) noexcept {
    if (other.vtable_ != nullptr) {
      other.vtable_->move_to(&other.storage_, &storage_);
      vtable_ = other.vtable_;
      other.vtable_ = nullptr;
    }
  }

  void reset() noexcept {
    if (vtable_ != nullptr) {
      vtable_->destroy(&storage_);
      vtable_ = nullptr;
    }
  }

  alignas(std::max_align_t) std::byte storage_[kInlineSize];
  const VTable* vtable_ = nullptr;
};

}  // namespace mafic::util
