#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace dfs::sim {

/// Move-only type-erased `R()` callable with inline small-buffer storage.
///
/// The event kernel stores one of these in every slab slot, the network in
/// every flow, and the periodic-driver table one per driver, so a closure
/// whose captures fit `kInlineSize` bytes is stored without any heap
/// allocation — which covers every hot caller in the tree (heartbeats,
/// completion events, flow callbacks, periodic drivers). Larger callables
/// fall back to one heap allocation, exactly what std::function would have
/// done, so nothing is lost on the cold path.
template <typename R>
class BasicSmallFn {
 public:
  /// Inline capacity in bytes. Sized to hold a captured `this` plus a few
  /// words without growing the slot past one cache line pair. Every pending
  /// event and every flow pays this footprint, so bump it deliberately.
  static constexpr std::size_t kInlineSize = 64;

  BasicSmallFn() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, BasicSmallFn> &&
                std::is_invocable_r_v<R, std::decay_t<F>&>>>
  BasicSmallFn(F&& f) {  // NOLINT: implicit, mirrors std::function
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineSize &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = &kInlineOps<Fn>;
    } else {
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = &kHeapOps<Fn>;
    }
  }

  BasicSmallFn(BasicSmallFn&& other) noexcept { move_from(other); }
  BasicSmallFn& operator=(BasicSmallFn&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  BasicSmallFn(const BasicSmallFn&) = delete;
  BasicSmallFn& operator=(const BasicSmallFn&) = delete;
  ~BasicSmallFn() { reset(); }

  explicit operator bool() const { return ops_ != nullptr; }

  R operator()() { return ops_->call(buf_); }

  /// Destroy the held callable (no-op when empty).
  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    R (*call)(void*);
    void (*destroy)(void*);
    /// Move-construct the callable into `dst` from `src`, destroying `src`.
    void (*relocate)(void* dst, void* src);
  };

  template <typename Fn>
  static R inline_call(void* p) {
    return static_cast<R>((*static_cast<Fn*>(p))());
  }
  template <typename Fn>
  static void inline_destroy(void* p) {
    static_cast<Fn*>(p)->~Fn();
  }
  template <typename Fn>
  static void inline_relocate(void* dst, void* src) {
    Fn* s = static_cast<Fn*>(src);
    ::new (dst) Fn(std::move(*s));
    s->~Fn();
  }

  template <typename Fn>
  static Fn*& heap_ptr(void* p) {
    return *static_cast<Fn**>(p);
  }
  template <typename Fn>
  static R heap_call(void* p) {
    return static_cast<R>((*heap_ptr<Fn>(p))());
  }
  template <typename Fn>
  static void heap_destroy(void* p) {
    delete heap_ptr<Fn>(p);
  }
  template <typename Fn>
  static void heap_relocate(void* dst, void* src) {
    ::new (dst) Fn*(heap_ptr<Fn>(src));
  }

  template <typename Fn>
  static constexpr Ops kInlineOps{&inline_call<Fn>, &inline_destroy<Fn>,
                                  &inline_relocate<Fn>};
  template <typename Fn>
  static constexpr Ops kHeapOps{&heap_call<Fn>, &heap_destroy<Fn>,
                                &heap_relocate<Fn>};

  void move_from(BasicSmallFn& other) noexcept {
    if (other.ops_ != nullptr) {
      other.ops_->relocate(buf_, other.buf_);
      ops_ = other.ops_;
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineSize];
  const Ops* ops_ = nullptr;
};

/// Event and flow-completion callbacks.
using SmallFn = BasicSmallFn<void>;
/// Periodic-driver bodies: return false to stop the driver.
using SmallPredicate = BasicSmallFn<bool>;

}  // namespace dfs::sim
