#pragma once
// sim::Action: the move-only `void()` callable every scheduled event runs.
//
// A capture of up to kInlineBytes is stored inside the Action itself; a
// larger one (or one whose move could throw) spills to the heap. Every
// timer, ack and per-BR closure on the simulator's hot path captures 24-32
// bytes, which libstdc++'s std::function (a 16-byte buffer) would allocate
// for on every schedule; stored in place, scheduling one allocates nothing.
// Move-only, so a closure may own what it carries (a token, a batch, a
// std::unique_ptr) without a copy constructor.

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace ringnet::sim {

class Action {
 public:
  static constexpr std::size_t kInlineBytes = 48;

  template <class F, class D = std::decay_t<F>,
            class = std::enable_if_t<!std::is_same_v<D, Action> &&
                                     std::is_invocable_r_v<void, D&>>>
  Action(F&& f) {  // implicit: every schedule call passes a bare closure
    if constexpr (kStoredInPlace<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
    } else {
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(f)));
    }
    ops_ = &kOps<D>;
  }

  Action(Action&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(other.buf_, buf_);
      other.ops_ = nullptr;
    }
  }

  Action& operator=(Action&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        ops_->relocate(other.buf_, buf_);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  Action(const Action&) = delete;
  Action& operator=(const Action&) = delete;

  ~Action() { reset(); }

  /// Runs the callable; the Action must not be a moved-from one.
  void operator()() { ops_->call(buf_); }

 private:
  struct Ops {
    void (*call)(void* self);
    // Move-constructs the callable at `to` and destroys the one at `from`.
    void (*relocate)(void* from, void* to) noexcept;
    void (*destroy)(void* self) noexcept;
  };

  template <class D>
  static constexpr bool kStoredInPlace =
      sizeof(D) <= kInlineBytes && alignof(D) <= alignof(void*) &&
      std::is_nothrow_move_constructible_v<D>;

  template <class D>
  static D& target(void* self) {
    if constexpr (kStoredInPlace<D>) {
      return *std::launder(static_cast<D*>(self));
    } else {
      return **std::launder(static_cast<D**>(self));
    }
  }

  template <class D>
  static void call_fn(void* self) {
    target<D>(self)();
  }

  template <class D>
  static void relocate_fn(void* from, void* to) noexcept {
    if constexpr (kStoredInPlace<D>) {
      D& src = target<D>(from);
      ::new (to) D(std::move(src));
      src.~D();
    } else {
      ::new (to) D*(*std::launder(static_cast<D**>(from)));
    }
  }

  template <class D>
  static void destroy_fn(void* self) noexcept {
    if constexpr (kStoredInPlace<D>) {
      target<D>(self).~D();
    } else {
      delete &target<D>(self);
    }
  }

  template <class D>
  static constexpr Ops kOps{&call_fn<D>, &relocate_fn<D>, &destroy_fn<D>};

  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  alignas(void*) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace ringnet::sim
