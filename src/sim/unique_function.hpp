// UniqueFunction: minimal type-erased move-only callable (the subset of
// C++23 std::move_only_function we need). Event callbacks capture move-only
// PacketPtr handles, which std::function cannot hold.
//
// Callables of up to kInlineBytes (and nothrow-movable) live in an inline
// buffer, so wrapping the plane's event closures never allocates. Larger
// ones are boxed on the heap and the buffer holds the pointer.
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace mdp::sim {

template <typename Sig>
class UniqueFunction;

template <typename R, typename... Args>
class UniqueFunction<R(Args...)> {
 public:
  /// Largest callable stored without a heap allocation.
  static constexpr std::size_t kInlineBytes = 48;

  UniqueFunction() = default;

  template <typename F>
    requires(!std::is_same_v<std::decay_t<F>, UniqueFunction>)
  UniqueFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    emplace(std::forward<F>(f));
  }

  UniqueFunction(UniqueFunction&& o) noexcept { take(o); }
  UniqueFunction& operator=(UniqueFunction&& o) noexcept {
    if (this != &o) {
      reset();
      take(o);
    }
    return *this;
  }
  UniqueFunction& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }
  UniqueFunction(const UniqueFunction&) = delete;
  UniqueFunction& operator=(const UniqueFunction&) = delete;
  ~UniqueFunction() { reset(); }

  explicit operator bool() const noexcept { return invoke_ != nullptr; }

  R operator()(Args... args) {
    return invoke_(buf_, std::forward<Args>(args)...);
  }

 private:
  enum class Op { kMove, kDestroy };
  using Invoke = R (*)(void*, Args&&...);
  // Moves the callable from `src` into raw storage `dst` (and destroys
  // the source), or destroys the callable in `dst`. Null when the stored
  // object is trivially relocatable and destructible: a move is a copy of
  // the buffer and destruction is a no-op.
  using Manage = void (*)(Op, void* dst, void* src) noexcept;

  template <typename F>
  static constexpr bool kInline = sizeof(F) <= kInlineBytes &&
                                  alignof(F) <= alignof(std::max_align_t) &&
                                  std::is_nothrow_move_constructible_v<F>;

  template <typename F>
  void emplace(F&& f) {
    using T = std::decay_t<F>;
    if constexpr (kInline<T>) {
      ::new (static_cast<void*>(buf_)) T(std::forward<F>(f));
      invoke_ = [](void* p, Args&&... args) -> R {
        return (*std::launder(static_cast<T*>(p)))(
            std::forward<Args>(args)...);
      };
      if constexpr (std::is_trivially_copyable_v<T> &&
                    std::is_trivially_destructible_v<T>) {
        // Moves copy the whole buffer: define the bytes past the object.
        std::memset(buf_ + sizeof(T), 0, kInlineBytes - sizeof(T));
      } else {
        manage_ = [](Op op, void* dst, void* src) noexcept {
          if (op == Op::kMove) {
            T* s = std::launder(static_cast<T*>(src));
            ::new (dst) T(std::move(*s));
            s->~T();
          } else {
            std::launder(static_cast<T*>(dst))->~T();
          }
        };
      }
    } else {
      T* boxed = new T(std::forward<F>(f));
      std::memcpy(buf_, &boxed, sizeof boxed);
      invoke_ = [](void* p, Args&&... args) -> R {
        T* t;
        std::memcpy(&t, p, sizeof t);
        return (*t)(std::forward<Args>(args)...);
      };
      manage_ = [](Op op, void* dst, void* src) noexcept {
        if (op == Op::kMove) {
          std::memcpy(dst, src, sizeof(T*));
        } else {
          T* t;
          std::memcpy(&t, dst, sizeof t);
          delete t;
        }
      };
    }
  }

  void take(UniqueFunction& o) noexcept {
    if (!o.invoke_) return;
    if (o.manage_)
      o.manage_(Op::kMove, buf_, o.buf_);
    else
      std::memcpy(buf_, o.buf_, kInlineBytes);
    invoke_ = o.invoke_;
    manage_ = o.manage_;
    o.invoke_ = nullptr;
    o.manage_ = nullptr;
  }

  void reset() noexcept {
    if (manage_) manage_(Op::kDestroy, buf_, nullptr);
    invoke_ = nullptr;
    manage_ = nullptr;
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  Invoke invoke_ = nullptr;
  Manage manage_ = nullptr;
};

}  // namespace mdp::sim
