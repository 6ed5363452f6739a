/**
 * @file
 * Small-buffer move-only callable, the engine's event callback
 * representation.
 *
 * `std::function` heap-allocates for any capture list larger than its
 * (implementation-defined, typically two-pointer) inline buffer, and
 * the simulator's event callbacks routinely capture `this` plus a few
 * words of state.  SmallFn stores the callable in a fixed 64-byte
 * inline buffer and has no heap path: a callable that is larger, more
 * strictly aligned, or not nothrow-movable does not convert to SmallFn,
 * so an oversized capture is a compile error at its schedule() call
 * rather than a hidden allocation per event.  64 bytes holds every
 * callback in tree (the largest, StreamEngine's RX completion, is
 * `this` + flow index + receive buffer + timestamp).
 *
 * Move-only on purpose: event callbacks are dispatched exactly once
 * and priority-queue reshuffling only ever relocates them.
 */

#ifndef DAMN_SIM_SMALL_FN_HH
#define DAMN_SIM_SMALL_FN_HH

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace damn::sim {

/** Move-only `void()` callable held in a 64-byte inline buffer. */
class SmallFn
{
  public:
    static constexpr std::size_t kInlineBytes = 64;

    SmallFn() = default;

    template <typename F, typename Fn = std::decay_t<F>,
              typename = std::enable_if_t<
                  !std::is_same_v<Fn, SmallFn> &&
                  std::is_invocable_r_v<void, Fn &> &&
                  sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>>>
    SmallFn(F &&f)
    {
        ::new (static_cast<void *>(store_)) Fn(std::forward<F>(f));
        ops_ = &opsFor<Fn>;
    }

    SmallFn(SmallFn &&other) noexcept { moveFrom(other); }

    SmallFn &
    operator=(SmallFn &&other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    SmallFn(const SmallFn &) = delete;
    SmallFn &operator=(const SmallFn &) = delete;

    ~SmallFn() { reset(); }

    /** Destroy the held callable (if any); empty afterwards. */
    void
    reset()
    {
        if (ops_) {
            ops_->destroy(store_);
            ops_ = nullptr;
        }
    }

    explicit operator bool() const { return ops_ != nullptr; }

    void operator()() { ops_->invoke(store_); }

  private:
    struct Ops
    {
        void (*invoke)(void *);
        /** Move-construct into @p dst from @p src, destroying src. */
        void (*relocate)(void *src, void *dst) noexcept;
        void (*destroy)(void *) noexcept;
    };

    template <typename Fn>
    static constexpr Ops opsFor = {
        [](void *p) { (*static_cast<Fn *>(p))(); },
        [](void *src, void *dst) noexcept {
            Fn *f = static_cast<Fn *>(src);
            ::new (dst) Fn(std::move(*f));
            f->~Fn();
        },
        [](void *p) noexcept { static_cast<Fn *>(p)->~Fn(); },
    };

    void
    moveFrom(SmallFn &other) noexcept
    {
        ops_ = other.ops_;
        if (ops_) {
            ops_->relocate(other.store_, store_);
            other.ops_ = nullptr;
        }
    }

    alignas(std::max_align_t) unsigned char store_[kInlineBytes];
    const Ops *ops_ = nullptr;
};

} // namespace damn::sim

#endif // DAMN_SIM_SMALL_FN_HH
