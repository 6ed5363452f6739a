/**
 * @file
 * Small-buffer callable, the engine's event callback
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
 * Neither copyable nor movable: the engine builds each event callback
 * in the slot it is dispatched from (emplace()), so a callback is never
 * relocated, and only its own slot ever runs or destroys it.
 */

#ifndef DAMN_SIM_SMALL_FN_HH
#define DAMN_SIM_SMALL_FN_HH

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace damn::sim {

/** `void()` callable held in a 64-byte inline buffer. */
class SmallFn
{
  public:
    static constexpr std::size_t kInlineBytes = 64;

    /** True when a @p Fn fits the inline buffer: invocable as
     *  `void()`, at most kInlineBytes, at most max_align_t-aligned and
     *  nothrow-movable.  SmallFn itself does not qualify. */
    template <typename Fn>
    static constexpr bool kStorable =
        !std::is_same_v<Fn, SmallFn> &&
        std::is_invocable_r_v<void, Fn &> &&
        sizeof(Fn) <= kInlineBytes &&
        alignof(Fn) <= alignof(std::max_align_t) &&
        std::is_nothrow_move_constructible_v<Fn>;

    SmallFn() = default;

    template <typename F, typename Fn = std::decay_t<F>,
              typename = std::enable_if_t<kStorable<Fn>>>
    SmallFn(F &&f)
    {
        construct<Fn>(std::forward<F>(f));
    }

    /**
     * Replace the held callable by one built from @p f directly in the
     * inline buffer: no temporary SmallFn, no relocation.  The
     * engine's schedule() builds every event callback in its slot this
     * way.  Same constraints as the converting constructor.
     */
    template <typename F, typename Fn = std::decay_t<F>,
              typename = std::enable_if_t<kStorable<Fn>>>
    void
    emplace(F &&f)
    {
        reset();
        construct<Fn>(std::forward<F>(f));
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
        void (*destroy)(void *) noexcept;
    };

    template <typename Fn>
    static constexpr Ops opsFor = {
        [](void *p) { (*static_cast<Fn *>(p))(); },
        [](void *p) noexcept { static_cast<Fn *>(p)->~Fn(); },
    };

    template <typename Fn, typename F>
    void
    construct(F &&f)
    {
        ::new (static_cast<void *>(store_)) Fn(std::forward<F>(f));
        ops_ = &opsFor<Fn>;
    }

    alignas(std::max_align_t) unsigned char store_[kInlineBytes];
    const Ops *ops_ = nullptr;
};

} // namespace damn::sim

#endif // DAMN_SIM_SMALL_FN_HH
