/**
 * @file
 * A move-only, fixed-capacity, never-allocating void() callable.
 *
 * Every simulated event, NoC packet delivery and DRAM completion is a
 * closure. std::function keeps only 16 bytes inline and heap-allocates
 * anything larger, which made a simulation allocate once per executed
 * event. InlineCallback stores the closure in a fixed inline buffer
 * instead. A closure larger than the buffer is a compile error (the
 * converting constructor's constraint fails), not a heap fallback:
 * such a closure must capture ids or pool indices instead of whole
 * messages.
 */

#ifndef CCSVM_SIM_CALLBACK_HH
#define CCSVM_SIM_CALLBACK_HH

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace ccsvm::sim
{

/** A void() closure of at most `capacity` bytes, held inline. An
 * empty (default-constructed or moved-from) callback must not be
 * called. */
class InlineCallback
{
  public:
    /** Bytes of closure state the buffer holds: the largest closure
     * the simulator schedules (a coherence message delivery). */
    static constexpr std::size_t capacity = 192;

    /** Whether a closure of type @p F fits the buffer. */
    template <typename F>
    static constexpr bool fits =
        sizeof(F) <= capacity &&
        alignof(F) <= alignof(std::max_align_t) &&
        std::is_nothrow_move_constructible_v<F>;

    InlineCallback() noexcept = default;

    template <typename F, typename D = std::decay_t<F>>
        requires(!std::is_same_v<D, InlineCallback> &&
                 std::is_invocable_r_v<void, D &> && fits<D>)
    InlineCallback(F &&f) // NOLINT: implicit, like std::function
    {
        construct<D>(std::forward<F>(f));
    }

    InlineCallback(InlineCallback &&o) noexcept { take(o); }

    /** Replace the closure with @p f, built directly in the buffer
     * (no temporary to relocate). */
    template <typename F, typename D = std::decay_t<F>>
        requires std::is_constructible_v<InlineCallback, F>
    void
    emplace(F &&f)
    {
        reset();
        if constexpr (std::is_same_v<D, InlineCallback>)
            take(f);
        else
            construct<D>(std::forward<F>(f));
    }

    InlineCallback &
    operator=(InlineCallback &&o) noexcept
    {
        if (this != &o) {
            reset();
            take(o);
        }
        return *this;
    }

    InlineCallback(const InlineCallback &) = delete;
    InlineCallback &operator=(const InlineCallback &) = delete;

    ~InlineCallback() { reset(); }

    /** Run the closure. @pre non-empty */
    void operator()() { ops_->invoke(buf_); }

  private:
    struct Ops
    {
        void (*invoke)(void *self);
        /** Move-construct *dst from *src, then destroy *src. */
        void (*relocate)(void *dst, void *src) noexcept;
        void (*destroy)(void *self) noexcept;
    };

    template <typename D>
    static constexpr Ops opsFor{
        [](void *self) { (*static_cast<D *>(self))(); },
        [](void *dst, void *src) noexcept {
            D *s = static_cast<D *>(src);
            ::new (dst) D(std::move(*s));
            s->~D();
        },
        [](void *self) noexcept { static_cast<D *>(self)->~D(); },
    };

    template <typename D, typename F>
    void
    construct(F &&f)
    {
        ::new (static_cast<void *>(buf_)) D(std::forward<F>(f));
        ops_ = &opsFor<D>;
    }

    /** Steal @p o's closure; *this must be empty. Leaves @p o empty. */
    void
    take(InlineCallback &o) noexcept
    {
        if (o.ops_) {
            o.ops_->relocate(buf_, o.buf_);
            ops_ = o.ops_;
            o.ops_ = nullptr;
        }
    }

    void
    reset() noexcept
    {
        if (ops_) {
            ops_->destroy(buf_);
            ops_ = nullptr;
        }
    }

    alignas(std::max_align_t) unsigned char buf_[capacity];
    const Ops *ops_ = nullptr;
};

} // namespace ccsvm::sim

#endif // CCSVM_SIM_CALLBACK_HH
