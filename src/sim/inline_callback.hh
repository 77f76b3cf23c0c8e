/**
 * @file
 * InlineCallback: a small-buffer-only move-callable, the event queue's
 * replacement for std::function<void()>.
 *
 * Every simulated cycle funnels through EventQueue::schedule(), and a
 * std::function built from a capturing lambda heap-allocates once its
 * captures exceed the library's tiny inline buffer (16 bytes in
 * libstdc++) — which every MAGIC/processor/network lambda does. This
 * type stores the callable inline, always: there is no heap fallback,
 * and a callable that does not fit is a compile-time error, so the
 * zero-allocation property of the hot path is enforced statically
 * rather than hoped for.
 *
 * Move-only. Requires the callable to be nothrow-move-constructible so
 * that growing the queue's vectors (which moves events) cannot throw
 * mid-move.
 */

#ifndef FLASHSIM_SIM_INLINE_CALLBACK_HH_
#define FLASHSIM_SIM_INLINE_CALLBACK_HH_

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace flashsim
{

class InlineCallback
{
  public:
    /**
     * Inline capture budget. The largest lambda scheduled in-tree is
     * [this, msg] with a 32-byte protocol::Message (40 bytes): MAGIC's
     * PI/NI arrivals and processor replies, and the mesh's perturbed
     * send. 64 bytes leaves headroom (48 measured no faster). The
     * static_assert below turns a future oversized capture into a
     * build error instead of a silent heap allocation.
     */
    static constexpr std::size_t kInlineBytes = 64;

    InlineCallback() = default;

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, InlineCallback>>>
    InlineCallback(F &&f) // NOLINT: implicit like std::function
    {
        emplace(std::forward<F>(f));
    }

    /** Construct @p f in this (empty) callback's storage. */
    template <typename F>
    void
    emplace(F &&f)
    {
        using Fn = std::decay_t<F>;
        static_assert(sizeof(Fn) <= kInlineBytes,
                      "callback captures exceed InlineCallback's inline "
                      "storage; shrink the capture list (or capture a "
                      "pointer to longer-lived state) rather than "
                      "growing kInlineBytes casually");
        static_assert(alignof(Fn) <= alignof(std::max_align_t),
                      "over-aligned callback");
        static_assert(std::is_nothrow_move_constructible_v<Fn>,
                      "callbacks must be nothrow-move-constructible");
        ::new (static_cast<void *>(storage_)) Fn(std::forward<F>(f));
        ops_ = &opsFor<Fn>;
    }

    InlineCallback(InlineCallback &&other) noexcept : ops_(other.ops_)
    {
        if (ops_ != nullptr) {
            relocateFrom(other);
            other.ops_ = nullptr;
        }
    }

    InlineCallback &
    operator=(InlineCallback &&other) noexcept
    {
        if (this != &other) {
            destroy();
            ops_ = other.ops_;
            if (ops_ != nullptr) {
                relocateFrom(other);
                other.ops_ = nullptr;
            }
        }
        return *this;
    }

    InlineCallback(const InlineCallback &) = delete;
    InlineCallback &operator=(const InlineCallback &) = delete;

    ~InlineCallback() { destroy(); }

    /** True when holding a callable. */
    explicit operator bool() const { return ops_ != nullptr; }

    void
    operator()()
    {
        ops_->invoke(storage_);
    }

  private:
    /** Per-type operation table (one static instance per callable). */
    struct Ops
    {
        void (*invoke)(void *self);
        /** Move-construct into @p dst from @p src, destroy @p src.
         *  Null for a trivially copyable callable (nearly every
         *  in-tree lambda), which a byte copy relocates: every event
         *  is moved out of its bucket to run. */
        void (*relocate)(void *dst, void *src);
        /** Null for a trivially destructible callable. */
        void (*destroy)(void *self);
    };

    template <typename Fn>
    static constexpr Ops opsFor = {
        [](void *self) { (*static_cast<Fn *>(self))(); },
        std::is_trivially_copyable_v<Fn>
            ? nullptr
            : +[](void *dst, void *src) {
                  Fn *s = static_cast<Fn *>(src);
                  ::new (dst) Fn(std::move(*s));
                  s->~Fn();
              },
        std::is_trivially_destructible_v<Fn>
            ? nullptr
            : +[](void *self) { static_cast<Fn *>(self)->~Fn(); },
    };

    void
    relocateFrom(InlineCallback &other)
    {
        if (ops_->relocate != nullptr)
            ops_->relocate(storage_, other.storage_);
        else
            std::memcpy(storage_, other.storage_, kInlineBytes);
    }

    void
    destroy()
    {
        if (ops_ != nullptr) {
            if (ops_->destroy != nullptr)
                ops_->destroy(storage_);
            ops_ = nullptr;
        }
    }

    alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
    const Ops *ops_ = nullptr;
};

} // namespace flashsim

#endif // FLASHSIM_SIM_INLINE_CALLBACK_HH_
