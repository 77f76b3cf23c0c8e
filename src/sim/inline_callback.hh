/**
 * @file
 * InlineCallback: a small-buffer-only callable, the event queue's
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
 * Only plain bundles of bytes are accepted (InlineCallable): every
 * callable the simulator schedules captures pointers, integers and
 * messages by value. So an InlineCallback is itself trivially copyable:
 * moving an event is a byte copy, and dropping one runs no destructor.
 */

#ifndef FLASHSIM_SIM_INLINE_CALLBACK_HH_
#define FLASHSIM_SIM_INLINE_CALLBACK_HH_

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace flashsim
{

/**
 * Inline capture budget. The largest lambda scheduled in-tree is
 * [this, msg] with a 32-byte protocol::Message (40 bytes): MAGIC's
 * PI/NI arrivals and processor replies, and the mesh's deliveries.
 * 48 bytes plus the invoker pointer and the event queue's 8-byte key
 * make one ring event exactly one 64-byte cache line.
 */
inline constexpr std::size_t kInlineCallbackBytes = 48;

/**
 * A callable an InlineCallback can hold: it fits the inline budget and
 * is trivially copyable and trivially destructible. A callable that
 * fails is a build error naming the failed clause; shrink the capture
 * list (or capture a pointer to longer-lived state) rather than growing
 * the budget casually.
 */
template <typename F>
concept InlineCallable = sizeof(F) <= kInlineCallbackBytes &&
                         alignof(F) <= alignof(void *) &&
                         std::is_trivially_copyable_v<F> &&
                         std::is_trivially_destructible_v<F>;

class InlineCallback
{
  public:
    InlineCallback() = default;

    template <typename F>
        requires InlineCallable<std::decay_t<F>>
    InlineCallback(F &&f) // NOLINT: implicit like std::function
    {
        emplace(std::forward<F>(f));
    }

    /** Construct @p f in this callback's storage, replacing whatever
     *  it held. */
    template <typename F>
        requires InlineCallable<std::decay_t<F>>
    void
    emplace(F &&f)
    {
        using Fn = std::decay_t<F>;
        ::new (static_cast<void *>(storage_)) Fn(std::forward<F>(f));
        invoke_ = [](void *self) { (*static_cast<Fn *>(self))(); };
    }

    void
    operator()()
    {
        invoke_(storage_);
    }

  private:
    alignas(void *) unsigned char storage_[kInlineCallbackBytes];
    void (*invoke_)(void *self) = nullptr;
};

} // namespace flashsim

#endif // FLASHSIM_SIM_INLINE_CALLBACK_HH_
