/**
 * @file
 * Small-buffer-optimized, move-only event closure for the DES kernel.
 *
 * `std::function` forced every scheduled closure whose captures exceeded
 * the library's small-object buffer (typically 16 bytes) onto the heap,
 * and required copyability. EventFn gives the kernel a 64-byte inline
 * buffer — sized so that every hot-path lambda in the simulator (channel
 * transmit completions carrying a PacketPtr plus a release hook,
 * LTL retransmit timers, switch forwarding hops, elastic-router pipeline
 * stages, DRAM/PCIe completions) is stored inline and never touches the
 * allocator — and accepts move-only callables (e.g. captures holding a
 * `std::unique_ptr`). Oversized or over-aligned callables fall back to a
 * single heap allocation.
 */
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace ccsim::sim {

/** A move-only `void()` callable with a large inline buffer. */
class EventFn
{
  public:
    /**
     * Inline storage size in bytes. Chosen to cover the largest common
     * capture in the codebase: `Channel::tryTransmit`'s completion
     * lambda carries a TxEntry (PacketPtr, release listener and port,
     * two sampled-packet timestamps) plus `this`, 56 bytes on a 64-bit
     * libstdc++; channel.cpp static_asserts that it fits.
     */
    static constexpr std::size_t kInlineSize = 64;
    /** Maximum alignment served by the inline buffer. */
    static constexpr std::size_t kInlineAlign = 16;

    EventFn() noexcept = default;

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, EventFn> &&
                  std::is_invocable_v<std::decay_t<F> &>>>
    EventFn(F &&f)  // NOLINT: implicit by design, mirrors std::function
    {
        using Fn = std::decay_t<F>;
        if constexpr (fitsInline<Fn>()) {
            ::new (static_cast<void *>(buf)) Fn(std::forward<F>(f));
            invoke = &inlineInvoke<Fn>;
            manage = &inlineManage<Fn>;
        } else {
            *reinterpret_cast<Fn **>(buf) = new Fn(std::forward<F>(f));
            invoke = &heapInvoke<Fn>;
            manage = &heapManage<Fn>;
        }
    }

    EventFn(EventFn &&o) noexcept { moveFrom(o); }

    EventFn &operator=(EventFn &&o) noexcept
    {
        if (this != &o) {
            reset();
            moveFrom(o);
        }
        return *this;
    }

    EventFn(const EventFn &) = delete;
    EventFn &operator=(const EventFn &) = delete;

    ~EventFn() { reset(); }

    /** Destroy the stored callable (and release what it captured). */
    void reset() noexcept
    {
        if (invoke != nullptr) {
            manage(Op::kDestroy, buf, nullptr);
            invoke = nullptr;
            manage = nullptr;
        }
    }

    explicit operator bool() const noexcept { return invoke != nullptr; }

    /** Whether @p F would be stored inline (exposed for tests/docs). */
    template <typename F>
    static constexpr bool fitsInline()
    {
        return sizeof(F) <= kInlineSize && alignof(F) <= kInlineAlign &&
               std::is_nothrow_move_constructible_v<F>;
    }

    void operator()() { invoke(buf); }

  private:
    enum class Op { kDestroy, kRelocate };

    using InvokeFn = void (*)(void *);
    using ManageFn = void (*)(Op, void *, void *);

    template <typename Fn>
    static void inlineInvoke(void *p)
    {
        (*static_cast<Fn *>(p))();
    }
    template <typename Fn>
    static void inlineManage(Op op, void *self, void *dst)
    {
        Fn *f = static_cast<Fn *>(self);
        if (op == Op::kRelocate)
            ::new (dst) Fn(std::move(*f));
        f->~Fn();
    }

    template <typename Fn>
    static void heapInvoke(void *p)
    {
        (**static_cast<Fn **>(p))();
    }
    template <typename Fn>
    static void heapManage(Op op, void *self, void *dst)
    {
        Fn **pp = static_cast<Fn **>(self);
        if (op == Op::kRelocate)
            *reinterpret_cast<Fn **>(dst) = *pp;
        else
            delete *pp;
    }

    void moveFrom(EventFn &o) noexcept
    {
        invoke = o.invoke;
        manage = o.manage;
        if (invoke != nullptr) {
            o.manage(Op::kRelocate, o.buf, buf);
            o.invoke = nullptr;
            o.manage = nullptr;
        }
    }

    InvokeFn invoke = nullptr;
    ManageFn manage = nullptr;
    alignas(kInlineAlign) unsigned char buf[kInlineSize];
};

}  // namespace ccsim::sim
