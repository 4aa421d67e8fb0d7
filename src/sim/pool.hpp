/**
 * @file
 * Freelist-backed pooling allocator for high-churn simulation objects.
 *
 * The NIC→switch→LTL datapath creates and destroys one `shared_ptr<Packet>`
 * per hop-lifetime; with `std::make_shared` that is one malloc/free pair per
 * packet. `PoolAllocator` is a std-compatible allocator whose single-object
 * allocations come from a thread-local freelist keyed by (size, alignment),
 * so `std::allocate_shared<Packet>(PoolAllocator<Packet>{})` recycles the
 * combined control-block+payload allocation across packets.
 *
 * The freelist is thread-local because a simulation runs on one thread
 * (see EventQueue); experiments fanning out across threads each get their
 * own arena with zero synchronization. On the sharded kernel a block one
 * worker allocates and another frees parks in the freeing worker's
 * freelist and is reused there. NOTE: pool occupancy is therefore
 * process-global per thread, not per simulation — it is deliberately NOT
 * exported as an observability probe, since two same-seed simulations run
 * back-to-back in one process would observe different arena states and
 * break snapshot determinism. Use poolStats() for tests and diagnostics.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

namespace ccsim::sim {

/** Aggregate freelist statistics for the calling thread's arenas. */
struct PoolStats {
    std::uint64_t freshAllocs = 0;  ///< blocks obtained from the heap
    std::uint64_t reusedAllocs = 0; ///< blocks served from a freelist
    std::size_t freeBlocks = 0;     ///< blocks currently parked in freelists
};

namespace detail {

struct ArenaBase {
    std::vector<void *> blocks;
    std::uint64_t fresh = 0;
    std::uint64_t reused = 0;
    ArenaBase *nextArena = nullptr;
};

inline thread_local ArenaBase *arenaHead = nullptr;

template <std::size_t Size, std::size_t Align>
struct Arena : ArenaBase {
    static_assert(Align <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                  "over-aligned types are not pooled");

    Arena()
    {
        nextArena = arenaHead;
        arenaHead = this;
    }

    ~Arena()
    {
        for (void *b : blocks)
            ::operator delete(b);
        for (ArenaBase **p = &arenaHead; *p != nullptr;
             p = &(*p)->nextArena) {
            if (*p == this) {
                *p = nextArena;
                break;
            }
        }
    }

    static Arena &instance()
    {
        static thread_local Arena arena;
        return arena;
    }

    void *get()
    {
        if (!blocks.empty()) {
            void *p = blocks.back();
            blocks.pop_back();
            ++reused;
            return p;
        }
        ++fresh;
        return ::operator new(Size);
    }

    void put(void *p) noexcept { blocks.push_back(p); }
};

}  // namespace detail

/** Freelist stats summed over every pooled type on this thread. */
inline PoolStats
poolStats()
{
    PoolStats s;
    for (const detail::ArenaBase *a = detail::arenaHead; a != nullptr;
         a = a->nextArena) {
        s.freshAllocs += a->fresh;
        s.reusedAllocs += a->reused;
        s.freeBlocks += a->blocks.size();
    }
    return s;
}

/**
 * std-compatible allocator serving single objects from a thread-local
 * freelist. Array allocations (n != 1) fall through to the heap.
 */
template <typename T>
class PoolAllocator
{
  public:
    using value_type = T;

    PoolAllocator() noexcept = default;
    template <typename U>
    PoolAllocator(const PoolAllocator<U> &) noexcept
    {
    }

    T *allocate(std::size_t n)
    {
        if (n == 1)
            return static_cast<T *>(
                detail::Arena<sizeof(T), alignof(T)>::instance().get());
        return static_cast<T *>(::operator new(n * sizeof(T)));
    }

    void deallocate(T *p, std::size_t n) noexcept
    {
        if (n == 1) {
            detail::Arena<sizeof(T), alignof(T)>::instance().put(p);
            return;
        }
        ::operator delete(p);
    }

    template <typename U>
    bool operator==(const PoolAllocator<U> &) const noexcept
    {
        return true;
    }
    template <typename U>
    bool operator!=(const PoolAllocator<U> &) const noexcept
    {
        return false;
    }
};

/**
 * `std::make_shared` through PoolAllocator: the control block and the
 * object share one block recycled through this thread's freelist.
 */
template <typename T, typename... Args>
std::shared_ptr<T>
makePooled(Args &&...args)
{
    return std::allocate_shared<T>(PoolAllocator<T>{},
                                   std::forward<Args>(args)...);
}

}  // namespace ccsim::sim
