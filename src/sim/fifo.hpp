/**
 * @file
 * Lazily allocated ring-buffer FIFO, the one queue type of the simulator.
 *
 * Every channel, LTL connection and router VC owns a few queues, and on
 * the paper-scale fabric almost all of them stay empty for the whole
 * run, so an empty queue must own no heap (libstdc++'s deque allocates a
 * 64 B map and a 512 B node even when empty). A `Fifo` allocates nothing
 * until its first `push_back`: an idle queue costs only its `sizeof`
 * (24 B). After that it keeps a power-of-two ring that doubles when full
 * and is kept when drained, so a queue that drains and refills does not
 * allocate again.
 *
 * Move-only, with `noexcept` moves; a moved-from `Fifo` is empty with
 * capacity 0. Iterators run front to back and are invalidated by any
 * push, pop or clear.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <type_traits>
#include <utility>

namespace ccsim::sim {

template <typename T>
class Fifo
{
    static_assert(std::is_nothrow_move_constructible_v<T>,
                  "Fifo relocates elements when it grows");

    template <bool Const>
    class Iter
    {
        using Owner = std::conditional_t<Const, const Fifo, Fifo>;

      public:
        using iterator_category = std::forward_iterator_tag;
        using value_type = T;
        using difference_type = std::ptrdiff_t;
        using pointer = std::conditional_t<Const, const T *, T *>;
        using reference = std::conditional_t<Const, const T &, T &>;

        Iter() = default;
        Iter(Owner *f, std::uint32_t i) : fifo(f), index(i) {}

        reference operator*() const { return fifo->at(index); }
        pointer operator->() const { return &fifo->at(index); }
        Iter &operator++()
        {
            ++index;
            return *this;
        }
        Iter operator++(int)
        {
            Iter prev = *this;
            ++index;
            return prev;
        }
        bool operator==(const Iter &) const = default;

      private:
        Owner *fifo = nullptr;
        std::uint32_t index = 0;
    };

  public:
    using iterator = Iter<false>;
    using const_iterator = Iter<true>;

    Fifo() = default;
    Fifo(Fifo &&other) noexcept
        : slots(std::exchange(other.slots, nullptr)),
          cap(std::exchange(other.cap, 0)),
          head(std::exchange(other.head, 0)),
          count(std::exchange(other.count, 0))
    {
    }
    Fifo &operator=(Fifo &&other) noexcept
    {
        if (this != &other) {
            release();
            slots = std::exchange(other.slots, nullptr);
            cap = std::exchange(other.cap, 0);
            head = std::exchange(other.head, 0);
            count = std::exchange(other.count, 0);
        }
        return *this;
    }
    ~Fifo() { release(); }

    bool empty() const noexcept { return count == 0; }
    std::size_t size() const noexcept { return count; }
    /** Slots allocated; 0 until the first push_back. */
    std::size_t capacity() const noexcept { return cap; }

    T &front() { return slots[head]; }
    const T &front() const { return slots[head]; }
    T &back() { return at(count - 1); }
    const T &back() const { return at(count - 1); }

    void push_back(const T &value) { append(value); }
    void push_back(T &&value) { append(std::move(value)); }

    void pop_front()
    {
        std::destroy_at(slots + head);
        head = (head + 1) & (cap - 1);
        --count;
    }

    /** Destroys every element; keeps the ring for reuse. */
    void clear() noexcept
    {
        for (std::uint32_t i = 0; i < count; ++i)
            std::destroy_at(&at(i));
        head = 0;
        count = 0;
    }

    iterator begin() { return {this, 0}; }
    iterator end() { return {this, count}; }
    const_iterator begin() const { return {this, 0}; }
    const_iterator end() const { return {this, count}; }

  private:
    static constexpr std::uint32_t kFirstCapacity = 8;
    static constexpr std::uint32_t kMaxCapacity = std::uint32_t{1} << 31;

    T *slots = nullptr;
    std::uint32_t cap = 0;  ///< 0 or a power of two
    std::uint32_t head = 0;
    std::uint32_t count = 0;

    T &at(std::uint32_t i) { return slots[(head + i) & (cap - 1)]; }
    const T &at(std::uint32_t i) const
    {
        return slots[(head + i) & (cap - 1)];
    }

    template <typename U>
    void append(U &&value)
    {
        if (count == cap) {
            grow(std::forward<U>(value));
            return;
        }
        std::construct_at(&at(count), std::forward<U>(value));
        ++count;
    }

    /**
     * Moves the elements into a ring twice the size, front first. The new
     * element is built before the old ones move, so `value` may refer to
     * one of them.
     */
    template <typename U>
    void grow(U &&value)
    {
        if (cap == kMaxCapacity)
            throw std::length_error("sim::Fifo: capacity exhausted");
        const std::uint32_t next = cap == 0 ? kFirstCapacity : cap * 2;
        std::allocator<T> alloc;
        T *fresh = alloc.allocate(next);
        try {
            std::construct_at(fresh + count, std::forward<U>(value));
        } catch (...) {
            alloc.deallocate(fresh, next);
            throw;
        }
        for (std::uint32_t i = 0; i < count; ++i) {
            T &old = at(i);
            std::construct_at(fresh + i, std::move(old));
            std::destroy_at(&old);
        }
        if (slots != nullptr)
            alloc.deallocate(slots, cap);
        slots = fresh;
        cap = next;
        head = 0;
        ++count;
    }

    void release() noexcept
    {
        if (slots == nullptr)
            return;
        clear();
        std::allocator<T>{}.deallocate(slots, cap);
        slots = nullptr;
        cap = 0;
    }
};

}  // namespace ccsim::sim
