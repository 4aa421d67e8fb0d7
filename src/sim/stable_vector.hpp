/**
 * @file
 * Append-only vector whose elements never move.
 *
 * Chunk k holds 16 << k elements, so index -> (chunk, offset) is two bit
 * operations, growth allocates one new chunk and copies nothing, and
 * references to elements stay valid for the container's lifetime. Like
 * `Fifo`, an empty `StableVector` owns no heap. Slack is at most the
 * unfilled tail of the last chunk, and pages of a large chunk that were
 * never written are never touched.
 */
#pragma once

#include <bit>
#include <cstddef>
#include <utility>
#include <vector>

namespace ccsim::sim {

template <typename T>
class StableVector
{
  public:
    std::size_t size() const { return count; }

    T &operator[](std::size_t i)
    {
        const std::size_t j = i + kFirst;
        const int k = std::bit_width(j) - std::bit_width(kFirst);
        return chunks[static_cast<std::size_t>(k)][j - (kFirst << k)];
    }
    const T &operator[](std::size_t i) const
    {
        return const_cast<StableVector &>(*this)[i];
    }

    template <typename... Args>
    T &emplace_back(Args &&...args)
    {
        const std::size_t k = chunks.size();
        if (k == 0 || chunks.back().size() == kFirst << (k - 1))
            chunks.emplace_back().reserve(kFirst << k);
        ++count;
        return chunks.back().emplace_back(std::forward<Args>(args)...);
    }

  private:
    static constexpr std::size_t kFirst = 16;
    /** Each chunk is reserved once and never grows past it. */
    std::vector<std::vector<T>> chunks;
    std::size_t count = 0;
};

}  // namespace ccsim::sim
