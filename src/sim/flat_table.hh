/**
 * @file
 * A flat open-addressing table for hot-path bookkeeping.
 *
 * FlatCounterMap is the one table left here: a persistent 64-bit-key ->
 * counter map (linear probing, power-of-two capacity) used for the
 * MAGIC per-page monitoring counters, their machine-wide aggregation
 * and FlatPpMemory. Iteration is in slot order, which is deterministic
 * for a deterministic insertion history. It does not support erase; it
 * grows by doubling and rehashing when half full, so probes stay short.
 */

#ifndef FLASHSIM_SIM_FLAT_TABLE_HH_
#define FLASHSIM_SIM_FLAT_TABLE_HH_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/stats.hh" // Counter
#include "sim/types.hh"

namespace flashsim
{

/** Fibonacci-style mixer: spreads clustered keys over the table. */
constexpr std::uint64_t
flatTableHash(std::uint64_t key)
{
    std::uint64_t h = key * 0x9e3779b97f4a7c15ull;
    return h ^ (h >> 32);
}

/**
 * Open-addressing 64-bit-key -> Counter map with a map-like surface
 * (operator[], find, count, empty, size, iteration).
 */
class FlatCounterMap
{
    struct Slot
    {
        std::uint64_t key = 0;
        Counter value = 0;
        bool used = false;
    };

  public:
    using value_type = std::pair<std::uint64_t, Counter>;

    FlatCounterMap() = default;

    /** Pre-size for @p n entries (power-of-two slots, <= half full). */
    void
    reserve(std::size_t n)
    {
        std::size_t want = 16;
        while (want < 2 * n)
            want <<= 1;
        if (want > slots_.size())
            rehash(want);
    }

    bool empty() const { return live_ == 0; }
    std::size_t size() const { return live_; }

    /** Value for @p key, inserting a zero entry when absent. */
    Counter &
    operator[](std::uint64_t key)
    {
        if (slots_.empty() || 2 * (live_ + 1) > slots_.size())
            rehash(slots_.empty() ? 16 : slots_.size() * 2);
        Slot &s = probe(key);
        if (!s.used) {
            s.used = true;
            s.key = key;
            s.value = 0;
            ++live_;
        }
        return s.value;
    }

    /** Pointer to @p key's value, or nullptr when absent. */
    const Counter *
    find(std::uint64_t key) const
    {
        if (slots_.empty())
            return nullptr;
        const Slot &s =
            const_cast<FlatCounterMap *>(this)->probe(key);
        return s.used ? &s.value : nullptr;
    }

    std::size_t count(std::uint64_t key) const
    {
        return find(key) != nullptr ? 1 : 0;
    }

    void
    clear()
    {
        slots_.clear();
        live_ = 0;
    }

    /** Slot-order const iterator yielding (key, value) pairs. */
    class const_iterator
    {
      public:
        using value_type = FlatCounterMap::value_type;
        using difference_type = std::ptrdiff_t;
        using reference = value_type;
        using iterator_category = std::forward_iterator_tag;

        const_iterator() = default;
        const_iterator(const Slot *p, const Slot *end) : p_(p), end_(end)
        {
            skip();
        }

        value_type operator*() const { return {p_->key, p_->value}; }

        /** Arrow support (e.g. it->first) via a temporary pair. */
        struct ArrowProxy
        {
            value_type pair;
            const value_type *operator->() const { return &pair; }
        };
        ArrowProxy operator->() const { return ArrowProxy{**this}; }

        const_iterator &
        operator++()
        {
            ++p_;
            skip();
            return *this;
        }
        const_iterator
        operator++(int)
        {
            const_iterator t = *this;
            ++*this;
            return t;
        }

        bool operator==(const const_iterator &o) const
        {
            return p_ == o.p_;
        }
        bool operator!=(const const_iterator &o) const
        {
            return p_ != o.p_;
        }

      private:
        void
        skip()
        {
            while (p_ != end_ && !p_->used)
                ++p_;
        }
        const Slot *p_ = nullptr;
        const Slot *end_ = nullptr;
    };

    const_iterator begin() const
    {
        return {slots_.data(), slots_.data() + slots_.size()};
    }
    const_iterator end() const
    {
        return {slots_.data() + slots_.size(),
                slots_.data() + slots_.size()};
    }

  private:
    Slot &
    probe(std::uint64_t key)
    {
        std::size_t mask = slots_.size() - 1;
        std::size_t i = flatTableHash(key) & mask;
        while (slots_[i].used && slots_[i].key != key)
            i = (i + 1) & mask;
        return slots_[i];
    }

    void
    rehash(std::size_t new_size)
    {
        std::vector<Slot> old = std::move(slots_);
        slots_.assign(new_size, Slot{});
        for (const Slot &s : old) {
            if (!s.used)
                continue;
            Slot &d = probe(s.key);
            d = s;
        }
    }

    std::vector<Slot> slots_;
    std::size_t live_ = 0;
};

} // namespace flashsim

#endif // FLASHSIM_SIM_FLAT_TABLE_HH_
