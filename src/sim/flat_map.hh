/**
 * @file
 * Open-addressing `std::uint64_t -> V` map for hot paths that would
 * otherwise pay a heap node per entry: linear probing in a power-of-two
 * table at most half full, a multiplicative hash, backward-shift erase
 * (no tombstones).  It allocates only to double.  An insertion or erase
 * may move entries: a pointer from find() or operator[] lasts until
 * the next one.
 */

#ifndef DAMN_SIM_FLAT_MAP_HH
#define DAMN_SIM_FLAT_MAP_HH

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

namespace damn::sim {

/** `std::uint64_t -> V` hash map; any key but kEmptyKey is allowed. */
template <typename V>
class FlatMap
{
    static_assert(std::is_trivially_copyable_v<V>);

  public:
    static constexpr std::uint64_t kEmptyKey = ~std::uint64_t{0};

    std::size_t size() const { return size_; }

    V *
    find(std::uint64_t key)
    {
        const std::size_t i = indexOf(key);
        return i == kAbsent ? nullptr : &slots_[i].value;
    }
    const V *
    find(std::uint64_t key) const
    {
        return const_cast<FlatMap *>(this)->find(key);
    }

    /** The value at @p key, value-initialized if it was absent. */
    V &
    operator[](std::uint64_t key)
    {
        if (2 * (size_ + 1) > slots_.size())
            grow();
        std::size_t i = home(key);
        for (; slots_[i].key != kEmptyKey; i = (i + 1) & mask_)
            if (slots_[i].key == key)
                return slots_[i].value;
        ++size_;
        slots_[i] = Slot{key, V{}};
        return slots_[i].value;
    }

    /** Remove @p key; false when it was absent. */
    bool
    erase(std::uint64_t key)
    {
        const std::size_t i = indexOf(key);
        if (i == kAbsent)
            return false;
        eraseAt(i);
        return true;
    }

    /**
     * Remove every entry for which @p pred(key, value) is true, calling
     * it once per entry; returns how many were removed.
     */
    template <typename Pred>
    std::size_t
    eraseIf(Pred pred)
    {
        // Start just past an empty slot (the table is at most half
        // full): no probe run then wraps past the start, so the
        // backward shift only ever moves a not-yet-visited entry into
        // the slot being visited, and each entry is tested once.
        std::size_t start = 0;
        while (slots_[start].key != kEmptyKey)
            ++start;
        std::size_t erased = 0;
        for (std::size_t n = 1; n <= mask_; ++n) {
            const std::size_t i = (start + n) & mask_;
            while (slots_[i].key != kEmptyKey &&
                   pred(slots_[i].key, slots_[i].value)) {
                eraseAt(i);
                ++erased;
            }
        }
        return erased;
    }

    /** Empty the map, keeping its capacity. */
    void
    clear()
    {
        for (Slot &s : slots_)
            s.key = kEmptyKey;
        size_ = 0;
    }

  private:
    struct Slot
    {
        std::uint64_t key;
        V value;
    };
    static constexpr std::size_t kAbsent = ~std::size_t{0};

    std::size_t
    home(std::uint64_t key) const
    {
        assert(key != kEmptyKey);
        return std::size_t((key * 0x9e3779b97f4a7c15ull) >> shift_);
    }

    std::size_t
    indexOf(std::uint64_t key) const
    {
        std::size_t i = home(key);
        for (; slots_[i].key != key; i = (i + 1) & mask_)
            if (slots_[i].key == kEmptyKey)
                return kAbsent;
        return i;
    }

    /** Empty occupied slot @p hole, shifting back each later entry of
     *  its run that is homed at or before the hole. */
    void
    eraseAt(std::size_t hole)
    {
        for (std::size_t j = (hole + 1) & mask_; slots_[j].key != kEmptyKey;
             j = (j + 1) & mask_) {
            if (((j - home(slots_[j].key)) & mask_) >= ((j - hole) & mask_)) {
                slots_[hole] = slots_[j];
                hole = j;
            }
        }
        slots_[hole].key = kEmptyKey;
        --size_;
    }

    void
    grow()
    {
        std::vector<Slot> old(2 * slots_.size(), Slot{kEmptyKey, V{}});
        old.swap(slots_);
        mask_ = slots_.size() - 1;
        shift_ = 64 - unsigned(std::countr_zero(slots_.size()));
        size_ = 0;
        for (const Slot &s : old)
            if (s.key != kEmptyKey)
                (*this)[s.key] = s.value;
    }

    std::vector<Slot> slots_ = std::vector<Slot>(16, Slot{kEmptyKey, V{}});
    std::size_t mask_ = 15;
    unsigned shift_ = 60; //!< 64 - log2(capacity)
    std::size_t size_ = 0;
};

} // namespace damn::sim

#endif // DAMN_SIM_FLAT_MAP_HH
