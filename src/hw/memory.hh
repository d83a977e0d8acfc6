/**
 * @file
 * Sparse 64-bit main memory with deterministic "junk" fill.
 *
 * Cells never written hold an arbitrary-but-fixed value derived from
 * the address and a board seed — like real DRAM contents on the
 * evaluation board, identical across the two measured runs of a test
 * case but not all-zero (all-zero defaults would accidentally make
 * distinct speculative reads alias).
 */

#ifndef SCAMV_HW_MEMORY_HH
#define SCAMV_HW_MEMORY_HH

#include <cstdint>
#include <vector>

namespace scamv::hw {

/** Word-addressed (8-byte) sparse memory. */
class Memory
{
  public:
    explicit Memory(std::uint64_t board_seed = 0xb0a2dULL)
        : boardSeed(board_seed), slots(kInitialSlots, Slot{kEmpty, 0})
    {}

    /** Remove all explicit writes (junk fill persists). */
    void clear();

    /** @return the word containing addr (addr rounded down to 8). */
    std::uint64_t load(std::uint64_t addr) const;

    /** Store a word at addr (rounded down to 8). */
    void store(std::uint64_t addr, std::uint64_t value);

    /** @return true iff the cell was explicitly written. */
    bool written(std::uint64_t addr) const
    {
        return slots[find(addr & ~7ULL)].key != kEmpty;
    }

  private:
    /** Written words: an open-addressing table keyed by the word
     *  address, with linear probing, kept at most half full.  Word
     *  addresses are multiples of 8, so the odd kEmpty never is one.
     *  `used` lists the occupied slots, so clear() costs what was
     *  written since the last clear. */
    struct Slot {
        std::uint64_t key;
        std::uint64_t value;
    };
    static constexpr std::uint64_t kEmpty = 1;
    static constexpr std::size_t kInitialSlots = 64;

    std::uint64_t junk(std::uint64_t addr) const;
    /** @return the slot holding `key`, or the empty slot that ends
     *  its probe sequence. */
    std::size_t find(std::uint64_t key) const;
    /** Double the table and re-insert every written word. */
    void grow();

    std::uint64_t boardSeed;
    std::vector<Slot> slots;
    std::vector<std::uint32_t> used;
};

} // namespace scamv::hw

#endif // SCAMV_HW_MEMORY_HH
