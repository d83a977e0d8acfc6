#include "hw/memory.hh"

namespace scamv::hw {

std::uint64_t
Memory::junk(std::uint64_t addr) const
{
    // splitmix64-style mix of (addr, boardSeed).
    std::uint64_t z = (addr & ~7ULL) + boardSeed + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::size_t
Memory::find(std::uint64_t key) const
{
    const std::size_t mask = slots.size() - 1;
    std::size_t i = ((key * 0x9e3779b97f4a7c15ULL) >> 32) & mask;
    while (slots[i].key != key && slots[i].key != kEmpty)
        i = (i + 1) & mask;
    return i;
}

void
Memory::clear()
{
    for (const std::uint32_t i : used)
        slots[i].key = kEmpty;
    used.clear();
}

std::uint64_t
Memory::load(std::uint64_t addr) const
{
    const std::uint64_t key = addr & ~7ULL;
    const Slot &slot = slots[find(key)];
    return slot.key == kEmpty ? junk(key) : slot.value;
}

void
Memory::store(std::uint64_t addr, std::uint64_t value)
{
    const std::uint64_t key = addr & ~7ULL;
    std::size_t i = find(key);
    if (slots[i].key == kEmpty) {
        if (2 * (used.size() + 1) > slots.size()) {
            grow();
            i = find(key);
        }
        slots[i].key = key;
        used.push_back(static_cast<std::uint32_t>(i));
    }
    slots[i].value = value;
}

void
Memory::grow()
{
    std::vector<Slot> old(2 * slots.size(), Slot{kEmpty, 0});
    old.swap(slots);
    std::vector<std::uint32_t> occupied;
    occupied.swap(used);
    for (const std::uint32_t i : occupied) {
        const std::size_t j = find(old[i].key);
        slots[j] = old[i];
        used.push_back(static_cast<std::uint32_t>(j));
    }
}

} // namespace scamv::hw
