#include "monitor/merkle.h"

#include <vector>

#include "base/bitfield.h"
#include "base/logging.h"

namespace hpmp
{

MerkleHash
merkleHashBytes(const void *data, size_t len, MerkleHash seed)
{
    const auto *bytes = static_cast<const uint8_t *>(data);
    MerkleHash h = seed;
    for (size_t i = 0; i < len; ++i) {
        h ^= bytes[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

namespace
{

/** Combine two child hashes into a parent. */
MerkleHash
combine(MerkleHash left, MerkleHash right)
{
    MerkleHash pair[2] = {left, right};
    return merkleHashBytes(pair, sizeof(pair), 0x9e3779b97f4a7c15ULL);
}

} // namespace

MerkleTree::MerkleTree(const PhysMem &mem, Addr base, uint64_t size)
    : mem_(mem),
      base_(base),
      size_(size)
{
    fatal_if(base % kPageSize || size % kPageSize || size == 0,
             "merkle region must be page aligned and non-empty");
    const uint64_t pages = size / kPageSize;
    leaves_ = 1;
    while (leaves_ < pages)
        leaves_ <<= 1;

    // Leaves occupy heap indices [leaves_, 2*leaves_).
    for (uint64_t i = 0; i < leaves_; ++i)
        nodes_[leaves_ + i] = hashPage(i);
    for (uint64_t i = leaves_ - 1; i >= 1; --i)
        nodes_[i] = combine(nodes_[2 * i], nodes_[2 * i + 1]);
}

MerkleHash
MerkleTree::hashPage(uint64_t leaf_index) const
{
    if (leaf_index * kPageSize >= size_)
        return 0; // implicit zero padding
    const Addr pa = base_ + leaf_index * kPageSize;
    // An unbacked page reads as zeros: its hash is the zero page's,
    // computed once (large, mostly untouched regions are the norm).
    static const MerkleHash kZeroPageHash = [] {
        const std::vector<uint8_t> zeros(kPageSize, 0);
        return merkleHashBytes(zeros.data(), zeros.size());
    }();
    if (!mem_.backed(pa))
        return kZeroPageHash;
    std::vector<uint8_t> buf(kPageSize);
    mem_.readBytes(pa, buf.data(), kPageSize);
    return merkleHashBytes(buf.data(), buf.size());
}

MerkleHash
MerkleTree::node(uint64_t index) const
{
    auto it = nodes_.find(index);
    panic_if(it == nodes_.end(), "unmounted merkle node %lu", index);
    return it->second;
}

uint64_t
MerkleTree::leafNode(Addr pa) const
{
    panic_if(pa < base_ || pa >= base_ + size_,
             "address %#lx outside merkle region", pa);
    return leaves_ + (pa - base_) / kPageSize;
}

bool
MerkleTree::verifyPage(Addr pa) const
{
    const uint64_t leaf = leafNode(pa);
    if (!mounted(leaf))
        return false;
    // Leaf must match memory...
    if (node(leaf) != hashPage(leaf - leaves_))
        return false;
    // ...and the path to the root must be internally consistent.
    for (uint64_t i = leaf / 2; i >= 1; i /= 2) {
        if (!mounted(2 * i) || !mounted(2 * i + 1) || !mounted(i))
            return false;
        if (node(i) != combine(node(2 * i), node(2 * i + 1)))
            return false;
    }
    return true;
}

void
MerkleTree::updatePage(Addr pa)
{
    const uint64_t leaf = leafNode(pa);
    panic_if(!mounted(leaf), "updatePage in unmounted subtree");
    nodes_[leaf] = hashPage(leaf - leaves_);
    for (uint64_t i = leaf / 2; i >= 1; i /= 2)
        nodes_[i] = combine(node(2 * i), node(2 * i + 1));
}

void
MerkleTree::unmountSubtree(Addr pa, unsigned levels)
{
    uint64_t top = leafNode(pa);
    for (unsigned i = 0; i < levels && top > 1; ++i)
        top /= 2;
    // Drop everything strictly below `top` within its subtree.
    std::vector<uint64_t> stack{2 * top, 2 * top + 1};
    while (!stack.empty()) {
        const uint64_t idx = stack.back();
        stack.pop_back();
        if (idx >= 2 * leaves_ || !mounted(idx))
            continue;
        nodes_.erase(idx);
        stack.push_back(2 * idx);
        stack.push_back(2 * idx + 1);
    }
}

bool
MerkleTree::remountSubtree(Addr pa, unsigned levels)
{
    uint64_t top = leafNode(pa);
    for (unsigned i = 0; i < levels && top > 1; ++i)
        top /= 2;

    // Recompute the subtree bottom-up into a staging map.
    std::unordered_map<uint64_t, MerkleHash> staging;
    // Find the leaf range under `top`.
    uint64_t lo = top, hi = top;
    while (lo < leaves_) {
        lo = 2 * lo;
        hi = 2 * hi + 1;
    }
    for (uint64_t leaf = lo; leaf <= hi; ++leaf)
        staging[leaf] = hashPage(leaf - leaves_);
    // Combine level by level, staying inside the subtree (skipped
    // when the "subtree" is a single leaf).
    if (top < leaves_) {
        for (uint64_t level_lo = lo / 2, level_hi = hi / 2;;
             level_lo /= 2, level_hi /= 2) {
            for (uint64_t idx = level_lo; idx <= level_hi; ++idx)
                staging[idx] = combine(staging[2 * idx],
                                       staging[2 * idx + 1]);
            if (level_lo == top)
                break;
        }
    }

    // The recomputed subtree root must match the retained hash.
    if (staging[top] != node(top))
        return false;
    for (const auto &[idx, hash] : staging)
        nodes_[idx] = hash;
    return true;
}

} // namespace hpmp
