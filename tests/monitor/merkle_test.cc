/**
 * @file
 * Mountable-Merkle-tree tests: build/verify, tamper detection, legal
 * updates, mount/unmount footprint and tamper-while-unmounted.
 */

#include <gtest/gtest.h>

#include <vector>

#include "monitor/merkle.h"

namespace hpmp
{
namespace
{

class MerkleTest : public ::testing::Test
{
  protected:
    MerkleTest() : mem(1_GiB)
    {
        for (unsigned p = 0; p < kPages; ++p)
            mem.write64(kBase + p * kPageSize + 64, 0x1000 + p);
        tree = std::make_unique<MerkleTree>(mem, kBase,
                                            kPages * kPageSize);
    }

    static constexpr Addr kBase = 16_MiB;
    static constexpr unsigned kPages = 24; // padded to 32 leaves

    PhysMem mem;
    std::unique_ptr<MerkleTree> tree;
};

TEST_F(MerkleTest, BuildsAndVerifies)
{
    EXPECT_EQ(tree->leafCount(), 32u);
    for (unsigned p = 0; p < kPages; ++p)
        EXPECT_TRUE(tree->verifyPage(kBase + p * kPageSize)) << p;
}

TEST_F(MerkleTest, DetectsTampering)
{
    const MerkleHash root = tree->rootHash();
    mem.write64(kBase + 5 * kPageSize + 64, 0xbad);
    EXPECT_FALSE(tree->verifyPage(kBase + 5 * kPageSize));
    // Other pages are unaffected.
    EXPECT_TRUE(tree->verifyPage(kBase + 6 * kPageSize));
    EXPECT_EQ(tree->rootHash(), root); // tree state unchanged
}

TEST_F(MerkleTest, UpdateLegalizesModification)
{
    const MerkleHash old_root = tree->rootHash();
    mem.write64(kBase + 5 * kPageSize + 64, 0x600d);
    tree->updatePage(kBase + 5 * kPageSize);
    EXPECT_TRUE(tree->verifyPage(kBase + 5 * kPageSize));
    EXPECT_NE(tree->rootHash(), old_root); // root reflects the change
}

TEST_F(MerkleTest, DeterministicRoot)
{
    MerkleTree again(mem, kBase, kPages * kPageSize);
    EXPECT_EQ(again.rootHash(), tree->rootHash());
    mem.write64(kBase, 1);
    MerkleTree changed(mem, kBase, kPages * kPageSize);
    EXPECT_NE(changed.rootHash(), tree->rootHash());
}

TEST_F(MerkleTest, UnmountShrinksFootprintAndBlocksVerify)
{
    const size_t resident = tree->residentNodes();
    tree->unmountSubtree(kBase, /*levels=*/3); // 8-leaf subtree
    EXPECT_LT(tree->residentNodes(), resident);
    EXPECT_FALSE(tree->verifyPage(kBase));
    EXPECT_FALSE(tree->verifyPage(kBase + 7 * kPageSize));
    // Pages outside the subtree still verify.
    EXPECT_TRUE(tree->verifyPage(kBase + 8 * kPageSize));
}

TEST_F(MerkleTest, RemountRestoresVerification)
{
    tree->unmountSubtree(kBase, 3);
    EXPECT_TRUE(tree->remountSubtree(kBase, 3));
    EXPECT_TRUE(tree->verifyPage(kBase));
    EXPECT_TRUE(tree->verifyPage(kBase + 7 * kPageSize));
}

TEST_F(MerkleTest, TamperWhileUnmountedIsCaughtAtRemount)
{
    tree->unmountSubtree(kBase, 3);
    mem.write64(kBase + 2 * kPageSize, 0xbad);
    EXPECT_FALSE(tree->remountSubtree(kBase, 3));
    EXPECT_FALSE(tree->verifyPage(kBase + 2 * kPageSize));
}

TEST(MerkleSparse, MixedBackingMatchesPageByPageFold)
{
    // Written, released (unbacked again) and never-touched pages in one
    // region: the root must equal a reference fold that hashes every
    // page's readBytes contents, whatever the page's backing.
    PhysMem mem(1_GiB);
    constexpr Addr kBase = 64_MiB;
    constexpr unsigned kPages = 13; // padded to 16 leaves
    for (unsigned p : {0u, 3u, 4u, 9u, 12u})
        mem.write64(kBase + p * kPageSize + 8 * p, 0xabc0 + p);
    mem.writeBytes(kBase + 6 * kPageSize, "released", 8);
    mem.releasePage(kBase + 6 * kPageSize);
    mem.releasePage(kBase + 3 * kPageSize);
    ASSERT_FALSE(mem.backed(kBase + 3 * kPageSize));
    ASSERT_FALSE(mem.backed(kBase + 7 * kPageSize));
    ASSERT_TRUE(mem.backed(kBase + 4 * kPageSize));

    std::vector<MerkleHash> level(16, 0);
    std::vector<uint8_t> buf(kPageSize);
    for (unsigned p = 0; p < kPages; ++p) {
        mem.readBytes(kBase + p * kPageSize, buf.data(), kPageSize);
        level[p] = merkleHashBytes(buf.data(), buf.size());
    }
    while (level.size() > 1) {
        std::vector<MerkleHash> up;
        for (size_t i = 0; i < level.size(); i += 2) {
            const MerkleHash pair[2] = {level[i], level[i + 1]};
            up.push_back(merkleHashBytes(pair, sizeof(pair),
                                         0x9e3779b97f4a7c15ULL));
        }
        level = std::move(up);
    }
    const MerkleTree tree(mem, kBase, kPages * kPageSize);
    EXPECT_EQ(tree.rootHash(), level[0]);
    EXPECT_TRUE(tree.verifyPage(kBase + 6 * kPageSize));
    EXPECT_TRUE(tree.verifyPage(kBase + 9 * kPageSize));
}

TEST(MerkleHashFn, BasicProperties)
{
    uint8_t a[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    uint8_t b[8] = {1, 2, 3, 4, 5, 6, 7, 9};
    EXPECT_NE(merkleHashBytes(a, 8), merkleHashBytes(b, 8));
    EXPECT_EQ(merkleHashBytes(a, 8), merkleHashBytes(a, 8));
    EXPECT_NE(merkleHashBytes(a, 8, 1), merkleHashBytes(a, 8, 2));
}

} // namespace
} // namespace hpmp
