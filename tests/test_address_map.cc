/** @file Address interleave and tbloff hash property tests. */

#include <gtest/gtest.h>

#include "mem/address_map.hh"
#include "sim/random.hh"

namespace {

constexpr mem::Addr kTableBase = 0xF000'0000;

TEST(AddressMap, BankAndChannelFields)
{
    mem::AddressMap map(32, 8, kTableBase);
    // The bank field starts at bit 11 (2 KB controller stride,
    // matching footnote 1's addr[10..0]).
    EXPECT_EQ(map.bankOf(0x0000'0000), 0u);
    EXPECT_EQ(map.bankOf(0x0000'0800), 1u);
    EXPECT_EQ(map.bankOf(0x0000'07FF), 0u);
    // Channel is the low three bank bits: addr[13..11] stride across
    // the eight controllers.
    EXPECT_EQ(map.channelOf(0x0000'0800), 1u);
    EXPECT_EQ(map.channelOf(0x0000'4000), 0u); // bank 8, channel 0
    EXPECT_EQ(map.bankOf(0x0000'4000), 8u);
}

TEST(AddressMap, RejectsBadConfigs)
{
    EXPECT_THROW(mem::AddressMap(12, 4, kTableBase), std::runtime_error);
    EXPECT_THROW(mem::AddressMap(8, 3, kTableBase), std::runtime_error);
    EXPECT_THROW(mem::AddressMap(4, 8, kTableBase), std::runtime_error);
    EXPECT_THROW(mem::AddressMap(8, 2, 0x1234'0000), std::runtime_error);
}

TEST(AddressMap, TableBitIndexIsLineWithinKilobyteBlock)
{
    mem::AddressMap map(8, 2, kTableBase);
    EXPECT_EQ(map.tableBitIndex(0x0000), 0u);
    EXPECT_EQ(map.tableBitIndex(0x0020), 1u);
    EXPECT_EQ(map.tableBitIndex(0x03E0), 31u);
    EXPECT_EQ(map.tableBitIndex(0x0400), 0u);
}

TEST(AddressMap, TableAddressesStayInsideTable)
{
    mem::AddressMap map(32, 8, kTableBase);
    sim::Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        mem::Addr a = static_cast<mem::Addr>(rng.next());
        mem::Addr t = map.tableWordAddr(a);
        EXPECT_TRUE(map.inTable(t)) << std::hex << a;
        EXPECT_EQ(t % 4, 0u);
    }
}

/** The architectural property the hash exists for: a line's table
 *  word is homed to the line's own bank (Section 3.4). */
class TblOffBankProperty : public ::testing::TestWithParam<unsigned>
{};

TEST_P(TblOffBankProperty, TableWordHomesToSameBank)
{
    unsigned banks = GetParam();
    unsigned channels = std::max(1u, banks / 4);
    mem::AddressMap map(banks, channels, kTableBase);
    sim::Rng rng(banks);
    for (int i = 0; i < 20000; ++i) {
        mem::Addr a = static_cast<mem::Addr>(rng.next());
        mem::Addr t = map.tableWordAddr(a);
        EXPECT_EQ(map.bankOf(t), map.bankOf(a))
            << "addr=0x" << std::hex << a << " table=0x" << t;
    }
}

TEST_P(TblOffBankProperty, PermutationIsInvertible)
{
    unsigned banks = GetParam();
    unsigned channels = std::max(1u, banks / 4);
    mem::AddressMap map(banks, channels, kTableBase);
    sim::Rng rng(banks * 31 + 1);
    for (int i = 0; i < 20000; ++i) {
        mem::Addr a = static_cast<mem::Addr>(rng.next());
        mem::Addr t = map.tableWordAddr(a);
        // coveredBlockBase must recover the 1 KB block of a.
        EXPECT_EQ(map.coveredBlockBase(t), a & ~mem::Addr(1023))
            << std::hex << a;
    }
}

TEST_P(TblOffBankProperty, PermutationIsInjective)
{
    unsigned banks = GetParam();
    unsigned channels = std::max(1u, banks / 4);
    mem::AddressMap map(banks, channels, kTableBase);
    // Distinct 1 KB blocks must map to distinct table words: sample
    // a contiguous run plus random probes against a seen-set.
    std::set<mem::Addr> seen;
    for (mem::Addr block = 0; block < (1u << 22); block += 1024) {
        mem::Addr t = map.tableWordAddr(block);
        EXPECT_TRUE(seen.insert(t).second) << std::hex << block;
    }
}

/** The word-index permutation written as the bit-at-a-time loop the
 *  closed form in AddressMap replaced: the bank field (index bits
 *  [1, 1+bank_bits)) pinned at [9, 9+bank_bits), the other bits placed
 *  in order, lowest first, over the remaining positions. */
std::uint32_t
referencePermute(std::uint32_t idx, unsigned bank_bits)
{
    std::uint32_t out = 0;
    for (unsigned i = 0; i < bank_bits; ++i) {
        if (idx & (1u << (1 + i)))
            out |= 1u << (9 + i);
    }
    unsigned out_pos = 0;
    auto place = [&](unsigned in_bit) {
        if (out_pos == 9)
            out_pos += bank_bits; // skip the pinned bank field
        if (idx & (1u << in_bit))
            out |= 1u << out_pos;
        ++out_pos;
    };
    place(0);
    for (unsigned i = bank_bits + 1; i < 22; ++i)
        place(i);
    return out;
}

TEST(AddressMap, TableWordAddrMatchesBitLoopReferenceExhaustively)
{
    for (unsigned bank_bits = 0; bank_bits <= 13; ++bank_bits) {
        mem::AddressMap map(1u << bank_bits, 1, kTableBase);
        std::uint64_t mismatches = 0;
        std::uint32_t first_bad = 0;
        for (std::uint32_t idx = 0; idx < (1u << 22); ++idx) {
            const mem::Addr want =
                kTableBase + (referencePermute(idx, bank_bits) << 2);
            if (map.tableWordAddr(idx << 10) != want && !mismatches++)
                first_bad = idx;
        }
        EXPECT_EQ(mismatches, 0u) << "bank bits " << bank_bits
                                  << ", first bad word index 0x"
                                  << std::hex << first_bad;
    }
}

INSTANTIATE_TEST_SUITE_P(BankCounts, TblOffBankProperty,
                         ::testing::Values(1, 2, 4, 8, 16, 32, 64));

TEST(AddressMap, CoveredBlockBaseRejectsOutsideTable)
{
    mem::AddressMap map(8, 2, kTableBase);
    EXPECT_THROW(map.coveredBlockBase(0x1000), std::logic_error);
}

TEST(AddressMap, DramBankAndRowDisambiguate)
{
    mem::AddressMap map(8, 2, kTableBase);
    // Same channel, different DRAM banks for different mid bits.
    mem::Addr a = 0x0000'0000;
    mem::Addr b = a + (1u << (11 + 3)); // first dram-bank bit
    EXPECT_EQ(map.channelOf(a), map.channelOf(b));
    EXPECT_NE(map.dramBankOf(a), map.dramBankOf(b));
    // Rows differ above the bank field.
    mem::Addr c = a + (1u << (11 + 3 + 4));
    EXPECT_NE(map.dramRowOf(a), map.dramRowOf(c));
}

} // namespace
