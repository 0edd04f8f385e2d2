#include "ckpt/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

/// Negative-path coverage of the checkpoint container itself: the format
/// must reject — with a diagnostic naming the bad section — every way a
/// file can rot: truncation at any byte, any single flipped byte (the CRCs'
/// job), and a schema version this build does not read.
namespace {

using ckpt::Checkpoint;
using ckpt::Error;
using ckpt::Fingerprint;

/// A small multi-section checkpoint exercising every typed write.
Checkpoint sample() {
    Checkpoint c;
    auto& a = c.add("core");
    a.u32(7);
    a.u64(0x0123456789abcdefull);
    a.i64(-42);
    a.f64(3.14159);
    auto& b = c.add("fields");
    b.f64v(std::vector<double>{1.0, -2.5, 1e-300, 0.0});
    b.str("kovasznay");
    auto& m = c.add("meta");
    m.u64(0xdeadbeefull);
    return c;
}

TEST(CkptFormat, SerializeIsDeterministic) {
    const auto x = sample().serialize();
    const auto y = sample().serialize();
    EXPECT_EQ(x, y);
}

TEST(CkptFormat, RoundTripPreservesSectionsAndValues) {
    const auto bytes = sample().serialize();
    const Checkpoint c = Checkpoint::deserialize(bytes);
    EXPECT_EQ(c.section_names(), (std::vector<std::string>{"core", "fields", "meta"}));

    auto a = c.open("core");
    EXPECT_EQ(a.u32(), 7u);
    EXPECT_EQ(a.u64(), 0x0123456789abcdefull);
    EXPECT_EQ(a.i64(), -42);
    EXPECT_DOUBLE_EQ(a.f64(), 3.14159);
    a.expect_end();

    auto b = c.open("fields");
    EXPECT_EQ(b.f64v(), (std::vector<double>{1.0, -2.5, 1e-300, 0.0}));
    EXPECT_EQ(b.str(), "kovasznay");
    b.expect_end();

    // Re-serialization of the parsed object is byte-identical.
    EXPECT_EQ(c.serialize(), bytes);
}

TEST(CkptFormat, NanAndInfinityRoundTripBitExactly) {
    Checkpoint c;
    auto& w = c.add("x");
    w.f64(std::numeric_limits<double>::quiet_NaN());
    w.f64(std::numeric_limits<double>::infinity());
    const Checkpoint back = Checkpoint::deserialize(c.serialize());
    auto r = back.open("x");
    EXPECT_TRUE(std::isnan(r.f64()));
    EXPECT_EQ(r.f64(), std::numeric_limits<double>::infinity());
}

TEST(CkptFormat, DuplicateSectionThrows) {
    Checkpoint c;
    c.add("twice");
    EXPECT_THROW(c.add("twice"), Error);
}

TEST(CkptFormat, MissingSectionNamesItself) {
    const Checkpoint c = Checkpoint::deserialize(sample().serialize());
    try {
        (void)c.open("nope");
        FAIL() << "open() of a missing section must throw";
    } catch (const Error& e) {
        EXPECT_EQ(e.section(), "nope");
    }
}

TEST(CkptFormat, ReadPastSectionEndThrows) {
    const Checkpoint c = Checkpoint::deserialize(sample().serialize());
    auto m = c.open("meta");
    (void)m.u64();
    try {
        (void)m.u64();
        FAIL() << "reading past the payload must throw";
    } catch (const Error& e) {
        EXPECT_EQ(e.section(), "meta");
    }
}

TEST(CkptFormat, LeftoverBytesFailExpectEnd) {
    const Checkpoint c = Checkpoint::deserialize(sample().serialize());
    auto m = c.open("meta");
    EXPECT_THROW(m.expect_end(), Error);
}

TEST(CkptFormat, WrongSchemaVersionIsRejectedWithDiagnostic) {
    // A future version, and v2: its solver "breakdown" section still carries
    // per-stage retransmit, fault and overlap fields that v3 dropped.
    for (const std::uint8_t version : {std::uint8_t{0x99}, std::uint8_t{2}}) {
        auto bytes = sample().serialize();
        bytes[8] = version; // the schema version is the little-endian u32 after the magic
        try {
            (void)Checkpoint::deserialize(bytes);
            FAIL() << "schema version " << int{version} << " must be rejected";
        } catch (const Error& e) {
            EXPECT_EQ(e.section(), "header");
            EXPECT_NE(std::string(e.what()).find("schema_version " + std::to_string(version)),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(CkptFormat, FlippedPayloadByteNamesTheSectionAndCrc) {
    auto bytes = sample().serialize();
    bytes[bytes.size() - 1] ^= 0x01; // last byte: inside "meta"'s payload
    try {
        (void)Checkpoint::deserialize(bytes);
        FAIL() << "a flipped payload byte must fail the CRC";
    } catch (const Error& e) {
        EXPECT_EQ(e.section(), "meta");
        EXPECT_NE(std::string(e.what()).find("CRC"), std::string::npos) << e.what();
    }
}

TEST(CkptFormat, TruncationAtEveryLengthIsDetected) {
    const auto bytes = sample().serialize();
    for (std::size_t n = 0; n < bytes.size(); ++n) {
        const std::vector<std::uint8_t> cut(bytes.begin(),
                                            bytes.begin() + static_cast<std::ptrdiff_t>(n));
        EXPECT_THROW((void)Checkpoint::deserialize(cut), Error)
            << "truncation to " << n << " of " << bytes.size() << " bytes parsed";
    }
}

TEST(CkptFormat, EverySingleByteFlipIsDetected) {
    // The corrupt-file fuzz loop: the envelope checks (magic, version,
    // counts, lengths, the trailing-bytes check) and the per-section CRCs
    // must between them catch a flip at *any* offset.
    const auto bytes = sample().serialize();
    for (std::size_t i = 0; i < bytes.size(); ++i) {
        for (const std::uint8_t mask : {std::uint8_t{0x01}, std::uint8_t{0xff}}) {
            auto bad = bytes;
            bad[i] ^= mask;
            EXPECT_THROW((void)Checkpoint::deserialize(bad), Error)
                << "flip of byte " << i << " (mask " << int(mask) << ") parsed";
        }
    }
}

TEST(CkptFormat, FileRoundTripAndTruncatedFile) {
    const std::string path = ::testing::TempDir() + "ckpt_format_test.bin";
    const Checkpoint c = sample();
    c.write_file(path);
    EXPECT_EQ(Checkpoint::read_file(path).serialize(), c.serialize());

    // Rewrite truncated: read_file must refuse it like deserialize does.
    const auto bytes = c.serialize();
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(bytes.data(), 1, bytes.size() / 2, f);
    std::fclose(f);
    EXPECT_THROW((void)Checkpoint::read_file(path), Error);
    std::remove(path.c_str());
}

TEST(CkptFingerprint, StableAndOrderSensitive) {
    Fingerprint a;
    a.add("SerialNS2d").add(std::uint64_t{3}).add(1e-3);
    Fingerprint b;
    b.add("SerialNS2d").add(std::uint64_t{3}).add(1e-3);
    EXPECT_EQ(a.value(), b.value());

    Fingerprint c;
    c.add("SerialNS2d").add(1e-3).add(std::uint64_t{3});
    EXPECT_NE(a.value(), c.value());

    // The string sentinel keeps ("ab", "c") and ("a", "bc") apart.
    Fingerprint d, e;
    d.add("ab").add("c");
    e.add("a").add("bc");
    EXPECT_NE(d.value(), e.value());
}

TEST(CkptCrc, MatchesKnownVector) {
    // CRC-32 (IEEE) of "123456789" is the classic check value 0xcbf43926.
    const std::string s = "123456789";
    EXPECT_EQ(ckpt::crc32({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()}),
              0xcbf43926u);
}

} // namespace
