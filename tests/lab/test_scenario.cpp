#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "lab/fault_profiles.hpp"
#include "lab/json.hpp"
#include "lab/scenario.hpp"

// The canonicalisation contract: identical runs serialize to identical
// bytes (and therefore identical store keys) no matter how the request was
// written, and anything outside the schema is rejected loudly.
namespace {

using lab::ParseError;
using lab::ScenarioRequest;

TEST(JsonParse, DeepNestingIsAParseErrorNotAStackOverflow) {
    // A frame's worth of '[' used to recurse until the stack ran out.
    try {
        (void)lab::Json::parse(std::string(100000, '['));
        FAIL() << "100000 nested arrays parsed";
    } catch (const ParseError& e) {
        const std::string what = e.what();
        const std::string limit = std::to_string(lab::Json::kMaxDepth);
        EXPECT_NE(what.find("deeper than " + limit), std::string::npos) << what;
        EXPECT_NE(what.find("at byte " + limit), std::string::npos) << what;
    }
    // One level past the limit through objects fails the same way.
    std::string objects;
    for (std::size_t i = 0; i <= lab::Json::kMaxDepth; ++i) objects += "{\"k\":";
    EXPECT_THROW((void)lab::Json::parse(objects + "1"), ParseError);
}

TEST(JsonParse, NestingAtTheLimitParses) {
    const std::size_t depth = lab::Json::kMaxDepth;
    const lab::Json nest =
        lab::Json::parse(std::string(depth - 1, '[') + "[1]" + std::string(depth - 1, ']'));
    const lab::Json* v = &nest;
    for (std::size_t i = 0; i < depth; ++i) {
        ASSERT_TRUE(v->is_array()) << "level " << i;
        ASSERT_EQ(v->as_array().size(), 1u);
        v = &v->as_array().front();
    }
    EXPECT_EQ(v->as_number(), 1.0);
}

TEST(ScenarioCanonical, FieldOrderDoesNotChangeTheFingerprint) {
    const auto a = ScenarioRequest::parse(
        R"({"machine":"pentium","net":"myrinet","ranks":16,"solver":"fourier",
            "fidelity":"model","fault":"myrinet","seed":7,"smoke":true,
            "dof_per_rank":250000,"transpose":"pencil"})");
    const auto b = ScenarioRequest::parse(
        R"({"transpose":"pencil","dof_per_rank":250000,"smoke":true,"seed":7,
            "fault":"myrinet","fidelity":"model","solver":"fourier","ranks":16,
            "net":"myrinet","machine":"pentium"})");
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.canonical_json(), b.canonical_json());
    EXPECT_EQ(a.fingerprint(), b.fingerprint());
    EXPECT_EQ(a.store_key(), b.store_key());
}

TEST(ScenarioCanonical, ParseThenEmitIsANormalisingRoundTrip) {
    ScenarioRequest req;
    req.bench = "table2_nektar_f";
    req.machine = "pentium";
    req.ranks = 8;
    req.seed = 1999;
    req.dof_per_rank = 461000.0;
    const std::string canon = req.canonical_json();
    EXPECT_EQ(ScenarioRequest::parse(canon).canonical_json(), canon);
    // Keys appear in sorted order, all fields present even when defaulted.
    const char* keys[] = {"\"backend\"", "\"bench\"", "\"dof_per_rank\"", "\"fault\"",
                          "\"fidelity\"", "\"machine\"", "\"net\"", "\"ranks\"",
                          "\"schema\"", "\"seed\"", "\"smoke\"", "\"solver\"",
                          "\"steps\"", "\"transpose\""};
    std::size_t last = 0;
    for (const char* k : keys) {
        const std::size_t at = canon.find(k);
        ASSERT_NE(at, std::string::npos) << k;
        EXPECT_GT(at, last) << k << " out of sorted order";
        last = at;
    }
}

TEST(ScenarioCanonical, DistinctRequestsGetDistinctKeys) {
    ScenarioRequest a, b;
    a.ranks = 8;
    b.ranks = 16;
    EXPECT_NE(a.store_key(), b.store_key());
    b = a;
    EXPECT_EQ(a.store_key(), b.store_key());
    b.seed = 1;
    EXPECT_NE(a.store_key(), b.store_key());
}

TEST(ScenarioParse, EmptyObjectYieldsDefaults) {
    const auto req = ScenarioRequest::parse("{}");
    EXPECT_EQ(req, ScenarioRequest{});
    EXPECT_EQ(req.fidelity, "model");
}

TEST(ScenarioParse, UnknownFieldIsRejectedByName) {
    try {
        (void)ScenarioRequest::parse(R"({"ranks":4,"nprocs":4})");
        FAIL() << "unknown field accepted";
    } catch (const ParseError& e) {
        EXPECT_NE(std::string(e.what()).find("nprocs"), std::string::npos);
    }
}

TEST(ScenarioParse, RejectsWrongTypesAndBadEnums) {
    EXPECT_THROW((void)ScenarioRequest::parse(R"({"ranks":"eight"})"), ParseError);
    EXPECT_THROW((void)ScenarioRequest::parse(R"({"ranks":-2})"), ParseError);
    EXPECT_THROW((void)ScenarioRequest::parse(R"({"ranks":2.5})"), ParseError);
    EXPECT_THROW((void)ScenarioRequest::parse(R"({"solver":"spectral"})"), ParseError);
    EXPECT_THROW((void)ScenarioRequest::parse(R"({"fidelity":"exact"})"), ParseError);
    EXPECT_THROW((void)ScenarioRequest::parse(R"({"transpose":"diagonal"})"), ParseError);
    EXPECT_THROW((void)ScenarioRequest::parse(R"({"schema":99})"), ParseError);
    EXPECT_THROW((void)ScenarioRequest::parse("[1,2]"), ParseError);
    EXPECT_THROW((void)ScenarioRequest::parse(R"({"ranks":1,"ranks":2})"), ParseError);
    // Counts past the field's range used to wrap in the integer casts
    // (4294967300 ranks parsed as 4) or convert undefinedly (1e300, inf).
    for (const auto& [doc, field] : std::initializer_list<std::pair<const char*, const char*>>{
             {R"({"ranks":4294967300})", "ranks"},
             {R"({"ranks":2147483648})", "ranks"},
             {R"({"steps":4294967297})", "steps"},
             {R"({"ranks":1e300})", "ranks"},
             {R"({"ranks":1e999})", "ranks"},
             {R"({"seed":1e300})", "seed"},
             {R"({"seed":18446744073709551616})", "seed"},
             {R"({"schema":1e999})", "schema"}}) {
        try {
            (void)ScenarioRequest::parse(doc);
            ADD_FAILURE() << doc << " parsed";
        } catch (const ParseError& e) {
            EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
        }
    }
    EXPECT_EQ(ScenarioRequest::parse(R"({"ranks":2147483647})").ranks, 2147483647);
}

TEST(ScenarioSweep, SelectorsAndRankSweepMirrorTheOldCliSemantics) {
    ScenarioRequest req;
    EXPECT_TRUE(req.selects_machine("pentium-ii-450"));
    req.machine = "pentium";
    EXPECT_TRUE(req.selects_machine("pentium-ii-450"));
    EXPECT_FALSE(req.selects_machine("t3e-900"));
    EXPECT_EQ(req.rank_sweep({2, 4, 8}), (std::vector<int>{2, 4, 8}));
    req.ranks = 6;
    EXPECT_EQ(req.rank_sweep({2, 4, 8}), (std::vector<int>{6}));
}

TEST(ScenarioFaults, RosterProfilesResolveAndRequestSeedWins) {
    for (const auto& profile : lab::fault_roster())
        EXPECT_NO_THROW((void)lab::fault_by_name(profile.name)) << profile.name;
    const auto seeded = lab::fault_by_name("commodity-eth", 42);
    EXPECT_EQ(seeded.seed, 42u);
    EXPECT_THROW((void)lab::fault_by_name("token-ring"), ParseError);
}

/// Splitmix64: a fixed, platform-independent stream for the fuzz cases.
struct Rng {
    std::uint64_t state;
    std::uint64_t next() {
        std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }
    std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }
};

/// One random edit of `s`: a bit flip, a truncation, an inserted JSON
/// fragment, or a number token replaced by an edge-case literal.
void mutate(std::string& s, Rng& rng) {
    static const char* const kFragments[] = {"\"", "{", "}", "[", "]", ",", ":", "\\",
                                             "\\u", "\\u00e9", "\\ud800", "-", "null",
                                             "true", "\"k\":", " ", "\x01", "\xff"};
    static const char* const kNumbers[] = {
        "-1",  "-0",  "0.5", "1e300", "1e999", "-1e999", "1e-400", "4294967300",
        "2147483647", "2147483648", "9007199254740993", "18446744073709551615",
        "18446744073709551616", "1.", ".5", "1e", "--1", "0e0", "007", "1E+2"};
    switch (rng.below(4)) {
    case 0:
        if (!s.empty()) s[rng.below(s.size())] ^= static_cast<char>(1u << rng.below(8));
        break;
    case 1: s.resize(rng.below(s.size() + 1)); break;
    case 2: s.insert(rng.below(s.size() + 1), kFragments[rng.below(std::size(kFragments))]); break;
    default: {
        // Replace the digit run at or after a random position.
        std::size_t b = s.find_first_of("0123456789", rng.below(s.size() + 1));
        if (b == std::string::npos) b = s.find_first_of("0123456789");
        if (b == std::string::npos) break;
        std::size_t e = b;
        while (e < s.size() && ((s[e] >= '0' && s[e] <= '9') || s[e] == '.')) ++e;
        s.replace(b, e - b, kNumbers[rng.below(std::size(kNumbers))]);
    }
    }
}

std::string printable(const std::string& s) {
    std::string out;
    for (const char c : s) {
        if (c >= 0x20 && c < 0x7f) {
            out += c;
        } else {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\x%02x", static_cast<unsigned char>(c));
            out += buf;
        }
    }
    return out;
}

/// Runs `fn`; true if it returned, false on lab::ParseError.  Any other
/// exception is a test failure naming the input.
template <class F>
bool parses(const std::string& text, F&& fn) {
    try {
        fn();
        return true;
    } catch (const ParseError&) {
        return false;
    } catch (const std::exception& e) {
        ADD_FAILURE() << "non-ParseError \"" << e.what() << "\" on: " << printable(text);
    } catch (...) {
        ADD_FAILURE() << "non-std exception on: " << printable(text);
    }
    return false;
}

TEST(ScenarioFuzz, MutatedRequestsParseOrThrowParseErrorAndRoundTrip) {
    ScenarioRequest full;
    full.bench = "table2_nektar_f \"q\"\t\\";
    full.machine = "pentium-ii-450";
    full.net = "fast-ethernet";
    full.ranks = 16;
    full.seed = 1999;
    full.smoke = true;
    full.solver = "fourier";
    full.fidelity = "measured";
    full.backend = "sumfact";
    full.fault = "commodity-eth";
    full.transpose = "pencil";
    full.dof_per_rank = 461000.5;
    full.steps = 40;
    const std::vector<std::string> seeds = {ScenarioRequest{}.canonical_json(),
                                            full.canonical_json()};
    Rng rng{20260415};
    int accepted = 0;
    constexpr int kCases = 4000;
    for (int i = 0; i < kCases; ++i) {
        std::string text = seeds[static_cast<std::size_t>(i) % seeds.size()];
        for (std::size_t m = 1 + rng.below(3); m > 0; --m) mutate(text, rng);
        (void)parses(text, [&] { (void)lab::Json::parse(text); });
        ScenarioRequest req;
        if (!parses(text, [&] { req = ScenarioRequest::parse(text); })) continue;
        ++accepted;
        const std::string canon = req.canonical_json();
        ScenarioRequest again;
        ASSERT_TRUE(parses(canon, [&] { again = ScenarioRequest::parse(canon); }))
            << printable(text);
        EXPECT_EQ(again.canonical_json(), canon) << printable(text);
    }
    // The stream must reach the accepting paths, not only the rejections.
    EXPECT_GT(accepted, kCases / 20);
}

} // namespace
