#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>

#include "lab/store.hpp"

// The RunReport store: memory-only and persistent round trips, first-write-
// wins semantics, and re-opening a directory serves the same bytes.
namespace {

namespace fs = std::filesystem;

class StoreTest : public ::testing::Test {
protected:
    void SetUp() override {
        dir_ = (fs::temp_directory_path() /
                ("lab_store_test_" +
                 std::to_string(::testing::UnitTest::GetInstance()->random_seed()) + "_" +
                 ::testing::UnitTest::GetInstance()->current_test_info()->name()))
                   .string();
        fs::remove_all(dir_);
    }
    void TearDown() override { fs::remove_all(dir_); }
    std::string dir_;
};

TEST_F(StoreTest, MemoryOnlyRoundTrip) {
    lab::RunReportStore store; // dir == "" -> nothing touches disk
    EXPECT_FALSE(store.get("0123456789abcdef").has_value());
    store.put("0123456789abcdef", "{\"x\":1}\n");
    ASSERT_TRUE(store.contains("0123456789abcdef"));
    EXPECT_EQ(*store.get("0123456789abcdef"), "{\"x\":1}\n");
    EXPECT_EQ(store.size(), 1u);
    EXPECT_TRUE(store.dir().empty());
}

TEST_F(StoreTest, PersistentEntriesSurviveReopen) {
    const std::string bytes = "{\"schema_version\":2}\n";
    {
        lab::RunReportStore store(dir_);
        store.put("00000000000000aa", bytes);
        store.put("00000000000000bb", "{\"other\":true}\n");
    }
    EXPECT_TRUE(fs::exists(fs::path(dir_) / "00000000000000aa.json"));

    lab::RunReportStore reopened(dir_);
    EXPECT_EQ(reopened.size(), 2u);
    EXPECT_EQ(*reopened.get("00000000000000aa"), bytes);
    EXPECT_EQ(reopened.keys(),
              (std::vector<std::string>{"00000000000000aa", "00000000000000bb"}));
}

TEST_F(StoreTest, FirstWriteWins) {
    lab::RunReportStore store(dir_);
    store.put("00000000000000cc", "first\n");
    store.put("00000000000000cc", "second\n");
    EXPECT_EQ(*store.get("00000000000000cc"), "first\n");

    // Same for an entry that already exists on disk from another process.
    std::ofstream(fs::path(dir_) / "00000000000000dd.json") << "disk\n";
    lab::RunReportStore other(dir_);
    other.put("00000000000000dd", "late\n");
    EXPECT_EQ(*other.get("00000000000000dd"), "disk\n");
}

TEST_F(StoreTest, FreshDirectoryGetsTheVersionOnFirstPut) {
    const fs::path version = fs::path(dir_) / "VERSION";
    lab::RunReportStore store(dir_);
    EXPECT_FALSE(fs::exists(version));
    store.put("00000000000000ab", "x\n");
    std::ifstream in(version);
    const std::string body((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    EXPECT_EQ(body, std::to_string(lab::kStoreVersion) + "\n");
    EXPECT_EQ(lab::RunReportStore(dir_).keys(), (std::vector<std::string>{"00000000000000ab"}));
}

TEST_F(StoreTest, StaleDirectoryIsRefused) {
    const auto refusal = [&] {
        try {
            lab::RunReportStore store(dir_);
        } catch (const std::runtime_error& e) {
            return std::string(e.what());
        }
        return std::string("opened");
    };
    const std::string want = "this build reads version " + std::to_string(lab::kStoreVersion);
    // Entries written before stores carried a version.
    fs::create_directories(dir_);
    std::ofstream(fs::path(dir_) / "00000000000000ac.json") << "old\n";
    std::string what = refusal();
    EXPECT_NE(what.find(dir_), std::string::npos) << what;
    EXPECT_NE(what.find("store version none"), std::string::npos) << what;
    EXPECT_NE(what.find(want), std::string::npos) << what;
    // Entries written under another version.
    std::ofstream(fs::path(dir_) / "VERSION") << (lab::kStoreVersion - 1) << "\n";
    what = refusal();
    EXPECT_NE(what.find("store version " + std::to_string(lab::kStoreVersion - 1)),
              std::string::npos)
        << what;
    EXPECT_NE(what.find(want), std::string::npos) << what;
}

TEST_F(StoreTest, ForeignFilesInTheDirectoryAreIgnored) {
    lab::RunReportStore store(dir_);
    store.put("00000000000000ee", "x\n");
    std::ofstream(fs::path(dir_) / "README.txt") << "not a report";
    std::ofstream(fs::path(dir_) / "short.json") << "{}";
    EXPECT_EQ(store.keys(), (std::vector<std::string>{"00000000000000ee"}));
}

} // namespace
