#pragma once

#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

/// \file store.hpp
/// The persistent RunReport store: store_key -> canonical RunReport bytes.
///
/// Layout is one file per entry, `<dir>/<key>.json`, where `key` is the
/// request's 16-hex-digit fingerprint.  Because every value is the
/// byte-deterministic canonical report for its request, the store's on-disk
/// contents are a pure function of the set of requests answered — two
/// daemons fed the same mix produce directories that `diff -r` clean, which
/// CI exploits as a determinism gate.  Writes go through a tmp file +
/// rename so a crashed daemon never leaves a torn entry.
///
/// `<dir>/VERSION` holds kStoreVersion, written on the first put.  A
/// directory holding entries under a missing or different version is
/// refused when opened, so a build never serves answers an older build
/// computed differently.
namespace lab {

/// Version of the stored answers.  Bump it whenever the answer to the same
/// request changes.  2: measured Fourier answers credit the overlap their
/// probe run hid.
inline constexpr int kStoreVersion = 2;

class RunReportStore {
public:
    /// `dir` = "" keeps the store memory-only (tests, one-shot clients);
    /// otherwise the directory is created on first put().  Throws
    /// std::runtime_error, naming the directory and both versions, when
    /// `dir` holds entries of another store version.
    explicit RunReportStore(std::string dir = "");

    /// The stored canonical bytes for `key`, or nullopt.  Disk entries are
    /// pulled into the in-memory map on first access.
    [[nodiscard]] std::optional<std::string> get(const std::string& key);

    /// Inserts `canonical_bytes` under `key` (atomic tmp+rename on disk).
    /// Re-putting an existing key is a no-op: first write wins, which keeps
    /// concurrent singleflight losers from rewriting identical bytes.
    void put(const std::string& key, const std::string& canonical_bytes);

    [[nodiscard]] bool contains(const std::string& key);

    /// Keys currently known (memory + disk), sorted.
    [[nodiscard]] std::vector<std::string> keys() const;

    [[nodiscard]] std::size_t size() const;
    [[nodiscard]] const std::string& dir() const noexcept { return dir_; }

private:
    [[nodiscard]] std::string path_for(const std::string& key) const;
    [[nodiscard]] std::optional<std::string> read_disk(const std::string& key) const;

    std::string dir_;
    mutable std::mutex mu_;
    std::map<std::string, std::string> mem_;
};

} // namespace lab
