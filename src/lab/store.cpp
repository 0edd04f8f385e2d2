#include "lab/store.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

namespace lab {

namespace fs = std::filesystem;

RunReportStore::RunReportStore(std::string dir) : dir_(std::move(dir)) {
    if (dir_.empty()) return;
    std::string found; // the version the directory was written under
    std::ifstream(fs::path(dir_) / "VERSION") >> found;
    const std::string want = std::to_string(kStoreVersion);
    if (found == want || (found.empty() && keys().empty())) return;
    throw std::runtime_error("RunReportStore: " + dir_ + " holds entries of store version " +
                             (found.empty() ? "none (no VERSION file)" : found) +
                             ", but this build reads version " + want +
                             "; remove the directory or use another one");
}

std::string RunReportStore::path_for(const std::string& key) const {
    return dir_ + "/" + key + ".json";
}

std::optional<std::string> RunReportStore::read_disk(const std::string& key) const {
    if (dir_.empty()) return std::nullopt;
    std::ifstream in(path_for(key), std::ios::binary);
    if (!in) return std::nullopt;
    std::ostringstream body;
    body << in.rdbuf();
    return body.str();
}

std::optional<std::string> RunReportStore::get(const std::string& key) {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = mem_.find(key);
    if (it != mem_.end()) return it->second;
    auto disk = read_disk(key);
    if (disk) mem_.emplace(key, *disk);
    return disk;
}

bool RunReportStore::contains(const std::string& key) { return get(key).has_value(); }

void RunReportStore::put(const std::string& key, const std::string& canonical_bytes) {
    std::lock_guard<std::mutex> lock(mu_);
    if (mem_.find(key) != mem_.end()) return; // first write wins
    if (!dir_.empty()) {
        if (read_disk(key)) { // adopt the existing on-disk entry
            mem_.emplace(key, *read_disk(key));
            return;
        }
        fs::create_directories(dir_);
        const fs::path version = fs::path(dir_) / "VERSION";
        if (!fs::exists(version)) std::ofstream(version) << kStoreVersion << "\n";
        const std::string tmp = path_for(key) + ".tmp";
        {
            std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
            if (!out) throw std::runtime_error("RunReportStore: cannot write " + tmp);
            out << canonical_bytes;
        }
        fs::rename(tmp, path_for(key));
    }
    mem_.emplace(key, canonical_bytes);
}

std::vector<std::string> RunReportStore::keys() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::set<std::string> all;
    for (const auto& [k, v] : mem_) all.insert(k);
    if (!dir_.empty() && fs::exists(dir_)) {
        for (const auto& entry : fs::directory_iterator(dir_)) {
            const auto name = entry.path().filename().string();
            if (name.size() == 21 && name.compare(16, 5, ".json") == 0)
                all.insert(name.substr(0, 16));
        }
    }
    return {all.begin(), all.end()};
}

std::size_t RunReportStore::size() const { return keys().size(); }

} // namespace lab
