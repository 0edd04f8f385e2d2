#include "ckpt/checkpoint.hpp"

#include <array>
#include <cstdio>
#include <cstring>

namespace ckpt {

namespace {

constexpr std::array<char, 8> kMagic = {'R', 'P', 'R', 'O', 'C', 'K', 'P', 'T'};

void le_append(std::vector<std::uint8_t>& out, std::uint64_t v, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

[[nodiscard]] std::uint64_t le_read(const std::uint8_t* p, std::size_t n) noexcept {
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < n; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return v;
}

const std::array<std::uint32_t, 256>& crc_table() {
    static const std::array<std::uint32_t, 256> table = [] {
        std::array<std::uint32_t, 256> t{};
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
            t[i] = c;
        }
        return t;
    }();
    return table;
}

[[nodiscard]] std::uint32_t crc32_extend(std::uint32_t crc,
                                         std::span<const std::uint8_t> data) noexcept {
    const auto& t = crc_table();
    std::uint32_t c = crc ^ 0xffffffffu;
    for (const std::uint8_t b : data) c = t[(c ^ b) & 0xffu] ^ (c >> 8);
    return c ^ 0xffffffffu;
}

[[nodiscard]] std::uint32_t section_crc(const std::string& name,
                                        std::span<const std::uint8_t> payload) noexcept {
    // The CRC covers name + payload so a bit flip anywhere inside a section
    // record (not just its payload) is caught.
    const auto& t = crc_table();
    std::uint32_t raw = 0xffffffffu;
    for (const char ch : name)
        raw = t[(raw ^ static_cast<std::uint8_t>(ch)) & 0xffu] ^ (raw >> 8);
    for (const std::uint8_t b : payload) raw = t[(raw ^ b) & 0xffu] ^ (raw >> 8);
    return raw ^ 0xffffffffu;
}

} // namespace

Error::Error(std::string section, const std::string& what)
    : std::runtime_error("checkpoint section '" + section + "': " + what),
      section_(std::move(section)) {}

std::uint32_t crc32(std::span<const std::uint8_t> data) noexcept {
    return crc32_extend(0, data);
}

void Fingerprint::mix(const std::uint8_t* p, std::size_t n) noexcept {
    for (std::size_t i = 0; i < n; ++i) {
        h_ ^= p[i];
        h_ *= 0x100000001b3ull; // FNV-1a prime
    }
}

Fingerprint& Fingerprint::add(std::string_view s) noexcept {
    mix(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
    const std::uint8_t sep = 0xff; // length sentinel: "ab"+"c" != "a"+"bc"
    mix(&sep, 1);
    return *this;
}

Fingerprint& Fingerprint::add(std::uint64_t v) noexcept {
    std::uint8_t b[8];
    for (int i = 0; i < 8; ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * i));
    mix(b, 8);
    return *this;
}

Fingerprint& Fingerprint::add(double v) noexcept {
    std::uint64_t bits;
    std::memcpy(&bits, &v, 8);
    return add(bits);
}

void SectionWriter::u32(std::uint32_t v) { le_append(bytes_, v, 4); }
void SectionWriter::u64(std::uint64_t v) { le_append(bytes_, v, 8); }
void SectionWriter::i64(std::int64_t v) { le_append(bytes_, static_cast<std::uint64_t>(v), 8); }

void SectionWriter::f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, 8);
    le_append(bytes_, bits, 8);
}

void SectionWriter::f64v(std::span<const double> v) {
    u64(v.size());
    for (const double x : v) f64(x);
}

void SectionWriter::str(std::string_view s) {
    u64(s.size());
    bytes_.insert(bytes_.end(), s.begin(), s.end());
}

void SectionWriter::raw(std::span<const std::uint8_t> data) {
    bytes_.insert(bytes_.end(), data.begin(), data.end());
}

void SectionReader::need(std::size_t n, const char* what) {
    if (bytes_.size() - pos_ < n)
        fail(std::string("truncated read of ") + what + " at offset " + std::to_string(pos_) +
             " (" + std::to_string(bytes_.size() - pos_) + " of " + std::to_string(n) +
             " bytes left)");
}

void SectionReader::fail(const std::string& what) const { throw Error(name_, what); }

std::uint32_t SectionReader::u32() {
    need(4, "u32");
    const auto v = static_cast<std::uint32_t>(le_read(bytes_.data() + pos_, 4));
    pos_ += 4;
    return v;
}

std::uint64_t SectionReader::u64() {
    need(8, "u64");
    const std::uint64_t v = le_read(bytes_.data() + pos_, 8);
    pos_ += 8;
    return v;
}

std::int64_t SectionReader::i64() { return static_cast<std::int64_t>(u64()); }

double SectionReader::f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, 8);
    return v;
}

std::vector<double> SectionReader::f64v() {
    const std::uint64_t n = u64();
    if (remaining() < 8 * n) fail("f64 vector longer than the section payload");
    std::vector<double> v(n);
    for (std::uint64_t i = 0; i < n; ++i) v[i] = f64();
    return v;
}

std::string SectionReader::str() {
    const std::uint64_t n = u64();
    need(n, "string");
    std::string s(reinterpret_cast<const char*>(bytes_.data() + pos_), n);
    pos_ += n;
    return s;
}

void SectionReader::expect_end() const {
    if (pos_ != bytes_.size())
        throw Error(name_, std::to_string(bytes_.size() - pos_) +
                               " unread payload bytes (writer/reader layout drift)");
}

SectionWriter& Checkpoint::add(std::string name) {
    if (has(name)) throw Error(name, "duplicate section");
    sections_.emplace_back(std::move(name));
    return sections_.back();
}

bool Checkpoint::has(std::string_view name) const noexcept {
    for (const SectionWriter& s : sections_)
        if (s.name() == name) return true;
    return false;
}

SectionReader Checkpoint::open(std::string_view name) const {
    for (const SectionWriter& s : sections_)
        if (s.name() == name) return SectionReader(s.name(), s.bytes());
    throw Error(std::string(name), "section missing from checkpoint");
}

std::vector<std::string> Checkpoint::section_names() const {
    std::vector<std::string> names;
    names.reserve(sections_.size());
    for (const SectionWriter& s : sections_) names.push_back(s.name());
    return names;
}

std::vector<std::uint8_t> Checkpoint::serialize() const {
    std::vector<std::uint8_t> out(kMagic.begin(), kMagic.end());
    le_append(out, kSchemaVersion, 4);
    le_append(out, sections_.size(), 4);
    for (const SectionWriter& s : sections_) {
        le_append(out, s.name().size(), 4);
        out.insert(out.end(), s.name().begin(), s.name().end());
        le_append(out, s.bytes().size(), 8);
        le_append(out, section_crc(s.name(), s.bytes()), 4);
        out.insert(out.end(), s.bytes().begin(), s.bytes().end());
    }
    return out;
}

Checkpoint Checkpoint::deserialize(std::span<const std::uint8_t> bytes) {
    std::size_t pos = 0;
    const auto need = [&](std::size_t n, const char* what) {
        if (bytes.size() - pos < n)
            throw Error("header", std::string("truncated checkpoint: ") + what +
                                      " at offset " + std::to_string(pos));
    };
    need(8, "magic");
    if (std::memcmp(bytes.data(), kMagic.data(), 8) != 0)
        throw Error("header", "bad magic (not a checkpoint file)");
    pos = 8;
    need(4, "schema version");
    const auto version = static_cast<std::uint32_t>(le_read(bytes.data() + pos, 4));
    pos += 4;
    if (version != kSchemaVersion)
        throw Error("header", "unsupported schema_version " + std::to_string(version) +
                                  " (this build reads " + std::to_string(kSchemaVersion) + ")");
    need(4, "section count");
    const auto count = static_cast<std::uint32_t>(le_read(bytes.data() + pos, 4));
    pos += 4;

    Checkpoint c;
    for (std::uint32_t i = 0; i < count; ++i) {
        need(4, "section name length");
        const auto name_len = static_cast<std::size_t>(le_read(bytes.data() + pos, 4));
        pos += 4;
        need(name_len, "section name");
        std::string name(reinterpret_cast<const char*>(bytes.data() + pos), name_len);
        pos += name_len;
        if (bytes.size() - pos < 12)
            throw Error(name, "truncated section header at offset " + std::to_string(pos));
        const std::uint64_t payload_len = le_read(bytes.data() + pos, 8);
        pos += 8;
        const auto stored_crc = static_cast<std::uint32_t>(le_read(bytes.data() + pos, 4));
        pos += 4;
        if (bytes.size() - pos < payload_len)
            throw Error(name, "truncated payload: " + std::to_string(payload_len) +
                                  " bytes declared, " + std::to_string(bytes.size() - pos) +
                                  " left in the file");
        const std::span<const std::uint8_t> payload(bytes.data() + pos,
                                                    static_cast<std::size_t>(payload_len));
        pos += static_cast<std::size_t>(payload_len);
        const std::uint32_t actual = section_crc(name, payload);
        if (actual != stored_crc)
            throw Error(name, "CRC mismatch (stored " + std::to_string(stored_crc) +
                                  ", computed " + std::to_string(actual) +
                                  "): the checkpoint is corrupt");
        c.add(std::move(name)).raw(payload);
    }
    if (pos != bytes.size())
        throw Error("header", std::to_string(bytes.size() - pos) +
                                  " trailing bytes after the last section");
    return c;
}

void Checkpoint::write_file(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) throw std::runtime_error("ckpt: cannot write " + path);
    const std::vector<std::uint8_t> bytes = serialize();
    const std::size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
    std::fclose(f);
    if (written != bytes.size()) throw std::runtime_error("ckpt: short write to " + path);
}

Checkpoint Checkpoint::read_file(const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) throw std::runtime_error("ckpt: cannot read " + path);
    std::vector<std::uint8_t> bytes;
    std::uint8_t buf[4096];
    for (;;) {
        const std::size_t n = std::fread(buf, 1, sizeof(buf), f);
        bytes.insert(bytes.end(), buf, buf + n);
        if (n < sizeof(buf)) break;
    }
    std::fclose(f);
    return deserialize(bytes);
}

} // namespace ckpt
