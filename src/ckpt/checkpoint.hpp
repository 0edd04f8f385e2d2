#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

/// \file checkpoint.hpp
/// The versioned, byte-deterministic checkpoint container every solver
/// serializes its state into (DESIGN.md §5.6).
///
/// A checkpoint is an ordered list of named sections, each an opaque byte
/// payload written through the typed SectionWriter API.  The serialized
/// layout is
///
///   "RPROCKPT"  8-byte magic
///   u32         schema version (kSchemaVersion)
///   u32         section count
///   per section:
///     u32  name length, name bytes
///     u64  payload length
///     u32  CRC-32 (IEEE) over name + payload
///     payload bytes
///
/// with every integer little-endian.  Serialization walks the sections in
/// insertion order, so two runs that reach the same state produce
/// byte-identical checkpoints — the property the restart tests compare.
/// Deserialization verifies the magic, the schema version, every length
/// field and every CRC before any payload is interpreted; a failure throws
/// ckpt::Error naming the offending section ("header" for the envelope), so
/// a truncated or bit-flipped file can never restart silently as garbage.
namespace ckpt {

/// Bump when the serialized layout of any section changes incompatibly.
/// v2: simmpi comm state gained the split() sequence number and per-event
/// communicator size/sibling fields.
/// v3: the solver "breakdown" section holds op counts only; per-stage fault,
/// retransmit and overlap records live in the simmpi comm state alone.
inline constexpr std::uint32_t kSchemaVersion = 3;

/// Any checkpoint format violation: truncation, CRC mismatch, schema-version
/// mismatch, a missing/duplicate section, or a typed read past a section's
/// end.  `section()` names where it happened ("header" for the envelope).
class Error : public std::runtime_error {
public:
    Error(std::string section, const std::string& what);
    [[nodiscard]] const std::string& section() const noexcept { return section_; }

private:
    std::string section_;
};

/// CRC-32 (IEEE 802.3 polynomial, reflected, table-driven).
[[nodiscard]] std::uint32_t crc32(std::span<const std::uint8_t> data) noexcept;

/// FNV-1a accumulator for the SolverOptions fingerprint stored in every
/// checkpoint: a stable hash of the solver kind and the numeric options that
/// define the state layout, so restore() can refuse a checkpoint taken under
/// a different configuration with a diagnostic instead of garbage fields.
class Fingerprint {
public:
    Fingerprint& add(std::string_view s) noexcept;
    Fingerprint& add(std::uint64_t v) noexcept;
    Fingerprint& add(double v) noexcept; ///< hashes the IEEE-754 bit pattern
    [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

private:
    std::uint64_t h_ = 0xcbf29ce484222325ull; // FNV-1a offset basis

    void mix(const std::uint8_t* p, std::size_t n) noexcept;
};

/// One named section under construction: typed little-endian appends.
class SectionWriter {
public:
    explicit SectionWriter(std::string name) : name_(std::move(name)) {}

    [[nodiscard]] const std::string& name() const noexcept { return name_; }
    [[nodiscard]] const std::vector<std::uint8_t>& bytes() const noexcept { return bytes_; }

    void u32(std::uint32_t v);
    void u64(std::uint64_t v);
    void i64(std::int64_t v); ///< two's-complement bit pattern of the u64
    void f64(double v);       ///< raw IEEE-754 bits (NaN payloads round-trip)
    void f64v(std::span<const double> v); ///< u64 length + raw doubles
    void str(std::string_view s);         ///< u64 length + bytes
    void raw(std::span<const std::uint8_t> data); ///< verbatim bytes, no length prefix

private:
    std::string name_;
    std::vector<std::uint8_t> bytes_;
};

/// Bounds-checked typed reads over one section's payload; every failure
/// throws Error naming the section.
class SectionReader {
public:
    SectionReader(std::string name, std::span<const std::uint8_t> bytes)
        : name_(std::move(name)), bytes_(bytes) {}

    [[nodiscard]] const std::string& name() const noexcept { return name_; }
    [[nodiscard]] std::size_t remaining() const noexcept { return bytes_.size() - pos_; }

    [[nodiscard]] std::uint32_t u32();
    [[nodiscard]] std::uint64_t u64();
    [[nodiscard]] std::int64_t i64();
    [[nodiscard]] double f64();
    [[nodiscard]] std::vector<double> f64v();
    [[nodiscard]] std::string str();

    /// Throws unless the payload was consumed exactly — a length drift
    /// between writer and reader is a schema bug, not data to ignore.
    void expect_end() const;

    [[noreturn]] void fail(const std::string& what) const;

private:
    std::string name_;
    std::span<const std::uint8_t> bytes_;
    std::size_t pos_ = 0;

    void need(std::size_t n, const char* what);
};

/// The ordered section container with file/byte round-trips.
class Checkpoint {
public:
    /// Appends a new section; duplicate names throw (the format requires
    /// unique names so open() is unambiguous).
    SectionWriter& add(std::string name);

    [[nodiscard]] bool has(std::string_view name) const noexcept;
    /// Reader over the named section; throws Error if absent.
    [[nodiscard]] SectionReader open(std::string_view name) const;
    [[nodiscard]] std::vector<std::string> section_names() const;

    [[nodiscard]] std::vector<std::uint8_t> serialize() const;
    [[nodiscard]] static Checkpoint deserialize(std::span<const std::uint8_t> bytes);

    void write_file(const std::string& path) const;
    [[nodiscard]] static Checkpoint read_file(const std::string& path);

private:
    std::vector<SectionWriter> sections_;
};

} // namespace ckpt
