#pragma once

#include <cstdint>
#include <string>
#include <vector>

/// \file scenario.hpp
/// The canonical `lab::ScenarioRequest`: ONE versioned value type that
/// describes a run — machine x network x solver x P x fault profile x
/// backend — and is the single way clients, benches and the cluster-lab
/// service talk about one (DESIGN.md §5.9).
///
/// Canonicalisation contract:
///   * `canonical_json()` emits every field, in sorted key order, with a
///     fixed numeric format — two requests describing the same run always
///     serialize to the same bytes, regardless of how they were built.
///   * `parse()` accepts the fields in any order, fills defaults for absent
///     ones, and REJECTS unknown fields, wrong types and out-of-range enum
///     values with a lab::ParseError naming the offender.  parse() then
///     canonical_json() is therefore a normalising round trip.
///   * `fingerprint()` is FNV-1a over the canonical bytes; `store_key()` is
///     its 16-hex-digit rendering.  Because served RunReports are
///     byte-deterministic functions of the request (PR 5/6), the key is a
///     perfect memoisation key for the RunReport store.
namespace lab {

struct ScenarioRequest {
    /// Bump when a field changes meaning or serialization incompatibly.
    static constexpr int kSchemaVersion = 1;

    std::string bench;     ///< requesting tool/bench id ("" = ad-hoc query)
    std::string machine;   ///< machine::by_name key; for bench sweeps a
                           ///< substring filter ("" = all machines)
    std::string net;       ///< netsim::by_name key / sweep filter ("" = all)
    int ranks = 0;         ///< processor count P (0 = the bench's default sweep)
    std::uint64_t seed = 0;   ///< fault-model / synthetic-input seed
    bool smoke = false;       ///< CI-sized sweep
    std::string solver;    ///< "" | "serial" | "fourier" | "ale"
    std::string fidelity = "model"; ///< "model" (analytic) | "measured" (probe run)
    std::string backend;   ///< "" | "dense" | "sumfact" compute backend
    std::string fault;     ///< named fault profile (fault_profiles.hpp; "" = clean)
    std::string transpose; ///< "" | "slab" | "pencil" (fourier decomposition)
    double dof_per_rank = 0.0; ///< problem size per processor (0 = default)
    int steps = 0;         ///< steady time steps for measured fidelity (0 = default)

    /// Canonical JSON encoding: one object, all fields present, keys sorted.
    [[nodiscard]] std::string canonical_json() const;

    /// FNV-1a (64-bit) over canonical_json().
    [[nodiscard]] std::uint64_t fingerprint() const;

    /// fingerprint() as 16 lowercase hex digits — the RunReport store key.
    [[nodiscard]] std::string store_key() const;

    /// Parses a request from JSON text (any field order; absent fields keep
    /// their defaults).  Throws lab::ParseError on syntax errors, unknown
    /// fields, wrong types, or values validate() rejects.
    [[nodiscard]] static ScenarioRequest parse(const std::string& json);

    /// Throws lab::ParseError unless every enum-like field holds one of its
    /// documented values and every count is non-negative.
    void validate() const;

    /// Sweep-filter semantics shared by every bench: true when the filter
    /// field is empty or `name` contains it as a substring.
    [[nodiscard]] bool selects_machine(const std::string& name) const {
        return machine.empty() || name.find(machine) != std::string::npos;
    }
    [[nodiscard]] bool selects_net(const std::string& name) const {
        return net.empty() || name.find(net) != std::string::npos;
    }

    /// Processor-count sweep after the `ranks` restriction (ranks > 0 pins
    /// the sweep to exactly that P).
    [[nodiscard]] std::vector<int> rank_sweep(std::vector<int> defaults) const {
        if (ranks > 0) return {ranks};
        return defaults;
    }

    bool operator==(const ScenarioRequest&) const = default;
};

} // namespace lab
