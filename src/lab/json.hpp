#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

/// \file json.hpp
/// A minimal JSON value type and recursive-descent parser for the cluster
/// lab: ScenarioRequest::parse() reads client requests with it, and the
/// advisor/daemon clients use it to pull numbers back out of served
/// RunReports.  Parsing only — serialization stays with the dedicated
/// canonical writers (ScenarioRequest::canonical_json, RunReport::to_json)
/// so their byte layouts remain the single source of truth.
namespace lab {

/// Any malformed request or wire payload: syntax errors, wrong types,
/// unknown fields.  what() names the offending token/field.
class ParseError : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

class Json;
using JsonObject = std::map<std::string, Json>;
using JsonArray = std::vector<Json>;

/// One parsed JSON value.  Numbers are doubles (the repo's reports and
/// requests never need 2^53-class integers); object keys are kept sorted by
/// std::map, which is exactly the canonical field order.
class Json {
public:
    enum class Kind { Null, Bool, Number, String, Array, Object };

    /// Deepest nest of arrays and objects parse() accepts: it recurses per
    /// level, and a 64 MiB lab frame of '[' must not overflow the stack.
    static constexpr std::size_t kMaxDepth = 256;

    Json() = default;
    static Json parse(const std::string& text); ///< throws ParseError

    [[nodiscard]] Kind kind() const noexcept { return kind_; }
    [[nodiscard]] bool is_object() const noexcept { return kind_ == Kind::Object; }
    [[nodiscard]] bool is_array() const noexcept { return kind_ == Kind::Array; }

    /// Typed accessors; each throws ParseError when the kind disagrees.
    [[nodiscard]] bool as_bool() const;
    [[nodiscard]] double as_number() const;
    [[nodiscard]] const std::string& as_string() const;
    [[nodiscard]] const JsonArray& as_array() const;
    [[nodiscard]] const JsonObject& as_object() const;

    /// Object member lookup; throws ParseError when absent or not an object.
    [[nodiscard]] const Json& at(const std::string& key) const;
    /// Object member lookup returning nullptr when absent.
    [[nodiscard]] const Json* find(const std::string& key) const;

private:
    friend class Parser;
    Kind kind_ = Kind::Null;
    bool bool_ = false;
    double num_ = 0.0;
    std::string str_;
    // Indirection keeps Json regular (map values) without recursive layout.
    std::shared_ptr<JsonArray> arr_;
    std::shared_ptr<JsonObject> obj_;
};

} // namespace lab
