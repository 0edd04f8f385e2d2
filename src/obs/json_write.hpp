#pragma once

#include <string>
#include <string_view>

/// \file json_write.hpp
/// The one JSON string escaper and number writer every document in the
/// stack goes through: RunReports (perf), canonical ScenarioRequests and
/// wire error frames (lab), and Chrome traces (obs).  It lives in obs, the
/// lowest library all of them link.
namespace obs {

/// Appends `s` to `out` as the body of a JSON string (no surrounding
/// quotes): `"` and `\` are backslash-escaped, newline and tab use their
/// short forms, and every other byte below 0x20 becomes `\u00xx`.
void append_json_string(std::string& out, std::string_view s);

/// Appends `v` as a JSON number in `%.17g`, which round-trips every finite
/// double.  JSON has no inf/nan, so non-finite values are clamped rather
/// than corrupting the document: +inf -> 1e308, -inf -> -1e308, nan -> 0.
void append_json_number(std::string& out, double v);

} // namespace obs
