#include "obs/json_write.hpp"

#include <cmath>
#include <cstdio>

namespace obs {

void append_json_string(std::string& out, std::string_view s) {
    for (const char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
}

void append_json_number(std::string& out, double v) {
    if (!std::isfinite(v)) {
        out += v > 0 ? "1e308" : (v < 0 ? "-1e308" : "0");
        return;
    }
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += buf;
}

} // namespace obs
