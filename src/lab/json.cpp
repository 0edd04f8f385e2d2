#include "lab/json.hpp"

#include <cctype>
#include <cstdlib>

namespace lab {

namespace {

[[noreturn]] void fail(const std::string& what, std::size_t pos) {
    throw ParseError(what + " at byte " + std::to_string(pos));
}

} // namespace

class Parser {
public:
    explicit Parser(const std::string& text) : s_(text) {}

    Json run() {
        Json v = value(0);
        skip_ws();
        if (pos_ != s_.size()) fail("trailing garbage after JSON value", pos_);
        return v;
    }

private:
    const std::string& s_;
    std::size_t pos_ = 0;

    void skip_ws() {
        while (pos_ < s_.size() &&
               (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' || s_[pos_] == '\r'))
            ++pos_;
    }

    char peek() {
        if (pos_ >= s_.size()) fail("unexpected end of input", pos_);
        return s_[pos_];
    }

    void expect(char c) {
        if (peek() != c) fail(std::string("expected '") + c + "', got '" + s_[pos_] + "'", pos_);
        ++pos_;
    }

    bool literal(const char* word) {
        std::size_t n = 0;
        while (word[n] != '\0') ++n;
        if (s_.compare(pos_, n, word) != 0) return false;
        pos_ += n;
        return true;
    }

    /// One value inside `depth` open arrays and objects.
    Json value(std::size_t depth) {
        skip_ws();
        const char c = peek();
        if ((c == '{' || c == '[') && depth == Json::kMaxDepth)
            fail("nesting deeper than " + std::to_string(Json::kMaxDepth) + " levels", pos_);
        Json v;
        switch (c) {
        case '{': {
            v.kind_ = Json::Kind::Object;
            v.obj_ = std::make_shared<JsonObject>();
            ++pos_;
            skip_ws();
            if (peek() == '}') { ++pos_; return v; }
            for (;;) {
                skip_ws();
                const std::string key = string_body();
                skip_ws();
                expect(':');
                if (!v.obj_->emplace(key, value(depth + 1)).second)
                    throw ParseError("duplicate object key \"" + key + "\"");
                skip_ws();
                if (peek() == ',') { ++pos_; continue; }
                expect('}');
                return v;
            }
        }
        case '[': {
            v.kind_ = Json::Kind::Array;
            v.arr_ = std::make_shared<JsonArray>();
            ++pos_;
            skip_ws();
            if (peek() == ']') { ++pos_; return v; }
            for (;;) {
                v.arr_->push_back(value(depth + 1));
                skip_ws();
                if (peek() == ',') { ++pos_; continue; }
                expect(']');
                return v;
            }
        }
        case '"':
            v.kind_ = Json::Kind::String;
            v.str_ = string_body();
            return v;
        case 't':
            if (!literal("true")) fail("bad literal", pos_);
            v.kind_ = Json::Kind::Bool;
            v.bool_ = true;
            return v;
        case 'f':
            if (!literal("false")) fail("bad literal", pos_);
            v.kind_ = Json::Kind::Bool;
            v.bool_ = false;
            return v;
        case 'n':
            if (!literal("null")) fail("bad literal", pos_);
            v.kind_ = Json::Kind::Null;
            return v;
        default:
            return number();
        }
    }

    std::string string_body() {
        expect('"');
        std::string out;
        for (;;) {
            if (pos_ >= s_.size()) fail("unterminated string", pos_);
            const char c = s_[pos_++];
            if (c == '"') return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= s_.size()) fail("unterminated escape", pos_);
            const char e = s_[pos_++];
            switch (e) {
            case '"': out += '"'; break;
            case '\\': out += '\\'; break;
            case '/': out += '/'; break;
            case 'b': out += '\b'; break;
            case 'f': out += '\f'; break;
            case 'n': out += '\n'; break;
            case 'r': out += '\r'; break;
            case 't': out += '\t'; break;
            case 'u': {
                if (pos_ + 4 > s_.size()) fail("truncated \\u escape", pos_);
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = s_[pos_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
                    else fail("bad \\u escape digit", pos_ - 1);
                }
                // UTF-8 encode the BMP code point (the repo's writers only
                // ever emit \u00xx control escapes; surrogates unsupported).
                if (code < 0x80) {
                    out += static_cast<char>(code);
                } else if (code < 0x800) {
                    out += static_cast<char>(0xC0 | (code >> 6));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                } else {
                    out += static_cast<char>(0xE0 | (code >> 12));
                    out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
                    out += static_cast<char>(0x80 | (code & 0x3F));
                }
                break;
            }
            default: fail("unknown escape", pos_ - 1);
            }
        }
    }

    Json number() {
        const std::size_t start = pos_;
        if (peek() == '-') ++pos_;
        while (pos_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 || s_[pos_] == '.' ||
                s_[pos_] == 'e' || s_[pos_] == 'E' || s_[pos_] == '+' || s_[pos_] == '-'))
            ++pos_;
        if (pos_ == start || (pos_ == start + 1 && s_[start] == '-'))
            fail("expected a JSON value", start);
        const std::string tok = s_.substr(start, pos_ - start);
        char* end = nullptr;
        const double d = std::strtod(tok.c_str(), &end);
        if (end == nullptr || *end != '\0') fail("malformed number \"" + tok + "\"", start);
        Json v;
        v.kind_ = Json::Kind::Number;
        v.num_ = d;
        return v;
    }
};

Json Json::parse(const std::string& text) { return Parser(text).run(); }

bool Json::as_bool() const {
    if (kind_ != Kind::Bool) throw ParseError("expected a boolean");
    return bool_;
}

double Json::as_number() const {
    if (kind_ != Kind::Number) throw ParseError("expected a number");
    return num_;
}

const std::string& Json::as_string() const {
    if (kind_ != Kind::String) throw ParseError("expected a string");
    return str_;
}

const JsonArray& Json::as_array() const {
    if (kind_ != Kind::Array) throw ParseError("expected an array");
    return *arr_;
}

const JsonObject& Json::as_object() const {
    if (kind_ != Kind::Object) throw ParseError("expected an object");
    return *obj_;
}

const Json& Json::at(const std::string& key) const {
    const Json* v = find(key);
    if (v == nullptr) throw ParseError("missing key \"" + key + "\"");
    return *v;
}

const Json* Json::find(const std::string& key) const {
    if (kind_ != Kind::Object) throw ParseError("expected an object for key \"" + key + "\"");
    const auto it = obj_->find(key);
    return it == obj_->end() ? nullptr : &it->second;
}

} // namespace lab
