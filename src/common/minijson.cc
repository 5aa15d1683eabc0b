#include "common/minijson.h"

#include <algorithm>
#include <charconv>
#include <cstdlib>

namespace seed::minijson {

Value Value::make_bool(bool b) {
  Value v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

Value Value::make_number(double n) {
  Value v;
  v.kind_ = Kind::kNumber;
  v.num_ = n;
  return v;
}

Value Value::make_string(std::string s) {
  Value v;
  v.kind_ = Kind::kString;
  v.str_ = std::move(s);
  return v;
}

Value Value::make_array(Array a) {
  Value v;
  v.kind_ = Kind::kArray;
  v.arr_ = std::make_shared<Array>(std::move(a));
  return v;
}

Value Value::make_object(std::vector<Member> m) {
  Value v;
  v.kind_ = Kind::kObject;
  v.obj_ = std::make_shared<std::vector<Member>>(std::move(m));
  return v;
}

const Value* Value::find(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const Member& m : *obj_) {
    if (m.first == key) return &m.second;
  }
  return nullptr;
}

const Value& Value::at(std::string_view key) const {
  const Value* v = find(key);
  if (v == nullptr) {
    throw ParseError("missing json key: " + std::string(key), 0);
  }
  return *v;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value parse_document() {
    Value v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw ParseError(what, pos_);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_word(std::string_view w) {
    if (text_.substr(pos_, w.size()) != w) return false;
    pos_ += w.size();
    return true;
  }

  Value parse_value() {
    skip_ws();
    switch (peek()) {
      case '{':
        return parse_object();
      case '[':
        return parse_array();
      case '"':
        return Value::make_string(parse_string());
      case 't':
        if (consume_word("true")) return Value::make_bool(true);
        fail("bad literal");
      case 'f':
        if (consume_word("false")) return Value::make_bool(false);
        fail("bad literal");
      case 'n':
        if (consume_word("null")) return Value::make_null();
        fail("bad literal");
      default:
        return parse_number();
    }
  }

  Value parse_object() {
    expect('{');
    std::vector<Member> members;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Value::make_object(std::move(members));
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      members.emplace_back(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return Value::make_object(std::move(members));
    }
  }

  Value parse_array() {
    expect('[');
    Array items;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Value::make_array(std::move(items));
    }
    for (;;) {
      items.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return Value::make_array(std::move(items));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': out.push_back(parse_byte_escape()); break;
        default: fail("unsupported escape");
      }
    }
  }

  // \u00XX as obs::write_escaped emits it: one raw byte. Code points
  // above 0xff never occur in the repo's own files and are rejected.
  char parse_byte_escape() {
    const char* first = text_.data() + pos_;
    const char* last = first + std::min<std::size_t>(4, text_.size() - pos_);
    unsigned value = 0;
    const auto [end, ec] = std::from_chars(first, last, value, 16);
    if (ec != std::errc() || end != first + 4) fail("malformed \\u escape");
    if (value > 0xff) fail("unsupported \\u escape above 0xff");
    pos_ += 4;
    return static_cast<char>(value);
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
          c == '+' || c == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) fail("expected a value");
    const std::string num(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double v = std::strtod(num.c_str(), &end);
    if (end == nullptr || *end != '\0') fail("malformed number");
    return Value::make_number(v);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

Value parse(std::string_view text) { return Parser(text).parse_document(); }

}  // namespace seed::minijson
