// Minimal JSON reader for the repo's own machine-readable artifacts
// (BENCH_*.json, JSONL traces). Parses a byte string into a Value tree;
// objects keep insertion order. This is a reader for trusted,
// self-produced files — it rejects malformed input with
// ParseError but makes no attempt to be a hardened general-purpose
// parser (\uXXXX decodes only byte values 00..ff, the way
// obs::write_escaped writes them; numbers via strtod).
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace seed::minijson {

class ParseError : public std::runtime_error {
 public:
  ParseError(const std::string& what, std::size_t offset)
      : std::runtime_error(what), offset_(offset) {}
  std::size_t offset() const { return offset_; }

 private:
  std::size_t offset_;
};

class Value;
using Array = std::vector<Value>;
using Member = std::pair<std::string, Value>;

class Value {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Value() = default;

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool as_bool() const { return require(Kind::kBool), bool_; }
  double as_number() const { return require(Kind::kNumber), num_; }
  std::int64_t as_int() const {
    return static_cast<std::int64_t>(as_number());
  }
  const std::string& as_string() const {
    return require(Kind::kString), str_;
  }
  const Array& as_array() const { return require(Kind::kArray), *arr_; }
  const std::vector<Member>& members() const {
    return require(Kind::kObject), *obj_;
  }

  /// Object member lookup; nullptr when absent or not an object.
  const Value* find(std::string_view key) const;
  /// find() that throws ParseError when the key is missing.
  const Value& at(std::string_view key) const;

  // -- construction (used by the parser; callers normally only read).
  static Value make_null() { return Value(); }
  static Value make_bool(bool b);
  static Value make_number(double n);
  static Value make_string(std::string s);
  static Value make_array(Array a);
  static Value make_object(std::vector<Member> m);

 private:
  void require(Kind k) const {
    if (kind_ != k) throw ParseError("json value has wrong type", 0);
  }

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  std::shared_ptr<Array> arr_;
  std::shared_ptr<std::vector<Member>> obj_;
};

/// Parses exactly one JSON document (trailing whitespace allowed).
/// Throws ParseError on malformed input.
Value parse(std::string_view text);

}  // namespace seed::minijson
