// Minimal JSON parser — the read side of src/util/json_writer.
//
// The observability stack writes three artifact kinds (metrics snapshots,
// Chrome traces, bench reports); minuet_prof and the bench-baseline gate need
// to read them back. This is a strict recursive-descent parser over the JSON
// the writer emits (RFC 8259 minus \uXXXX surrogate pairs beyond the BMP):
// numbers become double (exact for the int64 counters the registry writes up
// to 2^53), null is preserved (the writer's spelling of NaN/Inf), and object
// member order is not preserved (members are stored in a sorted map, which is
// all the consumers need).
//
//   JsonValue doc;
//   std::string error;
//   if (!ParseJson(text, &doc, &error)) { ... }
//   const JsonValue* rows = doc.Find("rows");
//   double ms = rows->at(0).Find("gemm_ms")->AsDouble();
#ifndef SRC_UTIL_JSON_READER_H_
#define SRC_UTIL_JSON_READER_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace minuet {

class JsonValue {
 public:
  using Array = std::vector<JsonValue>;
  using Object = std::map<std::string, JsonValue>;

  JsonValue() : value_(nullptr) {}
  explicit JsonValue(std::nullptr_t) : value_(nullptr) {}
  explicit JsonValue(bool value) : value_(value) {}
  explicit JsonValue(double value) : value_(value) {}
  explicit JsonValue(std::string value) : value_(std::move(value)) {}
  explicit JsonValue(Array value) : value_(std::move(value)) {}
  explicit JsonValue(Object value) : value_(std::move(value)) {}

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(value_); }
  bool is_bool() const { return std::holds_alternative<bool>(value_); }
  bool is_number() const { return std::holds_alternative<double>(value_); }
  bool is_string() const { return std::holds_alternative<std::string>(value_); }
  bool is_array() const { return std::holds_alternative<Array>(value_); }
  bool is_object() const { return std::holds_alternative<Object>(value_); }

  // Typed accessors. The checked forms die on a type mismatch; the Or forms
  // return the fallback (also used for null, so a JSON null ratio reads back
  // as the caller's chosen default).
  bool AsBool() const;
  double AsDouble() const;
  const std::string& AsString() const;
  const Array& AsArray() const;
  const Object& AsObject() const;
  double DoubleOr(double fallback) const { return is_number() ? AsDouble() : fallback; }
  std::string StringOr(std::string fallback) const {
    return is_string() ? AsString() : std::move(fallback);
  }

  // Deep equality: same type and equal contents; numbers compare with ==.
  bool operator==(const JsonValue& other) const { return value_ == other.value_; }

  // Object member lookup; nullptr when absent or not an object.
  const JsonValue* Find(const std::string& key) const;
  // Slash-separated nested lookup: Find("meta") then Find("points").
  const JsonValue* FindPath(std::string_view path) const;

  // Array element access (checked).
  const JsonValue& at(size_t index) const;
  size_t size() const;  // array/object element count, 0 otherwise

 private:
  std::variant<std::nullptr_t, bool, double, std::string, Array, Object> value_;
};

// Find-key-or-fallback: member `key` of `obj` read as the named type, or
// `fallback` when `obj` is null or not an object, or the member is absent or
// of another type (JSON null included). IntOr truncates the number toward 0.
double NumberOr(const JsonValue* obj, const std::string& key, double fallback);
int64_t IntOr(const JsonValue* obj, const std::string& key, int64_t fallback);
bool BoolOr(const JsonValue* obj, const std::string& key, bool fallback);
std::string StringOr(const JsonValue* obj, const std::string& key, std::string fallback = "");

// Parses `text` into `*out`. On failure returns false and, when `error` is
// non-null, stores a message with the byte offset of the problem. Trailing
// non-whitespace after the top-level value is an error.
bool ParseJson(std::string_view text, JsonValue* out, std::string* error = nullptr);

// Reads and parses a whole file. False on I/O or parse failure.
bool ReadJsonFile(const std::string& path, JsonValue* out, std::string* error = nullptr);

// JSONL: one JSON value per line, blank lines skipped. Used for the timeline
// artifacts written by minuet_serve --timeline (src/trace/timeseries). Errors
// carry the 1-based line number of the offending line.
bool ParseJsonLines(std::string_view text, std::vector<JsonValue>* out,
                    std::string* error = nullptr);
bool ReadJsonLinesFile(const std::string& path, std::vector<JsonValue>* out,
                       std::string* error = nullptr);

}  // namespace minuet

#endif  // SRC_UTIL_JSON_READER_H_
