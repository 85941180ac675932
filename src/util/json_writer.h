// Minimal streaming JSON writer shared by the trace exporter, the metrics
// registry and the bench --json reporters.
//
// The writer tracks the container stack and inserts commas/quotes/escapes
// itself, so call sites read like the document they produce:
//
//   JsonWriter w;
//   w.BeginObject();
//   w.Key("name"); w.Value("gather");
//   w.Key("cycles"); w.Value(1234.5);
//   w.Key("rows"); w.BeginArray(); w.Value(1); w.Value(2); w.EndArray();
//   w.EndObject();
//   std::string json = w.TakeString();
//
// Doubles that are not finite (NaN/Inf have no JSON spelling) are emitted as
// null. No pretty-printing: consumers are `python3 -m json.tool`, Perfetto
// and diff tools, all of which re-format anyway.
#ifndef SRC_UTIL_JSON_WRITER_H_
#define SRC_UTIL_JSON_WRITER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace minuet {

class JsonWriter {
 public:
  JsonWriter() = default;

  void BeginObject();
  void EndObject();
  void BeginArray();
  void EndArray();

  // Object member key; must be followed by a value or container begin.
  void Key(std::string_view key);

  void Value(std::string_view value);
  void Value(const char* value) { Value(std::string_view(value)); }
  void Value(bool value);
  void Value(int64_t value);
  void Value(uint64_t value);
  void Value(int value) { Value(static_cast<int64_t>(value)); }
  void Value(double value);

  // Key + scalar in one call.
  template <typename T>
  void KV(std::string_view key, T value) {
    Key(key);
    Value(value);
  }

  // Splices an already-serialized JSON document in value position (e.g. a
  // MetricsRegistry snapshot embedded inside a larger report). The caller
  // vouches that `json` is one complete JSON value.
  void RawValue(std::string_view json);

  // True once every opened container has been closed.
  bool Complete() const { return stack_.empty() && started_; }

  // The document so far. Call after closing all containers.
  const std::string& str() const { return out_; }
  std::string TakeString() { return std::move(out_); }

  static std::string Escape(std::string_view raw);

 private:
  void Separate();  // comma bookkeeping before a value/key

  enum class Frame { kObject, kArray };
  std::string out_;
  std::vector<Frame> stack_;
  bool needs_comma_ = false;
  bool after_key_ = false;
  bool started_ = false;
};

// Writes `text` to `path`, replacing the file. False when the file cannot be
// opened, or when any byte fails to reach it (a full disk surfaces at fwrite
// or at fclose, so both are checked). Every artifact writer goes through here.
bool WriteTextFile(const std::string& path, std::string_view text);

}  // namespace minuet

#endif  // SRC_UTIL_JSON_WRITER_H_
