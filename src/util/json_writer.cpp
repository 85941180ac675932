#include "src/util/json_writer.h"

#include <cmath>
#include <cstdio>

namespace minuet {

std::string JsonWriter::Escape(std::string_view raw) {
  std::string out;
  out.reserve(raw.size() + 2);
  for (char c : raw) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void JsonWriter::Separate() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (needs_comma_) {
    out_ += ',';
  }
  needs_comma_ = true;
}

void JsonWriter::BeginObject() {
  Separate();
  out_ += '{';
  stack_.push_back(Frame::kObject);
  needs_comma_ = false;
  started_ = true;
}

void JsonWriter::EndObject() {
  out_ += '}';
  stack_.pop_back();
  needs_comma_ = true;
}

void JsonWriter::BeginArray() {
  Separate();
  out_ += '[';
  stack_.push_back(Frame::kArray);
  needs_comma_ = false;
  started_ = true;
}

void JsonWriter::EndArray() {
  out_ += ']';
  stack_.pop_back();
  needs_comma_ = true;
}

void JsonWriter::Key(std::string_view key) {
  Separate();
  out_ += '"';
  out_ += Escape(key);
  out_ += "\":";
  after_key_ = true;
}

void JsonWriter::Value(std::string_view value) {
  Separate();
  out_ += '"';
  out_ += Escape(value);
  out_ += '"';
}

void JsonWriter::Value(bool value) {
  Separate();
  out_ += value ? "true" : "false";
}

void JsonWriter::Value(int64_t value) {
  Separate();
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(value));
  out_ += buf;
}

void JsonWriter::Value(uint64_t value) {
  Separate();
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(value));
  out_ += buf;
}

void JsonWriter::RawValue(std::string_view json) {
  Separate();
  out_ += json;
  started_ = true;
}

void JsonWriter::Value(double value) {
  Separate();
  if (!std::isfinite(value)) {
    out_ += "null";  // NaN/Inf have no JSON spelling
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  out_ += buf;
}

bool WriteTextFile(const std::string& path, std::string_view text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const size_t written = std::fwrite(text.data(), 1, text.size(), f);
  bool ok = written == text.size();
  ok = std::fclose(f) == 0 && ok;
  return ok;
}

}  // namespace minuet
