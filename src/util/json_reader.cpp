#include "src/util/json_reader.h"

#include <cstdio>
#include <cstdlib>

#include "src/util/check.h"

namespace minuet {

bool JsonValue::AsBool() const {
  MINUET_CHECK(is_bool()) << "JSON value is not a bool";
  return std::get<bool>(value_);
}

double JsonValue::AsDouble() const {
  MINUET_CHECK(is_number()) << "JSON value is not a number";
  return std::get<double>(value_);
}

const std::string& JsonValue::AsString() const {
  MINUET_CHECK(is_string()) << "JSON value is not a string";
  return std::get<std::string>(value_);
}

const JsonValue::Array& JsonValue::AsArray() const {
  MINUET_CHECK(is_array()) << "JSON value is not an array";
  return std::get<Array>(value_);
}

const JsonValue::Object& JsonValue::AsObject() const {
  MINUET_CHECK(is_object()) << "JSON value is not an object";
  return std::get<Object>(value_);
}

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (!is_object()) {
    return nullptr;
  }
  const Object& object = std::get<Object>(value_);
  auto it = object.find(key);
  return it == object.end() ? nullptr : &it->second;
}

const JsonValue* JsonValue::FindPath(std::string_view path) const {
  const JsonValue* node = this;
  while (!path.empty() && node != nullptr) {
    size_t slash = path.find('/');
    std::string_view head = path.substr(0, slash);
    node = node->Find(std::string(head));
    path = slash == std::string_view::npos ? std::string_view{} : path.substr(slash + 1);
  }
  return node;
}

const JsonValue& JsonValue::at(size_t index) const {
  const Array& array = AsArray();
  MINUET_CHECK_LT(index, array.size());
  return array[index];
}

size_t JsonValue::size() const {
  if (is_array()) {
    return std::get<Array>(value_).size();
  }
  if (is_object()) {
    return std::get<Object>(value_).size();
  }
  return 0;
}

namespace {

const JsonValue* Member(const JsonValue* obj, const std::string& key) {
  return obj == nullptr ? nullptr : obj->Find(key);
}

}  // namespace

double NumberOr(const JsonValue* obj, const std::string& key, double fallback) {
  const JsonValue* v = Member(obj, key);
  return v != nullptr && v->is_number() ? v->AsDouble() : fallback;
}

int64_t IntOr(const JsonValue* obj, const std::string& key, int64_t fallback) {
  const JsonValue* v = Member(obj, key);
  return v != nullptr && v->is_number() ? static_cast<int64_t>(v->AsDouble()) : fallback;
}

bool BoolOr(const JsonValue* obj, const std::string& key, bool fallback) {
  const JsonValue* v = Member(obj, key);
  return v != nullptr && v->is_bool() ? v->AsBool() : fallback;
}

std::string StringOr(const JsonValue* obj, const std::string& key, std::string fallback) {
  const JsonValue* v = Member(obj, key);
  return v != nullptr && v->is_string() ? v->AsString() : std::move(fallback);
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  bool Parse(JsonValue* out, std::string* error) {
    bool ok = ParseValue(out);
    if (ok) {
      SkipWhitespace();
      if (pos_ != text_.size()) {
        ok = Fail("trailing content after top-level value");
      }
    }
    if (!ok && error != nullptr) {
      *error = error_;
    }
    return ok;
  }

 private:
  bool Fail(const std::string& what) {
    if (error_.empty()) {
      error_ = what + " at byte " + std::to_string(pos_);
    }
    return false;
  }

  void SkipWhitespace() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') {
        break;
      }
      ++pos_;
    }
  }

  bool Consume(char expected) {
    if (pos_ < text_.size() && text_[pos_] == expected) {
      ++pos_;
      return true;
    }
    return Fail(std::string("expected '") + expected + "'");
  }

  bool ConsumeKeyword(std::string_view keyword) {
    if (text_.substr(pos_, keyword.size()) != keyword) {
      return Fail("invalid literal");
    }
    pos_ += keyword.size();
    return true;
  }

  bool ParseValue(JsonValue* out) {
    SkipWhitespace();
    if (pos_ >= text_.size()) {
      return Fail("unexpected end of input");
    }
    switch (text_[pos_]) {
      case '{':
        return ParseObject(out);
      case '[':
        return ParseArray(out);
      case '"': {
        std::string s;
        if (!ParseString(&s)) {
          return false;
        }
        *out = JsonValue(std::move(s));
        return true;
      }
      case 't':
        *out = JsonValue(true);
        return ConsumeKeyword("true");
      case 'f':
        *out = JsonValue(false);
        return ConsumeKeyword("false");
      case 'n':
        *out = JsonValue(nullptr);
        return ConsumeKeyword("null");
      default:
        return ParseNumber(out);
    }
  }

  bool ParseObject(JsonValue* out) {
    Consume('{');
    JsonValue::Object object;
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      *out = JsonValue(std::move(object));
      return true;
    }
    while (true) {
      SkipWhitespace();
      std::string key;
      if (!ParseString(&key)) {
        return false;
      }
      SkipWhitespace();
      if (!Consume(':')) {
        return false;
      }
      JsonValue value;
      if (!ParseValue(&value)) {
        return false;
      }
      object.insert_or_assign(std::move(key), std::move(value));
      SkipWhitespace();
      if (pos_ >= text_.size()) {
        return Fail("unterminated object");
      }
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        *out = JsonValue(std::move(object));
        return true;
      }
      return Fail("expected ',' or '}' in object");
    }
  }

  bool ParseArray(JsonValue* out) {
    Consume('[');
    JsonValue::Array array;
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      *out = JsonValue(std::move(array));
      return true;
    }
    while (true) {
      JsonValue value;
      if (!ParseValue(&value)) {
        return false;
      }
      array.push_back(std::move(value));
      SkipWhitespace();
      if (pos_ >= text_.size()) {
        return Fail("unterminated array");
      }
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        *out = JsonValue(std::move(array));
        return true;
      }
      return Fail("expected ',' or ']' in array");
    }
  }

  bool ParseString(std::string* out) {
    if (!Consume('"')) {
      return false;
    }
    std::string s;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') {
        *out = std::move(s);
        return true;
      }
      if (c != '\\') {
        s += c;
        continue;
      }
      if (pos_ >= text_.size()) {
        break;
      }
      char esc = text_[pos_++];
      switch (esc) {
        case '"':
          s += '"';
          break;
        case '\\':
          s += '\\';
          break;
        case '/':
          s += '/';
          break;
        case 'b':
          s += '\b';
          break;
        case 'f':
          s += '\f';
          break;
        case 'n':
          s += '\n';
          break;
        case 'r':
          s += '\r';
          break;
        case 't':
          s += '\t';
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            return Fail("truncated \\u escape");
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Fail("bad hex digit in \\u escape");
            }
          }
          // UTF-8 encode the BMP code point (the writer only ever emits
          // \u00XX control characters; surrogate pairs are not recombined).
          if (code < 0x80) {
            s += static_cast<char>(code);
          } else if (code < 0x800) {
            s += static_cast<char>(0xC0 | (code >> 6));
            s += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            s += static_cast<char>(0xE0 | (code >> 12));
            s += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            s += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          return Fail("unknown escape sequence");
      }
    }
    return Fail("unterminated string");
  }

  bool ParseNumber(JsonValue* out) {
    size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') {
      ++pos_;
    }
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) {
      return Fail("expected a value");
    }
    std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) {
      pos_ = start;
      return Fail("malformed number");
    }
    *out = JsonValue(value);
    return true;
  }

  std::string_view text_;
  size_t pos_ = 0;
  std::string error_;
};

}  // namespace

bool ParseJson(std::string_view text, JsonValue* out, std::string* error) {
  return Parser(text).Parse(out, error);
}

bool ReadJsonFile(const std::string& path, JsonValue* out, std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    if (error != nullptr) {
      *error = "could not open " + path;
    }
    return false;
  }
  std::string text;
  char buf[1 << 16];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    text.append(buf, n);
  }
  bool read_ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!read_ok) {
    if (error != nullptr) {
      *error = "could not read " + path;
    }
    return false;
  }
  if (!ParseJson(text, out, error)) {
    if (error != nullptr) {
      *error = path + ": " + *error;
    }
    return false;
  }
  return true;
}

bool ParseJsonLines(std::string_view text, std::vector<JsonValue>* out, std::string* error) {
  out->clear();
  size_t line_no = 0;
  while (!text.empty()) {
    size_t newline = text.find('\n');
    std::string_view line = text.substr(0, newline);
    text = newline == std::string_view::npos ? std::string_view{} : text.substr(newline + 1);
    ++line_no;
    // Tolerate blank lines (a trailing newline is the normal JSONL ending).
    size_t content = line.find_first_not_of(" \t\r");
    if (content == std::string_view::npos) {
      continue;
    }
    JsonValue value;
    if (!ParseJson(line, &value, error)) {
      if (error != nullptr) {
        *error = "line " + std::to_string(line_no) + ": " + *error;
      }
      return false;
    }
    out->push_back(std::move(value));
  }
  return true;
}

bool ReadJsonLinesFile(const std::string& path, std::vector<JsonValue>* out,
                       std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    if (error != nullptr) {
      *error = "could not open " + path;
    }
    return false;
  }
  std::string text;
  char buf[1 << 16];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    text.append(buf, n);
  }
  bool read_ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!read_ok) {
    if (error != nullptr) {
      *error = "could not read " + path;
    }
    return false;
  }
  if (!ParseJsonLines(text, out, error)) {
    if (error != nullptr) {
      *error = path + ": " + *error;
    }
    return false;
  }
  return true;
}

}  // namespace minuet
