#include "src/obs/log.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/obs/trace.h"
#include "src/util/sync.h"

namespace rgae {
namespace obs {

namespace {

LogLevel ParseLevel(const char* text, LogLevel fallback) {
  if (text == nullptr) return fallback;
  if (std::strcmp(text, "debug") == 0) return LogLevel::kDebug;
  if (std::strcmp(text, "info") == 0) return LogLevel::kInfo;
  if (std::strcmp(text, "warn") == 0) return LogLevel::kWarn;
  if (std::strcmp(text, "error") == 0) return LogLevel::kError;
  if (std::strcmp(text, "off") == 0) return LogLevel::kOff;
  return fallback;
}

struct LoggerState {
  std::atomic<int> level;
  std::atomic<bool> stderr_enabled{true};
  Mutex sink_mu;
  std::FILE* jsonl RGAE_GUARDED_BY(sink_mu) = nullptr;

  LoggerState()
      : level(static_cast<int>(
            ParseLevel(std::getenv("RGAE_LOG_LEVEL"), LogLevel::kInfo))) {
    const char* path = std::getenv("RGAE_LOG_JSONL");
    if (path != nullptr && path[0] != '\0') jsonl = std::fopen(path, "a");
  }
};

LoggerState& State() {
  static LoggerState* state = new LoggerState();  // Never dies.
  return *state;
}

}  // namespace

const char* LogLevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "debug";
    case LogLevel::kInfo: return "info";
    case LogLevel::kWarn: return "warn";
    case LogLevel::kError: return "error";
    case LogLevel::kOff: return "off";
  }
  return "?";
}

bool LogLevelEnabled(LogLevel level) {
  return static_cast<int>(level) >=
         State().level.load(std::memory_order_relaxed);
}

void SetLogLevel(LogLevel level) {
  State().level.store(static_cast<int>(level), std::memory_order_relaxed);
}

LogLevel GetLogLevel() {
  return static_cast<LogLevel>(State().level.load(std::memory_order_relaxed));
}

bool SetLogJsonlPath(const std::string& path) {
  LoggerState& s = State();
  MutexLock lock(s.sink_mu);
  if (s.jsonl != nullptr) {
    std::fclose(s.jsonl);
    s.jsonl = nullptr;
  }
  if (path.empty()) return true;
  s.jsonl = std::fopen(path.c_str(), "a");
  return s.jsonl != nullptr;
}

void SetLogStderr(bool enabled) {
  State().stderr_enabled.store(enabled, std::memory_order_relaxed);
}

LogRecord::LogRecord(LogLevel level)
    : level_(level), fields_(JsonValue::MakeObject()) {}

LogRecord& LogRecord::Event(const std::string& name) {
  fields_.Set("event", JsonValue(name));
  return *this;
}

LogRecord& LogRecord::Field(const std::string& key, const std::string& value) {
  fields_.Set(key, JsonValue(value));
  return *this;
}
LogRecord& LogRecord::Field(const std::string& key, const char* value) {
  fields_.Set(key, JsonValue(value));
  return *this;
}
LogRecord& LogRecord::Field(const std::string& key, double value) {
  fields_.Set(key, JsonValue(value));
  return *this;
}
LogRecord& LogRecord::Field(const std::string& key, int value) {
  fields_.Set(key, JsonValue(value));
  return *this;
}
LogRecord& LogRecord::Field(const std::string& key, long value) {
  fields_.Set(key, JsonValue(value));
  return *this;
}
LogRecord& LogRecord::Field(const std::string& key, long long value) {
  fields_.Set(key, JsonValue(value));
  return *this;
}
LogRecord& LogRecord::Field(const std::string& key, unsigned long value) {
  fields_.Set(key, JsonValue(static_cast<unsigned long long>(value)));
  return *this;
}
LogRecord& LogRecord::Field(const std::string& key, unsigned long long value) {
  fields_.Set(key, JsonValue(value));
  return *this;
}
LogRecord& LogRecord::Field(const std::string& key, bool value) {
  fields_.Set(key, JsonValue(value));
  return *this;
}

LogRecord& LogRecord::Msg(const std::string& text) {
  fields_.Set("msg", JsonValue(text));
  return *this;
}

LogRecord::~LogRecord() {
  LoggerState& s = State();

  if (s.stderr_enabled.load(std::memory_order_relaxed)) {
    std::string line = "[";
    line += LogLevelName(level_);
    line += "]";
    const JsonValue* event = fields_.Get("event");
    if (event != nullptr && event->is_string()) {
      line += " " + event->string();
    }
    for (const auto& [key, value] : fields_.entries()) {
      if (key == "event") continue;
      line += " " + key + "=";
      // Bare rendering for scalars; strings are quoted only when they
      // contain spaces, keeping the key=value grep-able.
      if (value.is_string() &&
          value.string().find_first_of(" \t\n\"") == std::string::npos) {
        line += value.string();
      } else {
        line += value.Dump();
      }
    }
    line += "\n";
    std::fwrite(line.data(), 1, line.size(), stderr);
    std::fflush(stderr);
  }

  MutexLock lock(s.sink_mu);
  if (s.jsonl != nullptr) {
    JsonValue record = JsonValue::MakeObject();
    record.Set("ts_us", JsonValue(NowMicros()));
    record.Set("level", JsonValue(LogLevelName(level_)));
    for (const auto& [key, value] : fields_.entries()) {
      record.Set(key, value);
    }
    const std::string line = record.Dump() + "\n";
    std::fwrite(line.data(), 1, line.size(), s.jsonl);
    std::fflush(s.jsonl);
  }
}

}  // namespace obs
}  // namespace rgae
