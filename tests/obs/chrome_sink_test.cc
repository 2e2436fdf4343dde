#include "obs/chrome_sink.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/stark.h"
#include "trace/wiki.h"

namespace stark::obs {
namespace {

// --- Minimal JSON parser -----------------------------------------------------
//
// Just enough JSON (objects, arrays, strings, numbers, literals) to validate
// the sink's output structurally. Throws std::runtime_error on any syntax
// error, so a malformed trace fails the test loudly.

struct JsonValue {
  enum Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  const JsonValue& at(const std::string& key) const {
    const auto it = object.find(key);
    if (type != kObject || it == object.end()) {
      throw std::runtime_error("missing key: " + key);
    }
    return it->second;
  }
  bool has(const std::string& key) const {
    return type == kObject && object.count(key) > 0;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error(std::string("JSON error at offset ")
                                 .append(std::to_string(pos_))
                                 .append(": ")
                                 .append(what));
  }
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' || text_[pos_] == '\t' ||
            text_[pos_] == '\r')) {
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

  JsonValue value() {
    skip_ws();
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true", {JsonValue::kBool, true});
      case 'f': return literal("false", {JsonValue::kBool, false});
      case 'n': return literal("null", {});
      default: return number();
    }
  }

  JsonValue literal(const std::string& word, JsonValue v) {
    if (text_.compare(pos_, word.size(), word) != 0) fail("bad literal");
    pos_ += word.size();
    return v;
  }

  JsonValue object() {
    expect('{');
    JsonValue v;
    v.type = JsonValue::kObject;
    skip_ws();
    if (peek() == '}') { ++pos_; return v; }
    while (true) {
      skip_ws();
      JsonValue key = string();
      skip_ws();
      expect(':');
      v.object[key.str] = value();
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      expect('}');
      return v;
    }
  }

  JsonValue array() {
    expect('[');
    JsonValue v;
    v.type = JsonValue::kArray;
    skip_ws();
    if (peek() == ']') { ++pos_; return v; }
    while (true) {
      v.array.push_back(value());
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      expect(']');
      return v;
    }
  }

  JsonValue string() {
    expect('"');
    JsonValue v;
    v.type = JsonValue::kString;
    while (peek() != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        const char esc = peek();
        ++pos_;
        switch (esc) {
          case '"': v.str += '"'; break;
          case '\\': v.str += '\\'; break;
          case '/': v.str += '/'; break;
          case 'n': v.str += '\n'; break;
          case 't': v.str += '\t'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) fail("bad \\u escape");
            const unsigned code = static_cast<unsigned>(
                std::strtoul(text_.substr(pos_, 4).c_str(), nullptr, 16));
            pos_ += 4;
            v.str += code < 0x80 ? static_cast<char>(code) : '?';
            break;
          }
          default: fail("unknown escape");
        }
      } else {
        v.str += c;
      }
    }
    ++pos_;  // closing quote
    return v;
  }

  JsonValue number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    JsonValue v;
    v.type = JsonValue::kNumber;
    v.number = std::strtod(text_.substr(start, pos_ - start).c_str(), nullptr);
    return v;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

// --- Helpers -----------------------------------------------------------------

TraceEvent span(TraceKind kind, SimTime t0, SimTime t1) {
  TraceEvent e;
  e.kind = kind;
  e.t0 = t0;
  e.t1 = t1;
  return e;
}

int count_events(const JsonValue& doc, const std::string& ph,
                 const std::string& cat) {
  int n = 0;
  for (const JsonValue& e : doc.at("traceEvents").array) {
    if (e.at("ph").str != ph) continue;
    if (!cat.empty() && (!e.has("cat") || e.at("cat").str != cat)) continue;
    ++n;
  }
  return n;
}

// --- Synthetic-event structure tests -----------------------------------------

TEST(ChromeTraceSink, EmptyTraceIsValidJson) {
  ChromeTraceSink sink;
  const JsonValue doc = JsonParser(sink.to_json()).parse();
  EXPECT_EQ(doc.at("displayTimeUnit").str, "ms");
  // Only the driver's metadata records: no spans, no instants.
  for (const JsonValue& e : doc.at("traceEvents").array) {
    EXPECT_EQ(e.at("ph").str, "M");
    EXPECT_EQ(e.at("pid").number, 0);
  }
}

TEST(ChromeTraceSink, RendersSpansInstantsAndMetadata) {
  ChromeTraceSink sink;
  // One complete job with one stage and two tasks on server 0.
  TraceEvent js = span(TraceKind::kJobSubmit, 0.0, 0.0);
  js.job = 0;
  sink.on_event(js);
  TraceEvent ss = span(TraceKind::kStageSubmit, 0.1, 0.1);
  ss.job = 0;
  ss.stage = 0;
  sink.on_event(ss);
  for (int i = 0; i < 2; ++i) {
    TraceEvent tf = span(TraceKind::kTaskFinish, 0.2, 1.0 + i);
    tf.job = 0;
    tf.stage = 0;
    tf.task_index = i;
    tf.server = 0;
    tf.phases.compute = 0.5;
    sink.on_event(tf);
  }
  TraceEvent blk = span(TraceKind::kBlockInsert, 0.9, 0.9);
  blk.server = 0;
  blk.dataset = 3;
  blk.partition = 1;
  blk.bytes = 1024.0;
  sink.on_event(blk);
  TraceEvent sc = span(TraceKind::kStageComplete, 2.0, 2.0);
  sc.job = 0;
  sc.stage = 0;
  sink.on_event(sc);
  TraceEvent jf = span(TraceKind::kJobFinish, 2.1, 2.1);
  jf.job = 0;
  jf.flags = kFlagCompleted;
  sink.on_event(jf);
  // A second job left open: must still render (as "[unfinished]").
  TraceEvent js2 = span(TraceKind::kJobSubmit, 2.5, 2.5);
  js2.job = 1;
  sink.on_event(js2);

  EXPECT_EQ(sink.task_span_count(), 2u);
  const JsonValue doc = JsonParser(sink.to_json()).parse();

  EXPECT_EQ(count_events(doc, "X", "task"), 2);
  EXPECT_EQ(count_events(doc, "X", "stage"), 1);
  EXPECT_EQ(count_events(doc, "X", "job"), 2);  // finished + unfinished
  EXPECT_EQ(count_events(doc, "i", "block"), 1);
  EXPECT_GE(count_events(doc, "M", ""), 2);  // driver + server 0 metadata

  bool saw_driver = false, saw_server = false, saw_unfinished = false;
  for (const JsonValue& e : doc.at("traceEvents").array) {
    if (e.at("ph").str == "M" && e.at("name").str == "process_name") {
      const std::string& pname = e.at("args").at("name").str;
      if (pname == "driver") saw_driver = true;
      if (pname == "server 0") saw_server = true;
      // Servers are 1-based pids; the driver owns pid 0.
      EXPECT_EQ(e.at("pid").number, pname == "driver" ? 0 : 1);
    }
    if (e.at("ph").str == "X" && e.at("cat").str == "task") {
      // Simulated seconds map to microseconds.
      EXPECT_NEAR(e.at("ts").number, 0.2 * 1e6, 1.0);
      EXPECT_EQ(e.at("args").at("job").number, 0);
      EXPECT_GE(e.at("args").at("compute_s").number, 0.5);
    }
    if (e.at("ph").str == "X" && e.at("cat").str == "job" &&
        e.at("name").str.find("[unfinished]") != std::string::npos) {
      saw_unfinished = true;
    }
  }
  EXPECT_TRUE(saw_driver);
  EXPECT_TRUE(saw_server);
  EXPECT_TRUE(saw_unfinished);
}

TEST(ChromeTraceSink, ConcurrentTasksGetDistinctLanes) {
  ChromeTraceSink sink;
  // Three overlapping tasks on one server: lanes 0, 1, 2. A fourth after
  // they end reuses lane 0.
  const double ends[] = {5.0, 6.0, 7.0};
  for (int i = 0; i < 3; ++i) {
    TraceEvent tf = span(TraceKind::kTaskFinish, 1.0, ends[i]);
    tf.job = 0;
    tf.stage = 0;
    tf.task_index = i;
    tf.server = 2;
    sink.on_event(tf);
  }
  TraceEvent late = span(TraceKind::kTaskFinish, 8.0, 9.0);
  late.job = 0;
  late.stage = 0;
  late.task_index = 3;
  late.server = 2;
  sink.on_event(late);

  const JsonValue doc = JsonParser(sink.to_json()).parse();
  std::map<int, int> tasks_per_tid;
  for (const JsonValue& e : doc.at("traceEvents").array) {
    if (e.at("ph").str == "X" && e.at("cat").str == "task") {
      EXPECT_EQ(e.at("pid").number, 3);  // server 2 -> pid 3
      ++tasks_per_tid[static_cast<int>(e.at("tid").number)];
    }
  }
  ASSERT_EQ(tasks_per_tid.size(), 3u);  // exactly 3 lanes used
  EXPECT_EQ(tasks_per_tid[0], 2);       // first + reused lane
  EXPECT_EQ(tasks_per_tid[1], 1);
  EXPECT_EQ(tasks_per_tid[2], 1);
}

// --- Context round-trip ------------------------------------------------------

KeyHistogram hist() {
  trace::WikiTraceGen::Config c;
  c.num_urls = 512;
  return trace::WikiTraceGen(c).histogram(64 * kMiB, 0.9);
}

TEST(ChromeTraceSink, ContextRunTaskSpansEqualExecutedTasks) {
  const std::string path = ::testing::TempDir() + "/stark_chrome_trace.json";
  int total_tasks = 0;
  std::string in_memory;
  {
    ContextOptions o;
    o.config = ConfigKind::kStarkH;
    o.cluster.num_servers = 4;
    o.trace.chrome_path = path;  // implies enabled
    Context ctx(o);
    auto part = ctx.collection_partitioner(8, 512);
    auto ds = ctx.ingest("d", hist(), part, "logs", {.materialize = false});
    total_tasks += ctx.count(ds).num_tasks;
    total_tasks += ctx.count(ds).num_tasks;  // second job reads the cache

    auto* chrome = ctx.tracer().sink<ChromeTraceSink>();
    ASSERT_NE(chrome, nullptr);
    EXPECT_EQ(chrome->path(), path);
    EXPECT_EQ(static_cast<int>(chrome->task_span_count()), total_tasks);
    in_memory = chrome->to_json();
    ctx.tracer().flush();
  }
  ASSERT_GT(total_tasks, 0);

  // Golden round-trip: the flushed file is byte-identical to to_json().
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "flush() did not write " << path;
  std::ostringstream file_contents;
  file_contents << in.rdbuf();
  EXPECT_EQ(file_contents.str(), in_memory);

  // The file parses, and its "X" cat:"task" count is the task count.
  const JsonValue doc = JsonParser(file_contents.str()).parse();
  EXPECT_EQ(count_events(doc, "X", "task"), total_tasks);
  EXPECT_EQ(count_events(doc, "X", "job"), 2);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace stark::obs
