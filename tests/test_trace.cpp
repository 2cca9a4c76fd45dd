// Tests for the tracing + metrics observability layer: the trace
// recorder's Chrome JSON output (parses, spans nest per thread, disabled
// mode records nothing, multi-thread tid/ts consistency) and the
// process-wide MetricsRegistry (counters/gauges/histograms, plus the
// cache + scheduler + arena entries a Rodinia batch must populate).
#include "support/metrics.h"
#include "support/trace.h"

#include "driver/compiler.h"
#include "driver/session.h"
#include "rodinia/rodinia.h"
#include "runtime/thread_pool.h"
#include "transforms/pass_cache.h"
#include "vm/compile.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstring>
#include <map>
#include <thread>
#include <vector>

using namespace paralift;

namespace {

// --- a minimal JSON parser, just enough for trace_event output ----------

struct JsonValue {
  enum Kind { Null, Bool, Number, String, Array, Object } kind = Null;
  bool b = false;
  double num = 0;
  std::string str;
  std::vector<JsonValue> arr;
  std::map<std::string, JsonValue> obj;

  const JsonValue *find(const std::string &key) const {
    auto it = obj.find(key);
    return it == obj.end() ? nullptr : &it->second;
  }
};

class JsonParser {
public:
  explicit JsonParser(const std::string &text) : s_(text) {}

  bool parse(JsonValue &out) { return value(out) && (ws(), pos_ == s_.size()); }

private:
  void ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
  }
  bool lit(const char *t, JsonValue &v, JsonValue::Kind k, bool bval) {
    size_t n = std::strlen(t);
    if (s_.compare(pos_, n, t) != 0)
      return false;
    pos_ += n;
    v.kind = k;
    v.b = bval;
    return true;
  }
  bool value(JsonValue &v) {
    ws();
    if (pos_ >= s_.size())
      return false;
    char c = s_[pos_];
    if (c == '{')
      return object(v);
    if (c == '[')
      return array(v);
    if (c == '"') {
      v.kind = JsonValue::String;
      return string(v.str);
    }
    if (c == 't')
      return lit("true", v, JsonValue::Bool, true);
    if (c == 'f')
      return lit("false", v, JsonValue::Bool, false);
    if (c == 'n')
      return lit("null", v, JsonValue::Null, false);
    return number(v);
  }
  bool number(JsonValue &v) {
    size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E'))
      ++pos_;
    if (pos_ == start)
      return false;
    v.kind = JsonValue::Number;
    v.num = std::stod(s_.substr(start, pos_ - start));
    return true;
  }
  bool string(std::string &out) {
    if (s_[pos_] != '"')
      return false;
    ++pos_;
    out.clear();
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= s_.size())
          return false;
        switch (s_[pos_]) {
        case 'n':
          out += '\n';
          break;
        case 't':
          out += '\t';
          break;
        case 'u':
          pos_ += 4; // tests never inspect escaped control chars
          out += '?';
          break;
        default:
          out += s_[pos_];
        }
      } else {
        out += s_[pos_];
      }
      ++pos_;
    }
    if (pos_ >= s_.size())
      return false;
    ++pos_; // closing quote
    return true;
  }
  bool array(JsonValue &v) {
    v.kind = JsonValue::Array;
    ++pos_; // [
    ws();
    if (pos_ < s_.size() && s_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      JsonValue elem;
      if (!value(elem))
        return false;
      v.arr.push_back(std::move(elem));
      ws();
      if (pos_ >= s_.size())
        return false;
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }
  bool object(JsonValue &v) {
    v.kind = JsonValue::Object;
    ++pos_; // {
    ws();
    if (pos_ < s_.size() && s_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      ws();
      std::string key;
      if (pos_ >= s_.size() || !string(key))
        return false;
      ws();
      if (pos_ >= s_.size() || s_[pos_] != ':')
        return false;
      ++pos_;
      JsonValue val;
      if (!value(val))
        return false;
      v.obj.emplace(std::move(key), std::move(val));
      ws();
      if (pos_ >= s_.size())
        return false;
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  const std::string &s_;
  size_t pos_ = 0;
};

JsonValue parseTraceJson() {
  std::string text = trace::json();
  JsonValue root;
  JsonParser p(text);
  EXPECT_TRUE(p.parse(root)) << "trace JSON failed to parse:\n" << text;
  EXPECT_EQ(root.kind, JsonValue::Object);
  return root;
}

struct Interval {
  double ts, dur;
  std::string name;
};

/// Per-tid complete ('X') events from a parsed trace, filtered to those
/// recorded at or after `sinceTs`.
std::map<int, std::vector<Interval>> completeEventsByTid(const JsonValue &root,
                                                         double sinceTs) {
  std::map<int, std::vector<Interval>> byTid;
  const JsonValue *events = root.find("traceEvents");
  EXPECT_NE(events, nullptr);
  for (const JsonValue &e : events->arr) {
    const JsonValue *ph = e.find("ph");
    if (!ph || ph->str != "X")
      continue;
    const JsonValue *ts = e.find("ts");
    const JsonValue *dur = e.find("dur");
    const JsonValue *tid = e.find("tid");
    const JsonValue *name = e.find("name");
    EXPECT_TRUE(ts && dur && tid && name) << "X event missing fields";
    if (!ts || !dur || !tid || !name)
      continue;
    if (ts->num < sinceTs)
      continue;
    byTid[static_cast<int>(tid->num)].push_back(
        {ts->num, dur->num, name->str});
  }
  return byTid;
}

/// Spans on one thread must nest: sorted by start, every pair is either
/// disjoint or one contains the other.
void expectProperNesting(std::vector<Interval> iv) {
  std::sort(iv.begin(), iv.end(), [](const Interval &a, const Interval &b) {
    return a.ts < b.ts || (a.ts == b.ts && a.dur > b.dur);
  });
  std::vector<Interval> stack;
  for (const Interval &i : iv) {
    while (!stack.empty() && i.ts >= stack.back().ts + stack.back().dur)
      stack.pop_back();
    if (!stack.empty()) {
      // i starts inside stack.back(): it must end inside it too.
      EXPECT_LE(i.ts + i.dur, stack.back().ts + stack.back().dur)
          << "span '" << i.name << "' overlaps '" << stack.back().name
          << "' without nesting";
    }
    stack.push_back(i);
  }
}

class TraceTest : public ::testing::Test {
protected:
  void SetUp() override {
    sinceTs_ = static_cast<double>(trace::nowMicros());
    countBefore_ = trace::eventCount();
    trace::enable();
  }
  void TearDown() override { trace::disable(); }

  double sinceTs_ = 0;
  size_t countBefore_ = 0;
};

TEST_F(TraceTest, JsonParsesAndSpanFieldsSurvive) {
  {
    trace::TraceSpan outer("outer", "test");
    trace::TraceSpan inner("inner", "test");
    inner.annotate("cache", "hit");
  }
  trace::counterEvent("test.counter", 42);
  trace::asyncBegin("test.job", 7);
  trace::asyncEnd("test.job", 7);

  JsonValue root = parseTraceJson();
  const JsonValue *events = root.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->kind, JsonValue::Array);

  bool sawOuter = false, sawInnerArg = false, sawCounter = false,
       sawBegin = false, sawEnd = false;
  for (const JsonValue &e : events->arr) {
    const JsonValue *name = e.find("name");
    const JsonValue *ph = e.find("ph");
    if (!name || !ph)
      continue;
    if (name->str == "outer" && ph->str == "X")
      sawOuter = true;
    if (name->str == "inner" && ph->str == "X") {
      const JsonValue *args = e.find("args");
      ASSERT_NE(args, nullptr);
      const JsonValue *v = args->find("cache");
      sawInnerArg = v && v->str == "hit";
    }
    if (name->str == "test.counter" && ph->str == "C") {
      const JsonValue *args = e.find("args");
      ASSERT_NE(args, nullptr);
      const JsonValue *v = args->find("value");
      sawCounter = v && v->num == 42;
    }
    if (name->str == "test.job" && ph->str == "b")
      sawBegin = e.find("id") && e.find("id")->num == 7;
    if (name->str == "test.job" && ph->str == "e")
      sawEnd = e.find("id") && e.find("id")->num == 7;
  }
  EXPECT_TRUE(sawOuter);
  EXPECT_TRUE(sawInnerArg);
  EXPECT_TRUE(sawCounter);
  EXPECT_TRUE(sawBegin);
  EXPECT_TRUE(sawEnd);
}

TEST_F(TraceTest, SpansNestPerThread) {
  {
    trace::TraceSpan a("a", "test");
    { trace::TraceSpan b("b", "test"); }
    { trace::TraceSpan c("c", "test"); }
  }
  { trace::TraceSpan d("d", "test"); }
  JsonValue root = parseTraceJson();
  auto byTid = completeEventsByTid(root, sinceTs_);
  size_t total = 0;
  for (auto &[tid, iv] : byTid) {
    expectProperNesting(iv);
    total += iv.size();
  }
  EXPECT_GE(total, 4u);
}

TEST_F(TraceTest, DisabledModeRecordsNothing) {
  trace::disable();
  size_t before = trace::eventCount();
  {
    trace::TraceSpan s("invisible", "test");
    s.annotate("k", "v");
    trace::counterEvent("invisible.counter", 1);
    trace::asyncBegin("invisible.job", 1);
    trace::asyncEnd("invisible.job", 1);
  }
  EXPECT_EQ(trace::eventCount(), before);
}

TEST_F(TraceTest, SpanEnabledAtOpenDroppedWhenDisabledAtClose) {
  size_t before = trace::eventCount();
  {
    trace::TraceSpan s("half", "test");
    trace::disable();
  }
  EXPECT_EQ(trace::eventCount(), before);
}

TEST_F(TraceTest, LoweringRecordsOneSpanWithItsInstructionCount) {
  trace::disable();
  DiagnosticEngine diag;
  driver::CompileResult cc = driver::compile(
      rodinia::suite().front().cudaSource, transforms::PipelineOptions{},
      diag);
  ASSERT_TRUE(cc.ok) << diag.str();

  // Tracing off: lowering records nothing.
  size_t before = trace::eventCount();
  vm::compileModule(cc.module.get());
  EXPECT_EQ(trace::eventCount(), before);

  // Tracing on: one vm:lower span, its argument the instruction count.
  double since = static_cast<double>(trace::nowMicros());
  trace::enable();
  vm::BCModule bc = vm::compileModule(cc.module.get());
  trace::disable();
  size_t instrs = 0;
  for (const vm::BCFunction &f : bc.fns)
    instrs += f.instrs.size();
  ASSERT_GT(instrs, 0u);
  JsonValue root = parseTraceJson();
  int spans = 0;
  for (const JsonValue &e : root.find("traceEvents")->arr) {
    const JsonValue *name = e.find("name"), *ph = e.find("ph"),
                    *ts = e.find("ts");
    if (!name || name->str != "vm:lower" || !ph || ph->str != "X" || !ts ||
        ts->num < since)
      continue;
    ++spans;
    const JsonValue *args = e.find("args");
    ASSERT_NE(args, nullptr);
    const JsonValue *v = args->find("instrs");
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(v->str, std::to_string(instrs));
  }
  EXPECT_EQ(spans, 1);
}

TEST_F(TraceTest, EightThreadSchedulerRunIsConsistent) {
  runtime::ThreadPool pool(8);
  std::atomic<int> ran{0};
  runtime::runTasks(&pool, 64, [&](size_t) {
    trace::TraceSpan s("unit", "test");
    ran.fetch_add(1);
  });
  EXPECT_EQ(ran.load(), 64);

  JsonValue root = parseTraceJson();
  auto byTid = completeEventsByTid(root, sinceTs_);
  size_t units = 0;
  for (auto &[tid, iv] : byTid) {
    expectProperNesting(iv);
    // ts must be sane: no span may extend past "now".
    double now = static_cast<double>(trace::nowMicros());
    for (const Interval &i : iv) {
      EXPECT_GE(i.ts, sinceTs_);
      EXPECT_LE(i.ts + i.dur, now + 1);
      if (i.name == "unit")
        ++units;
    }
  }
  EXPECT_EQ(units, 64u);
  // runTasks' own task spans appear on the worker lanes.
  bool sawTask = false;
  for (auto &[tid, iv] : byTid)
    for (const Interval &i : iv)
      if (i.name == "task")
        sawTask = true;
  EXPECT_TRUE(sawTask);
}

// --- metrics ------------------------------------------------------------

TEST(MetricsTest, CounterGaugeHistogramBasics) {
  auto &reg = metrics::MetricsRegistry::instance();
  metrics::Counter &c = reg.counter("test.metric.counter");
  uint64_t base = c.value();
  c.add();
  c.add(4);
  EXPECT_EQ(c.value(), base + 5);
  EXPECT_EQ(reg.counterValue("test.metric.counter"), base + 5);
  // Same name resolves to the same node.
  EXPECT_EQ(&reg.counter("test.metric.counter"), &c);

  metrics::Gauge &g = reg.gauge("test.metric.gauge");
  g.set(100);
  g.add(-40);
  EXPECT_EQ(g.value(), 60);
  EXPECT_GE(g.peak(), 100);

  metrics::Histogram &h = reg.histogram("test.metric.hist");
  h.observe(0.001);
  h.observe(0.002);
  h.observe(1.0);
  EXPECT_GE(h.count(), 3u);
  EXPECT_GT(h.sum(), 1.0);
  EXPECT_GT(h.quantile(0.95), h.quantile(0.05));

  std::string text = reg.textSnapshot();
  EXPECT_NE(text.find("test.metric.counter"), std::string::npos);
  std::string json = reg.jsonSnapshot();
  JsonValue root;
  JsonParser p(json);
  ASSERT_TRUE(p.parse(root)) << json;
  const JsonValue *v = root.find("test.metric.counter");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->num, static_cast<double>(base + 5));
  EXPECT_NE(root.find("test.metric.gauge.peak"), nullptr);
  EXPECT_NE(root.find("test.metric.hist.p95_s"), nullptr);
}

TEST(MetricsTest, RodiniaBatchPopulatesCacheSchedulerAndArenaMetrics) {
  auto &reg = metrics::MetricsRegistry::instance();
  uint64_t hitsBefore = reg.counterValue("cache.hits");
  uint64_t tasksBefore = reg.counterValue("scheduler.tasks");
  uint64_t jobsBefore = reg.counterValue("session.jobs_completed");
  uint64_t latBefore = reg.histogram("session.job_latency_s").count();

  transforms::PassResultCache cache;
  for (int round = 0; round < 2; ++round) {
    driver::SessionOptions so;
    so.threads = 4;
    so.cache = &cache;
    so.useEnvCache = false;
    driver::CompilerSession session(std::move(so));
    for (const auto &b : rodinia::suite())
      session.addSource(b.id, b.cudaSource, transforms::PipelineOptions{});
    session.compileAll();
  }

  // Warm second round replays from the shared cache -> hits counted in
  // the unified registry.
  EXPECT_GT(reg.counterValue("cache.hits"), hitsBefore);
  EXPECT_GT(reg.counterValue("scheduler.tasks"), tasksBefore);
  EXPECT_GT(reg.counterValue("session.jobs_completed"), jobsBefore);
  EXPECT_GT(reg.histogram("session.job_latency_s").count(), latBefore);
  // Arena slabs were reserved during the batch and the peak survives.
  EXPECT_GT(reg.gaugePeak("arena.reserved_bytes"), 0);
}

} // namespace
