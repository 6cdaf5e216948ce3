#include "core/trace_export.hpp"

#include <algorithm>
#include <cctype>
#include <cinttypes>
#include <compare>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <istream>
#include <map>
#include <ostream>
#include <sstream>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <variant>

#include "core/error.hpp"

namespace tdg {

// ---------------------------------------------------------------------------
// Perfetto writer
// ---------------------------------------------------------------------------

namespace {

void json_escape(std::ostream& os, const char* s) {
  os << '"';
  for (; *s != '\0'; ++s) {
    const unsigned char c = static_cast<unsigned char>(*s);
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      case '\r': os << "\\r"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          os << buf;
        } else {
          os << static_cast<char>(c);
        }
    }
  }
  os << '"';
}

/// Microseconds (with ns resolution kept as decimals) relative to t0.
void emit_us(std::ostream& os, std::uint64_t ns, std::uint64_t t0) {
  const std::uint64_t rel = ns >= t0 ? ns - t0 : 0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%" PRIu64 ".%03u", rel / 1000,
                static_cast<unsigned>(rel % 1000));
  os << buf;
}

// --- depend-clause access encoding ---
//
// One task's clause becomes "code:hexaddr;code:hexaddr;..." with codes
// in / out / io / ios. Extent-annotated clauses (Depend::bytes != 0, used
// by the race detector's interval shadow table) append "/hexbytes" —
// emitted only when set, so traces without extents stay byte-identical to
// the old format and old traces parse unchanged. Clause order is
// preserved — the offline verifier replays the stream exactly as
// discovery saw it.

const char* access_code(DependType t) {
  switch (t) {
    case DependType::In: return "in";
    case DependType::Out: return "out";
    case DependType::InOut: return "io";
    case DependType::InOutSet: return "ios";
  }
  return "in";
}

bool access_type_from_code(std::string_view code, DependType& out) {
  if (code == "in") out = DependType::In;
  else if (code == "out") out = DependType::Out;
  else if (code == "io") out = DependType::InOut;
  else if (code == "ios") out = DependType::InOutSet;
  else return false;
  return true;
}

/// Contiguous [first, last) run of the access stream for each task id
/// (record_accesses appends a task's whole clause at once, so runs are
/// contiguous; redirect nodes never record accesses).
std::unordered_map<std::uint64_t, std::pair<std::size_t, std::size_t>>
group_accesses(std::span<const AccessRecord> accesses) {
  std::unordered_map<std::uint64_t, std::pair<std::size_t, std::size_t>>
      runs;
  std::size_t i = 0;
  while (i < accesses.size()) {
    std::size_t j = i + 1;
    while (j < accesses.size() &&
           accesses[j].task_id == accesses[i].task_id) {
      ++j;
    }
    runs.emplace(accesses[i].task_id, std::make_pair(i, j));
    i = j;
  }
  return runs;
}

std::string encode_accesses(std::span<const AccessRecord> accesses,
                            std::size_t first, std::size_t last) {
  std::string out;
  char buf[24];
  for (std::size_t i = first; i < last; ++i) {
    if (!out.empty()) out.push_back(';');
    out += access_code(accesses[i].type);
    out.push_back(':');
    std::snprintf(buf, sizeof buf, "%" PRIx64, accesses[i].addr);
    out += buf;
    if (accesses[i].bytes != 0) {
      std::snprintf(buf, sizeof buf, "/%x", accesses[i].bytes);
      out += buf;
    }
  }
  return out;
}

/// Decode one task's encoded clause into trace.accesses. Unknown codes or
/// malformed segments are a hard error — a half-read clause would make the
/// verifier report phantom races.
void decode_accesses(ParsedTrace& trace, std::uint64_t task_id,
                     const char* label, std::string_view enc) {
  std::size_t pos = 0;
  while (pos < enc.size()) {
    std::size_t end = enc.find(';', pos);
    if (end == std::string_view::npos) end = enc.size();
    const std::string_view item = enc.substr(pos, end - pos);
    const std::size_t colon = item.find(':');
    TDG_REQUIRE(colon != std::string_view::npos,
                "malformed accesses item in trace");
    AccessRecord a;
    a.task_id = task_id;
    a.label = label;
    TDG_REQUIRE(access_type_from_code(item.substr(0, colon), a.type),
                "unknown access type code in trace");
    std::string_view addr_part = item.substr(colon + 1);
    const std::size_t slash = addr_part.find('/');
    std::string_view bytes_part;
    if (slash != std::string_view::npos) {
      bytes_part = addr_part.substr(slash + 1);
      addr_part = addr_part.substr(0, slash);
    }
    const std::string hex(addr_part);
    char* stop = nullptr;
    a.addr = std::strtoull(hex.c_str(), &stop, 16);
    TDG_REQUIRE(stop != nullptr && *stop == '\0' && !hex.empty(),
                "malformed access address in trace");
    if (slash != std::string_view::npos) {
      const std::string bhex(bytes_part);
      a.bytes = static_cast<std::uint32_t>(
          std::strtoul(bhex.c_str(), &stop, 16));
      TDG_REQUIRE(stop != nullptr && *stop == '\0' && !bhex.empty(),
                  "malformed access extent in trace");
    }
    trace.accesses.push_back(a);
    pos = end + 1;
  }
}

const char* comm_kind_code(CommRecord::Kind k) {
  switch (k) {
    case CommRecord::Kind::Send: return "send";
    case CommRecord::Kind::Recv: return "recv";
    case CommRecord::Kind::Collective: return "coll";
  }
  return "send";
}

bool comm_kind_from_code(std::string_view code, CommRecord::Kind& out) {
  if (code == "send") out = CommRecord::Kind::Send;
  else if (code == "recv") out = CommRecord::Kind::Recv;
  else if (code == "coll") out = CommRecord::Kind::Collective;
  else return false;
  return true;
}

}  // namespace

MessageMatch match_messages(std::span<const CommRecord> comms) {
  struct Key {
    std::int32_t src, dst, tag;
    std::uint64_t seq;
    auto operator<=>(const Key&) const = default;
  };
  constexpr std::size_t kNone = SIZE_MAX;
  std::map<Key, MessagePair> by_key;
  MessageMatch out;
  for (std::size_t i = 0; i < comms.size(); ++i) {
    const CommRecord& c = comms[i];
    if (c.seq == 0 || c.kind == CommRecord::Kind::Collective) continue;
    const bool send = c.kind == CommRecord::Kind::Send;
    const Key k = send ? Key{c.self, c.peer, c.tag, c.seq}
                       : Key{c.peer, c.self, c.tag, c.seq};
    MessagePair& p =
        by_key.try_emplace(k, MessagePair{kNone, kNone}).first->second;
    std::size_t& side = send ? p.send : p.recv;
    if (side == kNone) {
      side = i;
    } else {
      ++out.unmatched;
    }
  }
  for (const auto& [k, p] : by_key) {
    if (p.send != kNone && p.recv != kNone) {
      out.pairs.push_back(p);
    } else {
      ++out.unmatched;
    }
  }
  return out;
}

/// Dedicated tid for the per-rank communication track (above any worker).
constexpr std::uint32_t kCommTid = 1000;

void write_perfetto(std::ostream& os, std::span<const TaskRecord> records,
                    std::span<const TraceEdge> edges,
                    std::span<const AccessRecord> accesses,
                    std::span<const std::uint64_t> barriers,
                    std::span<const std::uint64_t> scope_clears,
                    std::span<const CommRecord> comms,
                    const PerfettoOptions& opts) {
  std::uint64_t t0 = UINT64_MAX;
  for (const TaskRecord& r : records) t0 = std::min(t0, r.t_create);
  for (const CommRecord& c : comms) t0 = std::min(t0, c.t_post);
  if (t0 == UINT64_MAX) t0 = 0;

  os << "{\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ",";
    first = false;
    os << "\n";
  };

  // Metadata: per-rank process tracks and per-(rank, thread) track names.
  // A single-rank trace names its process "tdg"; a merged
  // multi-rank trace names each pid track "rank N".
  std::vector<int> pids;
  std::map<std::pair<int, std::uint32_t>, bool> threads;  // (pid,tid)->comm
  for (const TaskRecord& r : records) {
    const int pid = opts.pid + r.rank;
    if (std::find(pids.begin(), pids.end(), pid) == pids.end()) {
      pids.push_back(pid);
    }
    threads.emplace(std::make_pair(pid, r.thread), false);
  }
  for (const CommRecord& c : comms) {
    if (std::find(pids.begin(), pids.end(), c.self) == pids.end()) {
      pids.push_back(c.self);
    }
    threads.emplace(std::make_pair(static_cast<int>(c.self), kCommTid),
                    true);
  }
  if (pids.empty()) pids.push_back(opts.pid);
  std::sort(pids.begin(), pids.end());
  for (int pid : pids) {
    sep();
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
       << ",\"tid\":0,\"args\":{\"name\":";
    if (pids.size() == 1) {
      json_escape(os, "tdg");
    } else {
      json_escape(os, ("rank " + std::to_string(pid)).c_str());
    }
    os << "}}";
  }
  for (const auto& [key, is_comm] : threads) {
    sep();
    os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << key.first
       << ",\"tid\":" << key.second << ",\"args\":{\"name\":\""
       << (is_comm ? std::string("comm")
                   : (key.second == 0
                          ? "producer/worker 0"
                          : "worker " + std::to_string(key.second)))
       << "\"}}";
  }

  // Task slices. The create/ready times ride along in args so a
  // parsed-back trace is lossless (ts/dur only cover start..end). A task's
  // depend clause is attached to its first slice only — persistent-region
  // replays produce one slice per iteration but the clause was recorded
  // once, at discovery.
  const auto access_runs = group_accesses(accesses);
  std::unordered_set<std::uint64_t> clause_emitted;
  for (const TaskRecord& r : records) {
    sep();
    os << "{\"name\":";
    json_escape(os, r.label[0] != '\0' ? r.label : "task");
    os << ",\"cat\":\"task\",\"ph\":\"X\",\"pid\":" << (opts.pid + r.rank)
       << ",\"tid\":" << r.thread << ",\"ts\":";
    emit_us(os, r.t_start, t0);
    os << ",\"dur\":";
    emit_us(os, r.t_end, r.t_start);
    os << ",\"args\":{\"id\":" << r.task_id
       << ",\"iteration\":" << r.iteration << ",\"create_us\":";
    emit_us(os, r.t_create, t0);
    os << ",\"ready_us\":";
    emit_us(os, r.t_ready, t0);
    os << ",\"queue_us\":";
    emit_us(os, r.t_start, r.t_ready);
    if (auto it = access_runs.find(r.task_id);
        it != access_runs.end() && clause_emitted.insert(r.task_id).second) {
      os << ",\"accesses\":";
      json_escape(
          os,
          encode_accesses(accesses, it->second.first, it->second.second)
              .c_str());
    }
    os << "}}";
  }

  // Taskwait barriers and dependency-scope clears as global instant
  // events. They carry no timestamp of their own — the cutoff task id is
  // the payload the offline verifier needs.
  for (std::uint64_t b : barriers) {
    sep();
    os << "{\"name\":\"taskwait\",\"cat\":\"verify\",\"ph\":\"i\","
          "\"s\":\"g\",\"pid\":"
       << opts.pid << ",\"tid\":0,\"ts\":0,\"args\":{\"barrier_max_id\":"
       << b << "}}";
  }
  for (std::uint64_t s : scope_clears) {
    sep();
    os << "{\"name\":\"scope_clear\",\"cat\":\"verify\",\"ph\":\"i\","
          "\"s\":\"g\",\"pid\":"
       << opts.pid << ",\"tid\":0,\"ts\":0,\"args\":{\"scope_max_id\":"
       << s << "}}";
  }

  // Communication slices: one "X" per completed operation, on each rank's
  // dedicated comm track. All fields ride along in args so a parsed-back
  // trace is lossless.
  for (const CommRecord& c : comms) {
    sep();
    char name[64];
    switch (c.kind) {
      case CommRecord::Kind::Send:
        std::snprintf(name, sizeof name, "send to %d tag %d", c.peer,
                      c.tag);
        break;
      case CommRecord::Kind::Recv:
        std::snprintf(name, sizeof name, "recv from %d tag %d", c.peer,
                      c.tag);
        break;
      case CommRecord::Kind::Collective:
        std::snprintf(name, sizeof name, "collective slot %d", c.tag);
        break;
    }
    os << "{\"name\":";
    json_escape(os, name);
    os << ",\"cat\":\"comm\",\"ph\":\"X\",\"pid\":" << c.self
       << ",\"tid\":" << kCommTid << ",\"ts\":";
    emit_us(os, c.t_post, t0);
    os << ",\"dur\":";
    emit_us(os, c.t_complete, c.t_post);
    os << ",\"args\":{\"kind\":\"" << comm_kind_code(c.kind)
       << "\",\"self\":" << c.self << ",\"peer\":" << c.peer
       << ",\"tag\":" << c.tag << ",\"seq\":" << c.seq
       << ",\"bytes\":" << c.bytes << ",\"retransmits\":" << c.retransmits
       << ",\"task\":" << c.task_id << "}}";
  }

  std::uint64_t flow_id = 0;

  // Flow arrows along dependence edges: an "s" event at the predecessor's
  // end, an "f" (bind-enclosing) event at the successor's start. Edges
  // whose endpoints were not traced (internal redirect nodes) are skipped.
  std::unordered_map<std::uint64_t, const TaskRecord*> by_id;
  by_id.reserve(records.size());
  for (const TaskRecord& r : records) by_id.emplace(r.task_id, &r);
  for (const TraceEdge& e : edges) {
    auto pi = by_id.find(e.pred);
    auto si = by_id.find(e.succ);
    if (pi == by_id.end() || si == by_id.end()) continue;
    ++flow_id;
    sep();
    os << "{\"name\":\"dep\",\"cat\":\"dep\",\"ph\":\"s\",\"id\":"
       << flow_id << ",\"pid\":" << (opts.pid + pi->second->rank)
       << ",\"tid\":" << pi->second->thread << ",\"ts\":";
    emit_us(os, pi->second->t_end, t0);
    os << ",\"args\":{\"pred\":" << e.pred << ",\"succ\":" << e.succ
       << "}}";
    sep();
    os << "{\"name\":\"dep\",\"cat\":\"dep\",\"ph\":\"f\",\"bp\":\"e\","
       << "\"id\":" << flow_id << ",\"pid\":"
       << (opts.pid + si->second->rank)
       << ",\"tid\":" << si->second->thread << ",\"ts\":";
    emit_us(os, si->second->t_start, t0);
    os << "}";
  }

  // Message flow arrows: each matched message (match_messages) draws as
  // an arrow from the send's post on the source rank to the receive's
  // completion on the destination rank. The flow id space is shared with
  // the dependence arrows so ids never collide.
  for (const MessagePair& p : match_messages(comms).pairs) {
    const CommRecord& s = comms[p.send];
    const CommRecord& r = comms[p.recv];
    ++flow_id;
    sep();
    os << "{\"name\":\"msg\",\"cat\":\"msg\",\"ph\":\"s\",\"id\":"
       << flow_id << ",\"pid\":" << s.self << ",\"tid\":" << kCommTid
       << ",\"ts\":";
    emit_us(os, s.t_post, t0);
    os << ",\"args\":{\"src\":" << s.self << ",\"dst\":" << s.peer
       << ",\"tag\":" << s.tag << ",\"seq\":" << s.seq << "}}";
    sep();
    os << "{\"name\":\"msg\",\"cat\":\"msg\",\"ph\":\"f\",\"bp\":\"e\","
       << "\"id\":" << flow_id << ",\"pid\":" << r.self
       << ",\"tid\":" << kCommTid << ",\"ts\":";
    emit_us(os, r.t_complete, t0);
    os << "}";
  }

  // Counter track: number of concurrently-running task bodies per rank,
  // sampled at every start/end transition (the parallelism profile, live
  // in the UI).
  std::map<int, std::vector<std::pair<std::uint64_t, int>>> by_pid;
  for (const TaskRecord& r : records) {
    auto& ev = by_pid[opts.pid + r.rank];
    ev.emplace_back(r.t_start, +1);
    ev.emplace_back(r.t_end, -1);
  }
  for (auto& [pid, ev] : by_pid) {
    std::sort(ev.begin(), ev.end());
    int running = 0;
    for (std::size_t i = 0; i < ev.size(); ++i) {
      running += ev[i].second;
      // Collapse simultaneous transitions into one sample.
      if (i + 1 < ev.size() && ev[i + 1].first == ev[i].first) continue;
      sep();
      os << "{\"name\":\"running tasks\",\"ph\":\"C\",\"pid\":" << pid
         << ",\"ts\":";
      emit_us(os, ev[i].first, t0);
      os << ",\"args\":{\"running\":" << running << "}}";
    }
  }

  os << "\n],\"otherData\":{\"t0_ns\":\"" << t0 << "\"}}\n";
}

// ---------------------------------------------------------------------------
// Minimal JSON parser (recursive descent, tailored to trace files)
// ---------------------------------------------------------------------------

namespace {

struct JsonValue;
using JsonArray = std::vector<JsonValue>;
using JsonObject = std::vector<std::pair<std::string, JsonValue>>;

struct JsonValue {
  std::variant<std::nullptr_t, bool, double, std::string, JsonArray,
               JsonObject>
      v = nullptr;

  bool is_object() const { return std::holds_alternative<JsonObject>(v); }
  bool is_array() const { return std::holds_alternative<JsonArray>(v); }
  const JsonValue* get(std::string_view key) const {
    if (!is_object()) return nullptr;
    for (const auto& [k, val] : std::get<JsonObject>(v)) {
      if (k == key) return &val;
    }
    return nullptr;
  }
  double number(double fallback = 0.0) const {
    const double* d = std::get_if<double>(&v);
    return d != nullptr ? *d : fallback;
  }
  std::string_view str() const {
    const std::string* s = std::get_if<std::string>(&v);
    return s != nullptr ? std::string_view(*s) : std::string_view();
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::istream& is) {
    std::ostringstream buf;
    buf << is.rdbuf();
    text_ = buf.str();
  }

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    TDG_REQUIRE(pos_ == text_.size(), "trailing data after JSON document");
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  char peek() {
    skip_ws();
    TDG_REQUIRE(pos_ < text_.size(), "unexpected end of JSON input");
    return text_[pos_];
  }
  void expect(char c) {
    TDG_REQUIRE(peek() == c, "malformed JSON: unexpected character");
    ++pos_;
  }
  bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  JsonValue value() {
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': return JsonValue{string()};
      case 't': return literal("true", JsonValue{true});
      case 'f': return literal("false", JsonValue{false});
      case 'n': return literal("null", JsonValue{nullptr});
      default: return number();
    }
  }

  JsonValue literal(const char* word, JsonValue v) {
    const std::size_t len = std::strlen(word);
    TDG_REQUIRE(text_.compare(pos_, len, word) == 0,
                "malformed JSON literal");
    pos_ += len;
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
    TDG_REQUIRE(pos_ > start, "malformed JSON number");
    char* end = nullptr;
    const double d = std::strtod(text_.c_str() + start, &end);
    TDG_REQUIRE(end == text_.c_str() + pos_, "malformed JSON number");
    return JsonValue{d};
  }

  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      TDG_REQUIRE(pos_ < text_.size(), "unterminated JSON string");
      const char c = text_[pos_++];
      if (c == '"') break;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      TDG_REQUIRE(pos_ < text_.size(), "unterminated JSON escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'n': out.push_back('\n'); break;
        case 't': out.push_back('\t'); break;
        case 'r': out.push_back('\r'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'u': {
          TDG_REQUIRE(pos_ + 4 <= text_.size(), "truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code += static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code += static_cast<unsigned>(h - 'A' + 10);
            else
              TDG_REQUIRE(false, "malformed \\u escape");
          }
          // Traces only escape control characters; keep it simple (Latin-1
          // range; anything else would round-trip through raw UTF-8).
          out.push_back(static_cast<char>(code & 0xff));
          break;
        }
        default:
          TDG_REQUIRE(false, "unknown JSON escape");
      }
    }
    return out;
  }

  JsonValue array() {
    expect('[');
    JsonArray items;
    if (consume(']')) return JsonValue{std::move(items)};
    while (true) {
      items.push_back(value());
      if (consume(']')) break;
      expect(',');
    }
    return JsonValue{std::move(items)};
  }

  JsonValue object() {
    expect('{');
    JsonObject members;
    if (consume('}')) return JsonValue{std::move(members)};
    while (true) {
      std::string key = string();
      expect(':');
      members.emplace_back(std::move(key), value());
      if (consume('}')) break;
      expect(',');
    }
    return JsonValue{std::move(members)};
  }

  std::string text_;
  std::size_t pos_ = 0;
};

std::uint64_t us_to_ns(double us) {
  return us > 0 ? static_cast<std::uint64_t>(us * 1000.0 + 0.5) : 0;
}

}  // namespace

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

const char* ParsedTrace::intern(std::string_view label) {
  for (const std::string& s : label_pool) {
    if (s == label) return s.c_str();
  }
  label_pool.emplace_back(label);
  return label_pool.back().c_str();
}

ParsedTrace parse_perfetto(std::istream& is) {
  JsonParser parser(is);
  const JsonValue root = parser.parse();

  const JsonArray* events = nullptr;
  std::uint64_t t0 = 0;  // write_perfetto's origin; 0 when not recorded
  if (root.is_array()) {
    events = &std::get<JsonArray>(root.v);
  } else if (root.is_object()) {
    const JsonValue* te = root.get("traceEvents");
    TDG_REQUIRE(te != nullptr && te->is_array(),
                "trace JSON has no traceEvents array");
    events = &std::get<JsonArray>(te->v);
    if (const JsonValue* other = root.get("otherData"); other != nullptr) {
      if (const JsonValue* t = other->get("t0_ns"); t != nullptr) {
        const std::string dec(t->str());
        char* stop = nullptr;
        t0 = std::strtoull(dec.c_str(), &stop, 10);
        TDG_REQUIRE(!dec.empty() && *stop == '\0' &&
                        std::isdigit(static_cast<unsigned char>(dec[0])),
                    "otherData.t0_ns is not a decimal string");
      }
    }
  } else {
    TDG_REQUIRE(false, "trace JSON root must be an object or array");
  }

  ParsedTrace out;
  for (const JsonValue& ev : *events) {
    TDG_REQUIRE(ev.is_object(), "trace event is not a JSON object");
    const JsonValue* ph = ev.get("ph");
    TDG_REQUIRE(ph != nullptr, "trace event lacks a ph field");
    if (ph->str() == "X") {
      const JsonValue* args = ev.get("args");
      const JsonValue* cat = ev.get("cat");
      const double ts = ev.get("ts") != nullptr ? ev.get("ts")->number() : 0;
      const double dur =
          ev.get("dur") != nullptr ? ev.get("dur")->number() : 0;
      if (cat != nullptr && cat->str() == "comm") {
        CommRecord c;
        c.t_post = t0 + us_to_ns(ts);
        c.t_complete = t0 + us_to_ns(ts + dur);
        c.self = ev.get("pid") != nullptr
                     ? static_cast<std::int32_t>(ev.get("pid")->number())
                     : 0;
        if (args != nullptr && args->is_object()) {
          if (const JsonValue* k = args->get("kind"); k != nullptr) {
            TDG_REQUIRE(comm_kind_from_code(k->str(), c.kind),
                        "unknown comm kind code in trace");
          }
          if (const JsonValue* s = args->get("self"); s != nullptr) {
            c.self = static_cast<std::int32_t>(s->number());
          }
          if (const JsonValue* p = args->get("peer"); p != nullptr) {
            c.peer = static_cast<std::int32_t>(p->number());
          }
          if (const JsonValue* t = args->get("tag"); t != nullptr) {
            c.tag = static_cast<std::int32_t>(t->number());
          }
          if (const JsonValue* q = args->get("seq"); q != nullptr) {
            c.seq = static_cast<std::uint64_t>(q->number());
          }
          if (const JsonValue* b = args->get("bytes"); b != nullptr) {
            c.bytes = static_cast<std::uint64_t>(b->number());
          }
          if (const JsonValue* rx = args->get("retransmits");
              rx != nullptr) {
            c.retransmits = static_cast<std::uint32_t>(rx->number());
          }
          if (const JsonValue* tk = args->get("task"); tk != nullptr) {
            c.task_id = static_cast<std::uint64_t>(tk->number());
          }
        }
        out.comms.push_back(c);
        continue;
      }
      TaskRecord r;
      r.t_start = t0 + us_to_ns(ts);
      r.t_end = t0 + us_to_ns(ts + dur);
      r.thread = ev.get("tid") != nullptr
                     ? static_cast<std::uint32_t>(ev.get("tid")->number())
                     : 0;
      // The writer lands each task on pid = base + rank with base 0 in
      // practice (the runtime passes its rank as the base for a
      // single-rank file; merge keeps base 0), so pid is the rank.
      r.rank = ev.get("pid") != nullptr
                   ? static_cast<std::int32_t>(ev.get("pid")->number())
                   : 0;
      if (args != nullptr && args->is_object()) {
        if (const JsonValue* id = args->get("id"); id != nullptr) {
          r.task_id = static_cast<std::uint64_t>(id->number());
        }
        if (const JsonValue* it = args->get("iteration"); it != nullptr) {
          r.iteration = static_cast<std::uint32_t>(it->number());
        }
        if (const JsonValue* c = args->get("create_us"); c != nullptr) {
          r.t_create = t0 + us_to_ns(c->number());
        } else {
          r.t_create = r.t_start;
        }
        if (const JsonValue* rd = args->get("ready_us"); rd != nullptr) {
          r.t_ready = t0 + us_to_ns(rd->number());
        } else {
          r.t_ready = r.t_start;
        }
      } else {
        r.t_create = r.t_ready = r.t_start;
      }
      const JsonValue* name = ev.get("name");
      r.label = out.intern(name != nullptr ? name->str() : "task");
      if (args != nullptr && args->is_object()) {
        if (const JsonValue* acc = args->get("accesses"); acc != nullptr) {
          decode_accesses(out, r.task_id, r.label,
                          std::string(acc->str()));
        }
      }
      out.records.push_back(r);
    } else if (ph->str() == "s") {
      // Flow start events carry the edge's task ids in args. Message
      // flows ("msg" category) carry src/dst/tag/seq instead — those are
      // derivable from the comm records, so they are not re-parsed.
      const JsonValue* args = ev.get("args");
      if (args != nullptr && args->get("pred") != nullptr &&
          args->get("succ") != nullptr) {
        out.edges.push_back(TraceEdge{
            static_cast<std::uint64_t>(args->get("pred")->number()),
            static_cast<std::uint64_t>(args->get("succ")->number())});
      }
    } else if (ph->str() == "i") {
      // Verification instant events: taskwait barriers / scope clears.
      const JsonValue* args = ev.get("args");
      if (args == nullptr) continue;
      if (const JsonValue* b = args->get("barrier_max_id"); b != nullptr) {
        out.barriers.push_back(static_cast<std::uint64_t>(b->number()));
      } else if (const JsonValue* s = args->get("scope_max_id");
                 s != nullptr) {
        out.scope_clears.push_back(
            static_cast<std::uint64_t>(s->number()));
      }
    }
    // "M" metadata, "f" flow finish, "C" counters carry no record data.
  }
  std::stable_sort(out.records.begin(), out.records.end(),
                   [](const TaskRecord& a, const TaskRecord& b) {
                     return a.t_start < b.t_start;
                   });
  // Restore discovery order: the producer submits tasks with ascending
  // ids and a task's clause items stay contiguous, so a stable sort by
  // task id reconstructs the original access stream.
  std::stable_sort(out.accesses.begin(), out.accesses.end(),
                   [](const AccessRecord& a, const AccessRecord& b) {
                     return a.task_id < b.task_id;
                   });
  std::sort(out.barriers.begin(), out.barriers.end());
  std::sort(out.scope_clears.begin(), out.scope_clears.end());
  std::stable_sort(out.comms.begin(), out.comms.end(),
                   [](const CommRecord& a, const CommRecord& b) {
                     return a.t_post < b.t_post;
                   });
  return out;
}

}  // namespace tdg
