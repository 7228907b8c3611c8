#include "fault/failpoint.h"

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/tensor.h"
#include "trace/trace.h"

namespace ccovid::fault {

namespace {

// splitmix64 — seed mixing for (registry seed, name) and per-fire seeds.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t hash_name(const std::string& name) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : name) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

[[noreturn]] void bad_spec(const std::string& spec, const std::string& why) {
  throw std::invalid_argument(
      "failpoint spec '" + spec + "': " + why +
      " (grammar: trigger once|nth(K)|every(K)|after(K)|times(K)|prob(P), "
      "filter thread(I), action error|abort|delay(D)|corrupt(N)|nan(N)|off, "
      "terms joined by '*')");
}

// Splits "fn(arg)" into fn and arg; arg empty when there are no parens.
bool split_call(const std::string& term, std::string& fn, std::string& arg) {
  const auto open = term.find('(');
  if (open == std::string::npos) {
    fn = term;
    arg.clear();
    return true;
  }
  if (term.back() != ')') return false;
  fn = term.substr(0, open);
  arg = term.substr(open + 1, term.size() - open - 2);
  return !arg.empty();
}

// stod/stoll ignore trailing junk ("5kg" parses as 5); require the
// whole argument to be consumed.
double parse_number(const std::string& spec, const std::string& arg) {
  try {
    std::size_t pos = 0;
    const double v = std::stod(arg, &pos);
    if (pos != arg.size()) {
      bad_spec(spec, "trailing characters in number '" + arg + "'");
    }
    return v;
  } catch (const std::invalid_argument&) {
    bad_spec(spec, "'" + arg + "' is not a number");
  } catch (const std::out_of_range&) {
    bad_spec(spec, "'" + arg + "' is out of range");
  }
}

// An integer in [lo, hi]. The range check comes before any cast: a
// double past the target type's range (1e20, inf) has no defined
// conversion, and in practice lands on a value with another meaning
// (thread INT_MIN is "any thread", a count of 0 is never accepted).
std::uint64_t parse_int(const std::string& spec, const std::string& arg,
                        double lo, double hi, const char* what) {
  const double v = parse_number(spec, arg);
  if (!(v >= lo && v <= hi) || v != std::floor(v)) {
    std::ostringstream os;
    os << what << " '" << arg << "' must be an integer in ["
       << static_cast<std::uint64_t>(lo) << ", "
       << static_cast<std::uint64_t>(hi) << "]";
    bad_spec(spec, os.str());
  }
  return static_cast<std::uint64_t>(v);
}

// Trigger counts compare against 64-bit hit counters; 2^53 keeps every
// accepted count an exact double.
constexpr double kMaxTriggerCount = 9007199254740992.0;  // 2^53
constexpr double kMaxDelaySeconds = 1e9;

double parse_delay(const std::string& spec, const std::string& arg) {
  double scale = 1.0;
  std::string num = arg;
  if (num.size() > 2 && num.substr(num.size() - 2) == "ms") {
    scale = 1e-3;
    num.resize(num.size() - 2);
  } else if (num.size() > 2 && num.substr(num.size() - 2) == "us") {
    scale = 1e-6;
    num.resize(num.size() - 2);
  } else if (num.size() > 1 && num.back() == 's') {
    num.resize(num.size() - 1);
  }
  const double v = parse_number(spec, num) * scale;
  if (!(v >= 0.0 && v <= kMaxDelaySeconds)) {
    bad_spec(spec, "delay '" + arg + "' must be in [0, 1e9] s");
  }
  return v;
}

thread_local int g_thread_ordinal = -1;

}  // namespace

const char* to_string(Action a) {
  switch (a) {
    case Action::kNone: return "none";
    case Action::kError: return "error";
    case Action::kDelay: return "delay";
    case Action::kCorrupt: return "corrupt";
    case Action::kNan: return "nan";
    case Action::kAbort: return "abort";
  }
  return "?";
}

Schedule parse_schedule(const std::string& spec) {
  Schedule s;
  bool have_trigger = false, have_action = false, have_filter = false;

  std::vector<std::string> terms;
  std::string cur;
  for (char c : spec) {
    if (c == '*') {
      terms.push_back(cur);
      cur.clear();
    } else if (!std::isspace(static_cast<unsigned char>(c))) {
      cur.push_back(c);
    }
  }
  terms.push_back(cur);

  for (const std::string& term : terms) {
    if (term.empty()) bad_spec(spec, "empty term");
    std::string fn, arg;
    if (!split_call(term, fn, arg)) bad_spec(spec, "malformed term '" + term + "'");

    const bool is_trigger = fn == "once" || fn == "nth" || fn == "every" ||
                            fn == "after" || fn == "times" || fn == "prob";
    const bool is_action = fn == "error" || fn == "abort" || fn == "delay" ||
                           fn == "corrupt" || fn == "nan" || fn == "off";
    if (is_trigger) {
      if (have_trigger) bad_spec(spec, "more than one trigger");
      have_trigger = true;
      if (fn == "once") {
        s.trigger = Schedule::Trigger::kOnce;
      } else if (fn == "prob") {
        s.trigger = Schedule::Trigger::kProb;
        s.p = parse_number(spec, arg);
        if (!(s.p >= 0.0 && s.p <= 1.0))
          bad_spec(spec, "prob argument must be in [0,1]");
      } else {
        s.k = parse_int(spec, arg, 1, kMaxTriggerCount, "count");
        s.trigger = fn == "nth"     ? Schedule::Trigger::kNth
                    : fn == "every" ? Schedule::Trigger::kEvery
                    : fn == "after" ? Schedule::Trigger::kAfter
                                    : Schedule::Trigger::kTimes;
      }
    } else if (fn == "thread") {
      if (have_filter) bad_spec(spec, "more than one thread filter");
      have_filter = true;
      s.thread = static_cast<int>(parse_int(
          spec, arg, 0, std::numeric_limits<int>::max(), "thread ordinal"));
    } else if (is_action) {
      if (have_action) bad_spec(spec, "more than one action");
      have_action = true;
      if (fn == "error") {
        s.action = Action::kError;
      } else if (fn == "abort") {
        s.action = Action::kAbort;
      } else if (fn == "off") {
        s.action = Action::kNone;
      } else if (fn == "delay") {
        s.action = Action::kDelay;
        s.delay_s = parse_delay(spec, arg);
      } else {
        s.action = fn == "corrupt" ? Action::kCorrupt : Action::kNan;
        s.count = static_cast<std::uint32_t>(parse_int(
            spec, arg, 1, std::numeric_limits<std::uint32_t>::max(),
            "count"));
      }
    } else {
      bad_spec(spec, "unknown term '" + term + "'");
    }
  }
  return s;
}

// ------------------------------------------------------------ Failpoint

Fired Failpoint::eval() {
  Fired f;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++hits_;
    if (!armed_ || sched_.action == Action::kNone) return f;
    if (sched_.thread >= 0 && thread_ordinal() != sched_.thread) return f;
    ++eligible_;

    bool fire = false;
    switch (sched_.trigger) {
      case Schedule::Trigger::kAlways:
        fire = true;
        break;
      case Schedule::Trigger::kOnce:
        fire = true;
        break;
      case Schedule::Trigger::kNth:
        fire = eligible_ == sched_.k;
        break;
      case Schedule::Trigger::kEvery:
        fire = eligible_ % sched_.k == 0;
        break;
      case Schedule::Trigger::kAfter:
        fire = eligible_ > sched_.k;
        break;
      case Schedule::Trigger::kTimes:
        fire = fires_ < sched_.k;
        break;
      case Schedule::Trigger::kProb:
        // One draw per eligible hit keeps the stream aligned with the
        // hit sequence, so identical hit orders reproduce identical
        // fire patterns for a given seed.
        fire = rng_.uniform() < sched_.p;
        break;
    }
    if (!fire) {
      // nth(K) with eligible_ > K can never fire again; disarm so the
      // armed fast path goes quiet.
      if (sched_.trigger == Schedule::Trigger::kNth && eligible_ > sched_.k &&
          disarm_locked()) {
        Registry::armed_count_.fetch_sub(1);
      }
      return f;
    }

    ++fires_;
    f.action = sched_.action;
    f.delay_s = sched_.delay_s;
    f.count = sched_.count;
    f.seed = mix64(arm_seed_ ^ mix64(fires_));
    const bool done =
        sched_.one_shot() ||
        (sched_.trigger == Schedule::Trigger::kTimes && fires_ >= sched_.k);
    if (done && disarm_locked()) Registry::armed_count_.fetch_sub(1);
  }
  // Fires show up in traces as instants named after the site, carrying
  // the per-fire seed as the correlation id — chaos runs can match every
  // injected fault to the request/rank timeline it landed in. name_ is
  // never destroyed (failpoints leak by design), so c_str() is a valid
  // trace name.
  if (f) TRACE_INSTANT_ID(name_.c_str(), f.seed);
  // Side-effect actions run outside the lock so stalled threads don't
  // serialize other failpoint evaluations.
  if (f.action == Action::kDelay && f.delay_s > 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(f.delay_s));
  } else if (f.action == Action::kAbort) {
    std::abort();
  }
  return f;
}

std::uint64_t Failpoint::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

std::uint64_t Failpoint::fires() const {
  std::lock_guard<std::mutex> lock(mu_);
  return fires_;
}

bool Failpoint::armed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return armed_;
}

void Failpoint::arm_locked(const Schedule& s, std::uint64_t registry_seed) {
  sched_ = s;
  armed_ = s.action != Action::kNone;
  eligible_ = 0;
  fires_ = 0;
  arm_seed_ = mix64(registry_seed ^ hash_name(name_));
  rng_ = Rng(arm_seed_);
}

bool Failpoint::disarm_locked() {
  const bool was = armed_;
  armed_ = false;
  return was;
}

// ------------------------------------------------------------- Registry

std::atomic<int> Registry::armed_count_{0};

Registry& Registry::instance() {
  static Registry* r = new Registry();  // leaked: outlives static call sites
  return *r;
}

Failpoint& Registry::handle(const char* name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = points_[name];
  if (!slot) slot = std::make_unique<Failpoint>(name);
  return *slot;
}

void Registry::arm(const std::string& name, const std::string& spec) {
  const Schedule s = parse_schedule(spec);
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = points_[name];
  if (!slot) slot = std::make_unique<Failpoint>(name);
  std::lock_guard<std::mutex> fp_lock(slot->mu_);
  const bool was = slot->armed_;
  slot->arm_locked(s, seed_);
  if (slot->armed_ && !was) armed_count_.fetch_add(1);
  if (!slot->armed_ && was) armed_count_.fetch_sub(1);
}

int Registry::configure(const std::string& specs) {
  int applied = 0;
  std::string entry;
  std::stringstream ss(specs);
  while (std::getline(ss, entry, ';')) {
    if (entry.empty()) continue;
    const auto eq = entry.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw std::invalid_argument("failpoint entry '" + entry +
                                  "' is not name=spec");
    }
    arm(entry.substr(0, eq), entry.substr(eq + 1));
    ++applied;
  }
  return applied;
}

void Registry::disarm(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = points_.find(name);
  if (it == points_.end()) return;
  std::lock_guard<std::mutex> fp_lock(it->second->mu_);
  if (it->second->disarm_locked()) armed_count_.fetch_sub(1);
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, fp] : points_) {
    std::lock_guard<std::mutex> fp_lock(fp->mu_);
    if (fp->disarm_locked()) armed_count_.fetch_sub(1);
    fp->hits_ = 0;
    fp->eligible_ = 0;
    fp->fires_ = 0;
  }
}

void Registry::set_seed(std::uint64_t seed) {
  std::lock_guard<std::mutex> lock(mu_);
  seed_ = seed;
}

std::uint64_t Registry::seed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return seed_;
}

std::vector<Registry::Counter> Registry::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Counter> out;
  for (const auto& [name, fp] : points_) {
    std::lock_guard<std::mutex> fp_lock(fp->mu_);
    if (fp->hits_ == 0 && !fp->armed_) continue;
    out.push_back({name, fp->hits_, fp->fires_, fp->armed_});
  }
  return out;
}

std::string Registry::json() const {
  const auto cs = counters();
  std::string out = "{";
  for (std::size_t i = 0; i < cs.size(); ++i) {
    if (i) out += ",";
    out += "\"" + cs[i].name + "\":{\"hits\":" + std::to_string(cs[i].hits) +
           ",\"fires\":" + std::to_string(cs[i].fires) +
           ",\"armed\":" + (cs[i].armed ? "true" : "false") + "}";
  }
  out += "}";
  return out;
}

// ------------------------------------------------------ thread ordinals

int thread_ordinal() { return g_thread_ordinal; }

ScopedThreadOrdinal::ScopedThreadOrdinal(int ordinal) : prev_(g_thread_ordinal) {
  g_thread_ordinal = ordinal;
}

ScopedThreadOrdinal::~ScopedThreadOrdinal() { g_thread_ordinal = prev_; }

// ------------------------------------------------- injection utilities

void corrupt_bytes(void* data, std::size_t size, std::uint64_t seed,
                   std::uint32_t n) {
  if (data == nullptr || size == 0) return;
  auto* bytes = static_cast<unsigned char*>(data);
  std::uint64_t x = seed;
  for (std::uint32_t i = 0; i < n; ++i) {
    x = mix64(x);
    const std::size_t pos = static_cast<std::size_t>(x % size);
    const unsigned bit = static_cast<unsigned>((x >> 32) & 7u);
    bytes[pos] ^= static_cast<unsigned char>(1u << bit);
  }
}

void inject_nonfinite(real_t* data, std::size_t count, std::uint64_t seed,
                      std::uint32_t n) {
  if (data == nullptr || count == 0) return;
  static const real_t kPoison[3] = {
      std::numeric_limits<real_t>::quiet_NaN(),
      std::numeric_limits<real_t>::infinity(),
      -std::numeric_limits<real_t>::infinity()};
  std::uint64_t x = seed;
  for (std::uint32_t i = 0; i < n; ++i) {
    x = mix64(x);
    data[static_cast<std::size_t>(x % count)] = kPoison[(x >> 32) % 3];
  }
}

void inject_nonfinite(Tensor& t, std::uint64_t seed, std::uint32_t n) {
  inject_nonfinite(t.data(), static_cast<std::size_t>(t.numel()), seed, n);
}

}  // namespace ccovid::fault
