// Bench-side tracing: sampled spans around every call into the structure
// (ds), SMR (smr / pool / reclaim) and service (svc) layers, recorded from
// bench-owned code only.
//
//   * Traced<S>::type derives from an SMR scheme and shadows the calls a
//     structure makes into it; TracedDs<DS> derives from a structure and
//     shadows its operations. The structures and the service are simply
//     instantiated with these types, so src/ stays untouched and the
//     untraced instances run the library's own types.
//   * Spans nest (svc call -> ds call -> smr call) through a per-thread
//     open-span stack. Only sampled operations record: the caller calls
//     ThreadSpans::begin_op per operation, and an unsampled call costs one
//     thread-local load and branch. Some sampled operations record every
//     span, others their root spans only; the difference prices a nested
//     span in the workload itself (in_situ_cost()).
//   * When a root span closes, its tree is folded into per-kind totals
//     (aggregate()) and the buffer is reused, so recording stays in a few
//     cache lines. A capped prefix of raw spans is kept for chrome_trace(),
//     which writes Chrome trace-event JSON.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.hpp"
#include "smr/smr.hpp"
#include "stats.hpp"

namespace perfbench {

inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

enum class Kind : std::uint8_t {
  kDs,       // structure call (items = keys)
  kStartOp,  // smr brackets
  kEndOp,
  kRead,     // smr protected read
  kAlloc,    // pool: node allocation through the scheme
  kRetire,   // reclaim: retire, including any reclamation pass it runs
  kSubmit,   // svc client calls (items = requests)
  kFlush,
  kHarvest,
  kProbe,    // empty span opened first in a full op's root (in_situ_cost)
  kCount
};
inline constexpr std::size_t kKinds = static_cast<std::size_t>(Kind::kCount);
inline constexpr const char* kKindName[kKinds] = {
    "ds.call",        "smr.start_op", "smr.end_op", "smr.read",
    "pool.alloc",     "reclaim.retire", "svc.submit", "svc.flush",
    "svc.harvest",    "trace.probe"};
inline constexpr const char* kKindLayer[kKinds] = {
    "ds", "smr", "smr", "smr", "pool", "reclaim", "svc", "svc", "svc", "trace"};

struct SpanRec {
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  std::uint32_t parent = 0;  // index within its root span's tree, or kNoParent
  std::uint32_t op = 0;      // sampled operation the span belongs to
  std::uint16_t items = 1;
  Kind kind = Kind::kDs;
};
inline constexpr std::uint32_t kNoParent = ~0u;

/// Spans folded per kind, as recorded: tracing cost is taken off later,
/// by corrected_mean(), once the run has measured it (in_situ_cost()).
struct KindTotals {
  std::uint64_t spans = 0;
  std::uint64_t items = 0;
  std::uint64_t children = 0;     // spans directly nested in these
  std::uint64_t descendants = 0;  // spans nested in these at any depth
  double dur_ns = 0;
  double self_ns = 0;
  // The same, for the spans of this kind that were roots (outermost).
  std::uint64_t roots = 0;
  std::uint64_t root_descendants = 0;
  double root_dur_ns = 0;
};
using KindArray = std::array<KindTotals, kKinds>;

/// A sampled op records either every span (`full`) or its root spans only
/// (`bare`); comparing the two prices a nested span in the workload itself.
struct TraceTotals {
  KindArray full{};
  KindArray bare{};
};

inline void add(TraceTotals& into, const TraceTotals& from) {
  for (auto [to, fr] : {std::pair{&into.full, &from.full},
                        std::pair{&into.bare, &from.bare}}) {
    for (std::size_t k = 0; k < kKinds; ++k) {
      KindTotals& a = (*to)[k];
      const KindTotals& b = (*fr)[k];
      a.spans += b.spans;
      a.items += b.items;
      a.children += b.children;
      a.descendants += b.descendants;
      a.dur_ns += b.dur_ns;
      a.self_ns += b.self_ns;
      a.roots += b.roots;
      a.root_descendants += b.root_descendants;
      a.root_dur_ns += b.root_dur_ns;
    }
  }
}

/// What recording one span costs: `inside` lands within the span's own
/// interval (about one clock read plus bookkeeping), `outside` is its
/// whole cost as an enclosing span sees it.
struct SpanCost {
  double inside = 0;
  double outside = 0;
};

/// aggregate()'s working buffers, kept by the caller so that folding a
/// sampled op allocates nothing.
struct FoldScratch {
  std::vector<SelfTime> self;
  std::vector<std::uint32_t> children, descendants;
};

/// Fold `spans` (one thread, start order, parents before children) into
/// `out`: durations, self times (a span's duration less the union of its
/// children's intervals), and the child and descendant counts the cost
/// correction needs.
inline void aggregate(const std::vector<SpanRec>& spans, KindArray& out,
                      FoldScratch& scratch) {
  const std::size_t n = spans.size();
  std::vector<SelfTime>& self = scratch.self;
  std::vector<std::uint32_t>& children = scratch.children;
  std::vector<std::uint32_t>& descendants = scratch.descendants;
  self.clear();
  children.assign(n, 0);
  descendants.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const SpanRec& s = spans[i];
    self.emplace_back(s.start, s.end);
    if (s.parent != kNoParent) {
      self[s.parent].add_child(s.start, s.end);
      ++children[s.parent];
    }
  }
  for (std::size_t i = n; i-- > 0;) {
    if (spans[i].parent != kNoParent) {
      descendants[spans[i].parent] += 1 + descendants[i];
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    const SpanRec& s = spans[i];
    KindTotals& k = out[static_cast<std::size_t>(s.kind)];
    const auto dur = static_cast<double>(s.end - s.start);
    k.spans += 1;
    k.items += s.items;
    k.children += children[i];
    k.descendants += descendants[i];
    k.dur_ns += dur;
    k.self_ns += static_cast<double>(self[i].self());
    if (s.parent == kNoParent) {
      k.roots += 1;
      k.root_descendants += descendants[i];
      k.root_dur_ns += dur;
    }
  }
}

/// The span cost as the workload pays it. `inside` is the mean recorded
/// duration of the empty probe span that opens first in every full op's
/// root. `outside` is what nested spans add to their root: per root kind,
/// the full roots' duration less as many bare roots' mean duration, summed
/// over kinds and divided by the spans nested in those full roots. Either
/// is 0 when the slice recorded no spans to price it by.
inline SpanCost in_situ_cost(const TraceTotals& t) {
  SpanCost cost;
  const KindTotals& probe = t.full[static_cast<std::size_t>(Kind::kProbe)];
  if (probe.spans != 0) {
    cost.inside = probe.dur_ns / static_cast<double>(probe.spans);
  }
  double added = 0, nested = 0;
  for (std::size_t k = 0; k < kKinds; ++k) {
    const KindTotals& f = t.full[k];
    const KindTotals& b = t.bare[k];
    if (f.roots == 0 || b.roots == 0 || f.root_descendants == 0) continue;
    added += f.root_dur_ns - b.root_dur_ns / static_cast<double>(b.roots) *
                                 static_cast<double>(f.roots);
    nested += static_cast<double>(f.root_descendants);
  }
  if (nested != 0) cost.outside = added / nested;
  return cost;
}

/// Mean duration (or self time) per span (or per item) of one kind, less
/// the tracing's own cost: a span's interval holds its own `inside` cost
/// plus the whole `outside` cost of every descendant, and its self time
/// holds its own `inside` plus, per child, the part of the child's cost
/// outside the child's interval. Floored at zero.
inline double corrected_mean(const KindTotals& k, SpanCost cost, bool self,
                             bool per_item) {
  const double count = static_cast<double>(per_item ? k.items : k.spans);
  if (count == 0) return 0;
  const double total =
      self ? k.self_ns - cost.inside * static_cast<double>(k.spans) -
                 (cost.outside - cost.inside) *
                     static_cast<double>(k.children)
           : k.dur_ns - cost.inside * static_cast<double>(k.spans) -
                 cost.outside * static_cast<double>(k.descendants);
  return std::max(0.0, total / count);
}

/// Spans recorded, over every kind, full and bare.
inline std::uint64_t span_count(const TraceTotals& t) {
  std::uint64_t n = 0;
  for (std::size_t k = 0; k < kKinds; ++k) {
    n += t.full[k].spans + t.bare[k].spans;
  }
  return n;
}

/// Per-thread recorder. Owned by the bench; a worker installs it in
/// tl_spans while it runs a traced instance. On cache lines of its own:
/// its worker writes it on every op.
struct alignas(64) ThreadSpans {
  static constexpr int kMaxDepth = 16;
  /// One op in kSampleEvery records every span, and another one in
  /// kSampleEvery (half a period later) records its root spans only.
  static constexpr std::uint64_t kSampleEvery = 8;

  bool sampling = false;
  bool bare = false;  // the sampled op records its root spans only
  std::uint32_t op = 0;
  TraceTotals totals{};       // folded spans, until the owner takes them
  std::vector<SpanRec> lane;  // raw spans kept for the Chrome trace
  std::size_t lane_cap = 0;
  /// When set, every structure call appends one execution timestamp per
  /// key (sampled or not): the svc workload pairs them with completions
  /// to measure queue wait.
  std::vector<std::uint64_t>* exec_log = nullptr;

  // Out of line, so the unsampled path inlined into every shadowed call
  // stays a load and a branch and the traced code keeps the untraced
  // code's shape as far as it can.
  [[gnu::noinline]] std::uint32_t open(Kind kind, std::uint32_t items) {
    const auto index = static_cast<std::uint32_t>(spans_.size());
    SpanRec rec;
    rec.parent = depth_ > 0 ? stack_[depth_ - 1] : kNoParent;
    rec.op = op;
    rec.items = static_cast<std::uint16_t>(items);
    rec.kind = kind;
    spans_.push_back(rec);
    stack_[depth_++] = index;
    spans_.back().start = now_ns();
    if (depth_ == 1 && !bare) close(open(Kind::kProbe, 0));
    return index;
  }

  [[gnu::noinline]] void close(std::uint32_t index) {
    spans_[index].end = now_ns();
    if (--depth_ == 0) fold();
  }

  void set_items(std::uint32_t index, std::uint32_t items) {
    spans_[index].items = static_cast<std::uint16_t>(items);
  }

  bool can_open() const { return depth_ < (bare ? 1 : kMaxDepth); }

  /// Called before op `i` of a worker's stream: decides what it records.
  void begin_op(std::uint64_t i) {
    const std::uint64_t phase = i % kSampleEvery;
    sampling = phase == 0 || phase == kSampleEvery / 2;
    bare = phase != 0;
    ++op;
  }

 private:
  void fold() {
    aggregate(spans_, bare ? totals.bare : totals.full, scratch_);
    const std::size_t keep =
        std::min(spans_.size(), lane_cap - std::min(lane_cap, lane.size()));
    lane.insert(lane.end(), spans_.begin(),
                spans_.begin() + static_cast<std::ptrdiff_t>(keep));
    spans_.clear();
  }

  std::vector<SpanRec> spans_;  // the open root span's tree
  FoldScratch scratch_;
  std::uint32_t stack_[kMaxDepth] = {};
  int depth_ = 0;
};

inline thread_local ThreadSpans* tl_spans = nullptr;

class Span {
 public:
  explicit Span(Kind kind, std::uint32_t items = 1) {
    ThreadSpans* t = tl_spans;
    if (__builtin_expect(t == nullptr || !t->sampling || !t->can_open(), 1)) {
      return;
    }
    t_ = t;
    index_ = t->open(kind, items);
  }
  ~Span() {
    if (__builtin_expect(t_ != nullptr, 0)) t_->close(index_);
  }
  /// For calls whose item count is known only when they return.
  void set_items(std::uint32_t items) {
    if (t_ != nullptr) t_->set_items(index_, items);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  ThreadSpans* t_ = nullptr;
  std::uint32_t index_ = 0;
};

/// An SMR scheme with its per-call entry points timed. Internal calls the
/// scheme makes to itself (its reclamation pass inside retire) resolve to
/// the base through CRTP and are timed as part of the shadowed call.
template <template <typename> class S>
struct Traced {
  template <typename Node>
  class type : public S<Node> {
    using Base = S<Node>;

   public:
    using Base::Base;

    void start_op(int tid) {
      Span span(Kind::kStartOp);
      Base::start_op(tid);
    }
    void end_op(int tid) {
      Span span(Kind::kEndOp);
      Base::end_op(tid);
    }
    mp::smr::TaggedPtr read(int tid, int refno,
                            const mp::smr::AtomicTaggedPtr& src) {
      Span span(Kind::kRead);
      return Base::read(tid, refno, src);
    }
    template <typename... Args>
    Node* alloc(int tid, Args&&... args) {
      Span span(Kind::kAlloc);
      return Base::alloc(tid, std::forward<Args>(args)...);
    }
    void retire(int tid, Node* node) {
      Span span(Kind::kRetire);
      Base::retire(tid, node);
    }
    /// Handles must name the traced type, or the structure's calls would
    /// bypass the shadows above.
    mp::smr::ThreadHandle<type> handle(int tid) noexcept {
      return mp::smr::ThreadHandle<type>(*this, tid);
    }
  };
};

/// A structure with its operations timed as ds spans.
template <typename DS>
class TracedDs : public DS {
 public:
  using DS::DS;
  using Handle = typename DS::Handle;
  using Key = typename DS::Key;
  using Value = typename DS::Value;

  bool contains(Handle h, Key key) {
    mark_exec(1);
    Span span(Kind::kDs);
    return DS::contains(h, key);
  }
  bool get(Handle h, Key key, Value& out) {
    mark_exec(1);
    Span span(Kind::kDs);
    return DS::get(h, key, out);
  }
  std::size_t get_many(Handle h, const Key* keys, std::size_t count,
                       Value* values, bool* found) {
    mark_exec(count);
    Span span(Kind::kDs, static_cast<std::uint32_t>(count));
    return DS::get_many(h, keys, count, values, found);
  }
  bool insert(Handle h, Key key, Value value) {
    mark_exec(1);
    Span span(Kind::kDs);
    return DS::insert(h, key, value);
  }
  bool remove(Handle h, Key key) {
    mark_exec(1);
    Span span(Kind::kDs);
    return DS::remove(h, key);
  }

 private:
  static void mark_exec(std::size_t keys) {
    ThreadSpans* t = tl_spans;
    if (t == nullptr || t->exec_log == nullptr) return;
    t->exec_log->insert(t->exec_log->end(), keys, now_ns());
  }
};

/// One Chrome-trace lane: the spans a worker recorded on one instance.
struct Lane {
  std::string process;  // the instance, e.g. "MP traced"
  int pid = 0;
  int tid = 0;
  std::vector<SpanRec> spans;
};

/// Chrome trace-event JSON (chrome://tracing, Perfetto): one process per
/// instance, one lane per worker thread; args.op ties the spans of one
/// sampled operation together. Times are microseconds from `origin_ns`.
inline std::string chrome_trace(const std::vector<Lane>& lanes,
                                std::uint64_t origin_ns) {
  namespace json = mp::obs::json;
  json::Array events;
  const auto us = [&](std::uint64_t ns) {
    return static_cast<double>(ns - origin_ns) / 1000.0;
  };
  for (const Lane& lane : lanes) {
    events.push_back(json::Object{
        {"name", "process_name"}, {"ph", "M"}, {"pid", lane.pid},
        {"tid", lane.tid},
        {"args", json::Object{{"name", lane.process}}}});
    events.push_back(json::Object{
        {"name", "thread_name"}, {"ph", "M"}, {"pid", lane.pid},
        {"tid", lane.tid},
        {"args",
         json::Object{{"name", "worker " + std::to_string(lane.tid)}}}});
    for (const SpanRec& s : lane.spans) {
      const auto k = static_cast<std::size_t>(s.kind);
      events.push_back(json::Object{
          {"name", kKindName[k]},
          {"cat", kKindLayer[k]},
          {"ph", "X"},
          {"ts", us(s.start)},
          {"dur", static_cast<double>(s.end - s.start) / 1000.0},
          {"pid", lane.pid},
          {"tid", lane.tid},
          {"args", json::Object{{"op", s.op}, {"items", s.items}}}});
    }
  }
  json::Value doc = json::Object{{"traceEvents", std::move(events)},
                                 {"displayTimeUnit", "ns"}};
  return doc.dump();
}

}  // namespace perfbench
