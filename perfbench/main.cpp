// perfbench: one workload, one seed; MP, HP and EBR side by side.
//
//   perfbench --workload <bst-read|hash-write|hash-stall|svc-zipf>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//
// One instance per scheme, default foreground smr::Config, three worker
// threads (tids 0-2). The main thread coordinates and, on hash-stall, is
// the one parked helper (tid 3). Schemes run in interleaved rounds: round
// r runs every instance and the control (K) for one fixed-work slice each
// in rotated order (ABCK, BCKA, ...), so host drift hits all schemes
// alike, and each per-round metric is the median over the quietest half
// of that instance's slices (median_of). Every worker replays the same
// seeded operation stream on every instance. Throughput and set-up are
// timed in thread CPU time, and scaled, as the latencies are, by the speed
// of a bench-owned control slice run in the same round (ControlInstance);
// see README.md for why.
//
// --trace 0 prints the end-to-end metrics. --trace 1 adds a traced copy of
// each instance (trace.hpp adaptors, sampled spans), interleaved with the
// untraced ones, and prints the per-layer metrics: counts from the
// untraced instances' stats, durations from the traced ones.
//
// The last stdout line is the result object; the line before it carries
// host context (steal ticks, calibration-loop speed, per-round sample
// counts). Exit status 0 means the run completed; "correct" reports the
// correctness gate.
#include <fcntl.h>
#include <pthread.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/rng.hpp"
#include "common/zipf.hpp"
#include "ds/michael_hashset.hpp"
#include "ds/natarajan_tree.hpp"
#include "obs/json.hpp"
#include "smr/smr.hpp"
#include "stats.hpp"
#include "svc/sharded_map.hpp"
#include "tickets.hpp"
#include "trace.hpp"

namespace {

namespace pb = perfbench;
namespace smr = mp::smr;
namespace json = mp::obs::json;
using mp::common::Xoshiro256;

// ---- Build gate: refuse to measure a build whose numbers mean nothing ----

#if defined(__SANITIZE_THREAD__)
constexpr bool kThreadSanitizer = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
constexpr bool kThreadSanitizer = true;
#else
constexpr bool kThreadSanitizer = false;
#endif
#else
constexpr bool kThreadSanitizer = false;
#endif

const char* build_refusal() {
  if (smr::kPoolForcedOff || kThreadSanitizer) return "a sanitizer build";
  if (smr::kOracleEnabled) return "an SMR_ORACLE build";
#if !defined(__OPTIMIZE__) || !defined(NDEBUG)
  return "a non-optimised build (needs optimisation on and NDEBUG)";
#else
  return nullptr;
#endif
}

// ---- Workloads ----

constexpr int kWorkers = 3;
constexpr int kHelperTid = kWorkers;
constexpr std::uint64_t kKeyRange = 100000;
constexpr std::size_t kPrefill = 50000;
constexpr int kSetupReps = 7;
constexpr std::size_t kLaneCap = 2000;
constexpr std::size_t kHashBuckets = 16384;
constexpr std::size_t kShards = 4;
constexpr std::size_t kShardBuckets = 4096;
constexpr std::size_t kOutstanding = 64;
static_assert(kOutstanding < perfbench::TicketWindow::kWindow);
constexpr std::size_t kBatchLimit = 16;
constexpr std::size_t kMultiKeys = 8;
constexpr double kZipfTheta = 0.99;

enum class Shape { kBst, kHash, kSvc };

struct Spec {
  const char* name;
  Shape shape;
  int contains_pct;  // the rest split insert/remove (svc: the control's)
  int insert_pct;
  bool stall;
  std::uint64_t ops_per_slice;  // per worker (svc: requests per client)
  /// The control's reference throughput (Mop/s over all workers): the
  /// per-round metrics are reported as on a host where the control runs
  /// this fast (ControlInstance).
  double control_ref;
};

constexpr Spec kSpecs[] = {
    {"bst-read", Shape::kBst, 90, 5, false, 20000, 10.0},
    {"hash-write", Shape::kHash, 0, 50, false, 100000, 18.0},
    {"hash-stall", Shape::kHash, 0, 50, true, 40000, 18.0},
    {"svc-zipf", Shape::kSvc, 90, 5, false, 100000, 13.0},
};

std::uint64_t value_of(std::uint64_t key) {
  return (key * 0x9E3779B97F4A7C15ULL) ^ 0x5bd1e995ULL;
}

/// The data set is part of a workload's definition: the prefill keys and
/// the Zipf rank -> key mapping come from this fixed seed, and --seed
/// draws the operation streams. A seed-drawn data set moved count metrics
/// that depend only on it (BST reads per op by 3%, svc reads per op by
/// 13%) from seed to seed.
constexpr std::uint64_t kDataSeed = 0x5eed;

/// Everything generated before any scheme exists.
struct Inputs {
  std::uint64_t seed = 0;
  std::vector<std::uint64_t> prefill;      // kPrefill distinct keys
  std::vector<std::uint64_t> rank_to_key;  // svc: Zipf rank -> key
  std::unique_ptr<mp::common::ZipfGenerator> zipf;
};

Inputs make_inputs(const Spec& spec, std::uint64_t seed) {
  Inputs in;
  in.seed = seed;
  Xoshiro256 rng = Xoshiro256::stream(kDataSeed, 0);
  std::vector<char> taken(kKeyRange + 1, 0);
  while (in.prefill.size() < kPrefill) {
    const std::uint64_t key = 1 + rng.next_below(kKeyRange);
    if (taken[key] == 0) {
      taken[key] = 1;
      in.prefill.push_back(key);
    }
  }
  if (spec.shape == Shape::kSvc) {
    in.rank_to_key.resize(kKeyRange);
    for (std::uint64_t i = 0; i < kKeyRange; ++i) in.rank_to_key[i] = i + 1;
    for (std::uint64_t i = kKeyRange - 1; i > 0; --i) {
      std::swap(in.rank_to_key[i], in.rank_to_key[rng.next_below(i + 1)]);
    }
    in.zipf = std::make_unique<mp::common::ZipfGenerator>(kKeyRange,
                                                          kZipfTheta);
  }
  return in;
}

// ---- Instances ----

/// A value on cache lines of its own: each worker writes its state on
/// every op, and neighbours in one line would bounce it between cores.
template <typename T>
struct alignas(64) Padded {
  T v;
};

/// One worker's share of one slice, on cache lines of its own.
struct alignas(64) WorkerOut {
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  std::uint64_t inserted = 0;
  std::uint64_t removed = 0;
  std::uint64_t bad_values = 0;
  std::uint64_t ticket_errors = 0;
  std::uint64_t flushes = 0;
  std::uint64_t cpu_ns = 0;  // worker thread CPU time spent in the slice
  std::uint64_t wall_ns = 0;
  double wait_ns = 0;  // svc queue wait, traced instances only
  std::uint64_t waits = 0;
  std::vector<std::uint32_t> lat;
  std::string error;
};

/// CPU time of the calling thread. On a guest kernel with paravirtual
/// steal accounting it excludes time the hypervisor ran another tenant on
/// the vCPU.
std::uint64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

std::uint32_t clamp_ns(std::uint64_t ns) {
  return ns > 0xFFFFFFFFULL ? 0xFFFFFFFFu : static_cast<std::uint32_t>(ns);
}

class Instance {
 public:
  Instance(std::string scheme, bool traced)
      : scheme(std::move(scheme)), traced(traced) {}
  virtual ~Instance() = default;
  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;

  virtual void prefill(const std::vector<std::uint64_t>& keys) = 0;
  /// One worker's share of a slice: `n` ops (svc: requests).
  virtual void work(int w, std::uint64_t n, WorkerOut& out) = 0;
  /// hash-stall: enter an operation on tid kHelperTid and hold it; then
  /// release it and free what the slice retired (see DirectInstance).
  virtual void stall_enter() {}
  virtual void stall_exit() {}
  virtual smr::StatsSnapshot stats() const = 0;
  /// Per-domain stats (svc shards); a single entry otherwise.
  virtual std::vector<smr::StatsSnapshot> domain_stats() const {
    return {stats()};
  }
  /// The end-of-run correctness gate; drains every domain. Returns the
  /// failures found, empty when every check holds.
  virtual std::string check_and_drain() = 0;

  const std::string scheme;
  const bool traced;
  std::int64_t net_inserts = 0;  // successful inserts - removes, all slices
};

template <typename Scheme>
std::string check_domain(Scheme& s, const char* where) {
  std::string why;
  if (!smr::WasteWatchdog<Scheme>(s).ok()) {
    why += std::string(where) + ": waste bound exceeded; ";
  }
  s.drain();
  const smr::StatsSnapshot st = s.stats_snapshot();
  if (st.retires != st.reclaims + st.drained) {
    why += std::string(where) + ": retires " + std::to_string(st.retires) +
           " != reclaims " + std::to_string(st.reclaims) + " + drained " +
           std::to_string(st.drained) + "; ";
  }
  return why;
}

/// bst-read, hash-write, hash-stall: workers call the structure directly.
template <typename DS>
class DirectInstance final : public Instance {
  using Scheme = typename DS::Scheme;
  using Node = typename Scheme::node_type;

 public:
  template <typename... Args>
  DirectInstance(const char* scheme, bool traced, const Spec& spec,
                 std::uint64_t seed, Args&&... args)
      : Instance(scheme, traced),
        spec_(spec),
        ds_(smr::Config{}, std::forward<Args>(args)...) {
    for (int w = 0; w < kWorkers; ++w) {
      rngs_.push_back({Xoshiro256::stream(seed, 1 + w)});
    }
  }

  ~DirectInstance() override {
    if (anchor_node_ != nullptr) ds_.scheme().delete_unlinked(anchor_node_);
  }

  void prefill(const std::vector<std::uint64_t>& keys) override {
    const auto handle = ds_.scheme().handle(0);
    for (const std::uint64_t key : keys) {
      prefilled_ += ds_.insert(handle, key, value_of(key)) ? 1 : 0;
    }
  }

  void work(int w, std::uint64_t n, WorkerOut& out) override {
    const auto handle = ds_.scheme().handle(w);
    Xoshiro256& rng = rngs_[w].v;
    pb::ThreadSpans* spans = pb::tl_spans;
    const auto contains = static_cast<std::uint64_t>(spec_.contains_pct);
    const auto insert = contains + static_cast<std::uint64_t>(spec_.insert_pct);
    out.lat.resize(n);
    std::uint64_t prev = pb::now_ns();
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::uint64_t coin = rng.next_below(100);
      const std::uint64_t key = 1 + rng.next_below(kKeyRange);
      if (spans != nullptr) spans->begin_op(i);
      if (coin < contains) {
        ds_.contains(handle, key);
      } else if (coin < insert) {
        out.inserted += ds_.insert(handle, key, value_of(key)) ? 1 : 0;
      } else {
        out.removed += ds_.remove(handle, key) ? 1 : 0;
      }
      const std::uint64_t t = pb::now_ns();
      out.lat[i] = clamp_ns(t - prev);  // chained: includes the key draw
      prev = t;
    }
    if (spans != nullptr) spans->sampling = false;
    out.ops = n;
  }

  /// The structure's bucket heads are private, so the helper reads a
  /// bench-owned link to a node carrying the index of a mid-table bucket
  /// head: the same margin footprint for MP, one named node for HP, and an
  /// announced epoch for EBR — which is what pins EBR's whole backlog.
  void stall_enter() override {
    Scheme& s = ds_.scheme();
    if (anchor_node_ == nullptr) {
      anchor_node_ = s.alloc(kHelperTid, std::uint64_t{0}, std::uint64_t{0});
      s.set_index(anchor_node_, 1u << 31);
      anchor_.store(s.make_link(anchor_node_));
    }
    s.start_op(kHelperTid);
    (void)s.read(kHelperTid, 0, anchor_);
  }
  /// Release the stall, then drain: every thread is outside an operation,
  /// and each stalled round starts from empty retired lists, so rounds
  /// stay identically distributed instead of carrying a phase-dependent
  /// EBR backlog from one stall into the next. run_slice charges the
  /// drain's CPU time to the slice.
  void stall_exit() override {
    ds_.scheme().end_op(kHelperTid);
    ds_.scheme().drain();
  }

  smr::StatsSnapshot stats() const override {
    return ds_.scheme().stats_snapshot();
  }

  std::string check_and_drain() override {
    std::string why;
    const auto expected = static_cast<std::int64_t>(prefilled_) + net_inserts;
    const auto size = static_cast<std::int64_t>(ds_.size());
    if (size != expected) {
      why += "size " + std::to_string(size) + " != prefill + inserts - "
             "removes = " + std::to_string(expected) + "; ";
    }
    if (!ds_.validate()) why += "structure invariant broken; ";
    return why + check_domain(ds_.scheme(), "structure");
  }

 private:
  const Spec& spec_;
  DS ds_;
  std::vector<Padded<Xoshiro256>> rngs_;
  std::size_t prefilled_ = 0;
  Node* anchor_node_ = nullptr;
  smr::AtomicTaggedPtr anchor_;
};

/// svc-zipf: closed-loop Client threads over a sharded hash map.
template <typename Structure>
class SvcInstance final : public Instance {
  using Map = mp::svc::ShardedMap<Structure>;
  using Client = typename Map::Client;

 public:
  SvcInstance(const char* scheme, bool traced, const Inputs& in)
      : Instance(scheme, traced),
        in_(in),
        map_(kShards, smr::Config{}, kShardBuckets),
        tickets_(kWorkers),
        exec_(kWorkers),
        exec_head_(kWorkers, {0}) {
    for (int w = 0; w < kWorkers; ++w) {
      rngs_.push_back({Xoshiro256::stream(in.seed, 1 + w)});
      clients_.push_back(std::make_unique<Client>(map_, w, kBatchLimit,
                                                  kOutstanding));
    }
  }

  void prefill(const std::vector<std::uint64_t>& keys) override {
    for (const std::uint64_t key : keys) {
      prefilled_ += map_.insert(0, key, value_of(key)) ? 1 : 0;
    }
  }

  void work(int w, std::uint64_t target, WorkerOut& out) override {
    Client& client = *clients_[w];
    Xoshiro256& rng = rngs_[w].v;
    pb::ThreadSpans* spans = pb::tl_spans;
    exec_[w].clear();
    exec_head_[w].v = 0;
    if (spans != nullptr) spans->exec_log = &exec_[w];
    const std::uint64_t flushes_before = client.batches_flushed();
    out.lat.clear();
    out.lat.reserve(target + kMultiKeys);
    Draw next;
    bool have_next = false;
    std::uint64_t submitted = 0;
    std::uint64_t loop = 0;
    while (submitted < target || client.in_flight() > 0) {
      if (spans != nullptr) spans->begin_op(loop);
      ++loop;
      while (submitted < target) {
        if (!have_next) {
          next = draw(rng);
          have_next = true;
        }
        const std::size_t need = next.multi ? kMultiKeys : 1;
        if (client.in_flight() + need > kOutstanding) break;
        const std::uint64_t t = pb::now_ns();
        pb::Span span(pb::Kind::kSubmit, static_cast<std::uint32_t>(need));
        std::optional<std::uint64_t> first;
        if (next.multi) {
          first = client.submit_multi_get(next.keys, kMultiKeys, t);
        } else {
          mp::svc::Request request;
          request.op = next.op;
          request.key = next.keys[0];
          request.value = value_of(next.keys[0]);
          request.user = t;
          first = client.submit(request);
        }
        if (!first) {
          out.ticket_errors += 1;
          out.failed += need;
        }
        for (std::size_t k = 0; first && k < need; ++k) {
          if (!tickets_[w].v.hand_out(*first + k)) out.ticket_errors += 1;
        }
        submitted += need;
        have_next = false;
      }
      if (harvest(w, out) == 0) {
        {
          pb::Span span(pb::Kind::kFlush);
          client.flush();
        }
        harvest(w, out);
      }
    }
    if (spans != nullptr) {
      spans->sampling = false;
      spans->exec_log = nullptr;
    }
    out.ops = submitted;
    out.flushes = client.batches_flushed() - flushes_before;
  }

  smr::StatsSnapshot stats() const override { return map_.stats_total(); }

  std::vector<smr::StatsSnapshot> domain_stats() const override {
    std::vector<smr::StatsSnapshot> out;
    for (std::size_t s = 0; s < map_.shard_count(); ++s) {
      out.push_back(map_.shard_stats(s));
    }
    return out;
  }

  std::string check_and_drain() override {
    std::string why;
    for (int w = 0; w < kWorkers; ++w) {
      const Client& client = *clients_[w];
      if (client.in_flight() != 0 || client.completed() != client.submitted() ||
          !tickets_[w].v.all_complete(client.submitted())) {
        why += "client " + std::to_string(w) + ": submitted " +
               std::to_string(client.submitted()) + ", completed " +
               std::to_string(client.completed()) +
               ", not every ticket harvested; ";
      }
    }
    const auto expected = static_cast<std::int64_t>(prefilled_) + net_inserts;
    const auto size = static_cast<std::int64_t>(map_.size());
    if (size != expected) {
      why += "size " + std::to_string(size) + " != prefill + inserts - "
             "removes = " + std::to_string(expected) + "; ";
    }
    for (std::size_t s = 0; s < map_.shard_count(); ++s) {
      if (!map_.shard(s).validate()) {
        why += "shard " + std::to_string(s) + " invariant broken; ";
      }
      why += check_domain(map_.scheme(s),
                          ("shard " + std::to_string(s)).c_str());
    }
    return why;
  }

 private:
  struct Draw {
    bool multi = false;
    mp::svc::OpType op = mp::svc::OpType::kGet;
    std::uint64_t keys[kMultiKeys] = {};
  };

  /// Request mix by request count: 45% gets inside 8-key multi-gets, 45%
  /// single gets, 5% inserts, 5% removes. Weights are per submission, in
  /// eighths: a multi-get carries eight requests.
  Draw draw(Xoshiro256& rng) const {
    Draw d;
    const std::uint64_t coin = rng.next_below(45 + 360 + 40 + 40);
    const auto key = [&] { return in_.rank_to_key[in_.zipf->next(rng)]; };
    if (coin < 45) {
      d.multi = true;
      for (std::uint64_t& k : d.keys) k = key();
      return d;
    }
    d.op = coin < 405   ? mp::svc::OpType::kGet
           : coin < 445 ? mp::svc::OpType::kInsert
                        : mp::svc::OpType::kRemove;
    d.keys[0] = key();
    return d;
  }

  /// Pop every ready completion: latency from submit, exactly-once ticket
  /// accounting, value checks, and (traced) queue wait.
  std::size_t harvest(int w, WorkerOut& out) {
    Client& client = *clients_[w];
    const std::vector<std::uint64_t>& exec = exec_[w];
    pb::Span span(pb::Kind::kHarvest);
    const std::uint64_t now = pb::now_ns();
    std::size_t got = 0;
    mp::svc::Completion done;
    while (client.try_complete(done)) {
      ++got;
      out.lat.push_back(clamp_ns(now - done.user));
      if (!tickets_[w].v.complete(done.ticket, client.submitted())) {
        out.ticket_errors += 1;
      }
      if (!done.executed()) {
        out.failed += 1;
        continue;
      }
      switch (done.op) {
        case mp::svc::OpType::kInsert: out.inserted += done.ok ? 1 : 0; break;
        case mp::svc::OpType::kRemove: out.removed += done.ok ? 1 : 0; break;
        default:
          if (done.ok && done.value != value_of(done.key)) out.bad_values += 1;
          break;
      }
      if (exec_head_[w].v < exec.size()) {
        out.wait_ns +=
            static_cast<double>(exec[exec_head_[w].v++] - done.user);
        out.waits += 1;
      }
    }
    span.set_items(static_cast<std::uint32_t>(got));
    return got;
  }

  const Inputs& in_;
  Map map_;
  std::vector<std::unique_ptr<Client>> clients_;
  std::vector<Padded<Xoshiro256>> rngs_;
  std::vector<Padded<pb::TicketWindow>> tickets_;
  std::vector<std::vector<std::uint64_t>> exec_;  // traced: exec timestamps
  std::vector<Padded<std::size_t>> exec_head_;
  std::size_t prefilled_ = 0;
};

/// The control: a bench-owned stand-in for the measured structure that the
/// same workers run as one more slice in every round. Each worker owns a
/// plain, unsynchronised copy of the workload's data set: an unbalanced
/// binary search tree (bst-read, lookups only) or a chained hash table
/// with the workload's bucket count and operation mix (the hash and svc
/// workloads; svc keys from the same Zipf draw), its nodes from a slab of
/// its own with a free list, all of it touched when built so that it adds
/// a fixed, known amount to the resident set (bytes()).
/// Nothing in ../src runs in it, so its speed moves only with the host:
/// its cache and memory latency and its core's clock, which other tenants
/// move by tens of percent over minutes. The per-round metrics of every
/// instance are scaled by Spec::control_ref over the control's Mop/s in
/// the same round.
class ControlInstance final : public Instance {
  struct Node {
    std::uint64_t key;
    std::uint64_t value;
    Node* link[2];  // tree: children; hash chain: link[0] is next
  };
  struct alignas(64) Lane {
    Xoshiro256 rng;
    std::size_t size = 0;
    std::vector<Node*> buckets;
    std::vector<Node> slab;
    Node* free = nullptr;  // free list through link[0]
  };
  /// Nodes per table beyond the prefill: the table's size walks around
  /// the prefill by a few hundred keys.
  static constexpr std::size_t kHeadroom = 16384;

 public:
  ControlInstance(const Spec& spec, const Inputs& in)
      : Instance("control", false), spec_(spec), in_(in) {
    for (int w = 0; w < kWorkers; ++w) {
      lanes_.push_back(Lane{Xoshiro256::stream(in.seed, 101 + w), 0, {}, {},
                            nullptr});
      if (spec.shape != Shape::kBst) {
        Lane& lane = lanes_.back();
        lane.buckets.assign(kHashBuckets, nullptr);
        lane.slab.resize(in.prefill.size() + kHeadroom);
        for (Node& node : lane.slab) release(lane, &node);
      }
    }
    if (spec.shape == Shape::kBst) tree_.resize(in.prefill.size());
  }

  void prefill(const std::vector<std::uint64_t>& keys) override {
    std::size_t next = 0;
    for (const std::uint64_t key : keys) {
      if (spec_.shape == Shape::kBst) {
        Node** at = &root_;
        while (*at != nullptr) at = &(*at)->link[key > (*at)->key ? 1 : 0];
        *at = &(tree_.at(next++) =
                    Node{key, value_of(key), {nullptr, nullptr}});
      } else {
        for (Lane& lane : lanes_) {
          Node*& head = bucket(lane, key);
          head = take(lane, key, head);
          lane.size += 1;
        }
      }
    }
  }

  /// Bytes the control keeps resident for the whole run.
  std::size_t bytes() const {
    std::size_t total = tree_.size() * sizeof(Node);
    for (const Lane& lane : lanes_) {
      total += lane.slab.size() * sizeof(Node) +
               lane.buckets.size() * sizeof(Node*);
    }
    return total;
  }

  void work(int w, std::uint64_t n, WorkerOut& out) override {
    Lane& lane = lanes_[static_cast<std::size_t>(w)];
    const auto contains = static_cast<std::uint64_t>(spec_.contains_pct);
    const auto insert = contains + static_cast<std::uint64_t>(spec_.insert_pct);
    out.lat.resize(n);
    std::uint64_t prev = pb::now_ns();
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::uint64_t coin = lane.rng.next_below(100);
      const std::uint64_t key =
          spec_.shape == Shape::kSvc
              ? in_.rank_to_key[in_.zipf->next(lane.rng)]
              : 1 + lane.rng.next_below(kKeyRange);
      if (spec_.shape == Shape::kBst || coin < contains) {
        out.bad_values += lookup(lane, key) ? 0 : 1;
      } else if (coin < insert) {
        out.inserted += insert_key(lane, key) ? 1 : 0;
      } else {
        out.removed += remove_key(lane, key) ? 1 : 0;
      }
      const std::uint64_t t = pb::now_ns();
      out.lat[i] = clamp_ns(t - prev);
      prev = t;
    }
    out.ops = n;
  }

  smr::StatsSnapshot stats() const override { return {}; }

  /// Key conservation, as for the instances.
  std::string check_and_drain() override {
    std::size_t size = spec_.shape == Shape::kBst ? in_.prefill.size() : 0;
    for (const Lane& lane : lanes_) size += lane.size;
    const std::size_t counted = all_nodes().size();
    const auto expected = static_cast<std::int64_t>(
        in_.prefill.size() * (spec_.shape == Shape::kBst ? 1 : kWorkers)) +
                          net_inserts;
    if (counted != size || static_cast<std::int64_t>(size) != expected) {
      return "size " + std::to_string(counted) + " != prefill + inserts - "
             "removes = " + std::to_string(expected) + "; ";
    }
    return "";
  }

 private:
  static Node*& bucket(Lane& lane, std::uint64_t key) {
    return lane.buckets[(key * 0x9E3779B97F4A7C15ULL >> 32) % kHashBuckets];
  }

  /// Finds `key` by a tree descent or a chain scan; false when a found
  /// node carries the wrong value.
  bool lookup(Lane& lane, std::uint64_t key) {
    const bool tree = spec_.shape == Shape::kBst;
    const Node* node = tree ? root_ : bucket(lane, key);
    while (node != nullptr && node->key != key) {
      node = node->link[tree && key > node->key ? 1 : 0];
    }
    return node == nullptr || node->value == value_of(key);
  }

  bool insert_key(Lane& lane, std::uint64_t key) {
    Node*& head = bucket(lane, key);
    for (const Node* node = head; node != nullptr; node = node->link[0]) {
      if (node->key == key) return false;
    }
    head = take(lane, key, head);
    lane.size += 1;
    return true;
  }

  bool remove_key(Lane& lane, std::uint64_t key) {
    for (Node** at = &bucket(lane, key); *at != nullptr;
         at = &(*at)->link[0]) {
      if ((*at)->key == key) {
        Node* node = *at;
        *at = node->link[0];
        release(lane, node);
        lane.size -= 1;
        return true;
      }
    }
    return false;
  }

  static Node* take(Lane& lane, std::uint64_t key, Node* next) {
    Node* node = lane.free;
    if (node == nullptr) throw std::runtime_error("control: slab exhausted");
    lane.free = node->link[0];
    *node = Node{key, value_of(key), {next, nullptr}};
    return node;
  }

  static void release(Lane& lane, Node* node) {
    node->link[0] = lane.free;
    lane.free = node;
  }

  std::vector<Node*> all_nodes() const {
    std::vector<Node*> out, todo{root_};
    for (const Lane& lane : lanes_) {
      todo.insert(todo.end(), lane.buckets.begin(), lane.buckets.end());
    }
    while (!todo.empty()) {
      Node* node = todo.back();
      todo.pop_back();
      if (node == nullptr) continue;
      out.push_back(node);
      todo.push_back(node->link[0]);
      todo.push_back(node->link[1]);
    }
    return out;
  }

  const Spec& spec_;
  const Inputs& in_;
  Node* root_ = nullptr;  // bst-read: one tree, read by every worker
  std::vector<Node> tree_;
  std::vector<Lane> lanes_;
};

// The plain scheme template, or its traced adaptor.
template <template <typename> class S, bool kTraced>
struct Pick {
  template <typename N>
  using type = S<N>;
};
template <template <typename> class S>
struct Pick<S, true> {
  template <typename N>
  using type = typename pb::Traced<S>::template type<N>;
};

template <typename DS, bool kTraced>
using MaybeTraced = std::conditional_t<kTraced, pb::TracedDs<DS>, DS>;

template <template <typename> class S, bool kTraced>
std::unique_ptr<Instance> make_instance(const char* name, const Spec& spec,
                                        const Inputs& in) {
  using Bst = mp::ds::NatarajanTree<Pick<S, kTraced>::template type>;
  using Hash = mp::ds::MichaelHashSet<Pick<S, kTraced>::template type>;
  switch (spec.shape) {
    case Shape::kBst:
      return std::make_unique<DirectInstance<MaybeTraced<Bst, kTraced>>>(
          name, kTraced, spec, in.seed);
    case Shape::kHash:
      return std::make_unique<DirectInstance<MaybeTraced<Hash, kTraced>>>(
          name, kTraced, spec, in.seed, kHashBuckets);
    case Shape::kSvc:
      return std::make_unique<SvcInstance<MaybeTraced<Hash, kTraced>>>(
          name, kTraced, in);
  }
  return nullptr;
}

template <bool kTraced>
void add_schemes(std::vector<std::unique_ptr<Instance>>& out,
                 const Spec& spec, const Inputs& in) {
  out.push_back(make_instance<smr::MP, kTraced>("MP", spec, in));
  out.push_back(make_instance<smr::HP, kTraced>("HP", spec, in));
  out.push_back(make_instance<smr::EBR, kTraced>("EBR", spec, in));
}

// ---- Worker threads ----

void pin_to(std::thread& thread, int slot) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  // Leave the first allowed CPU to the coordinating thread.
  if (static_cast<int>(cpus.size()) <= kWorkers) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[static_cast<std::size_t>(slot) + 1], &one);
  pthread_setaffinity_np(thread.native_handle(), sizeof one, &one);
}

/// kWorkers persistent threads that run one slice of one instance on
/// command. The coordinator blocks while a slice runs.
class Workers {
 public:
  Workers() : outs_(kWorkers), spans_(kWorkers) {
    for (int w = 0; w < kWorkers; ++w) {
      threads_.emplace_back([this, w] { loop(w); });
      pin_to(threads_.back(), w);
    }
  }
  ~Workers() {
    stop_ = true;
    generation_.fetch_add(1, std::memory_order_release);
    generation_.notify_all();
    for (auto& t : threads_) t.join();
  }
  Workers(const Workers&) = delete;
  Workers& operator=(const Workers&) = delete;

  void run(Instance& instance, std::uint64_t n) {
    current_ = &instance;
    n_ = n;
    for (WorkerOut& out : outs_) {
      std::vector<std::uint32_t> lat = std::move(out.lat);
      out = WorkerOut{};
      out.lat = std::move(lat);
    }
    remaining_.store(kWorkers, std::memory_order_relaxed);
    generation_.fetch_add(1, std::memory_order_release);
    generation_.notify_all();
    for (int r; (r = remaining_.load(std::memory_order_acquire)) != 0;) {
      remaining_.wait(r, std::memory_order_acquire);
    }
  }

  std::vector<WorkerOut>& outs() { return outs_; }
  std::vector<pb::ThreadSpans>& spans() { return spans_; }

 private:
  void loop(int w) {
    std::uint64_t seen = 0;
    while (true) {
      std::uint64_t g = generation_.load(std::memory_order_acquire);
      for (int spin = 0; g == seen && spin < 20000; ++spin) {
        __builtin_ia32_pause();
        g = generation_.load(std::memory_order_acquire);
      }
      while (g == seen) {
        generation_.wait(seen, std::memory_order_acquire);
        g = generation_.load(std::memory_order_acquire);
      }
      seen = g;
      if (stop_) return;
      Instance& instance = *current_;
      pb::tl_spans = instance.traced ? &spans_[w] : nullptr;
      try {
        const std::uint64_t wall = pb::now_ns();
        const std::uint64_t cpu = thread_cpu_ns();
        instance.work(w, n_, outs_[w]);
        outs_[w].cpu_ns = thread_cpu_ns() - cpu;
        outs_[w].wall_ns = pb::now_ns() - wall;
      } catch (const std::exception& e) {
        outs_[w].error = e.what();
      }
      pb::tl_spans = nullptr;
      if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        remaining_.notify_one();
      }
    }
  }

  std::vector<WorkerOut> outs_;
  std::vector<pb::ThreadSpans> spans_;
  Instance* current_ = nullptr;
  std::uint64_t n_ = 0;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> generation_{0};
  std::atomic<int> remaining_{0};
  std::vector<std::thread> threads_;  // last: joined before the rest dies
};

// ---- Rounds ----

struct SliceResult {
  double mops = 0;
  double cpu_s = 0;  // CPU time of the slice: workers, plus a stall's drain
  double cpu_per_op_ns = 0;
  /// Traced instances: cpu_per_op_ns less the tracing's cost at the
  /// in-situ span price, an estimate of the untraced instance's figure.
  double untraced_est_ns = 0;
  /// Largest share of a worker's wall time in the slice that was not run
  /// time: hypervisor steal plus run-queue wait (workers never block).
  double lost = 0;
  /// Spec::control_ref over the control's Mop/s in the slice's round:
  /// above 1 when the host ran the control slower than the reference.
  /// The reported mops, p50 and p99 are scaled by it.
  double host = 1;
  double p50 = 0;
  double p99 = 0;
  std::size_t samples = 0;
  double wait_ns = 0;  // mean svc queue wait (traced instances)
  pb::TraceTotals trace{};
  pb::SpanCost cost;  // traced instances: the slice's in-situ span cost
};

struct Ledger {
  std::vector<SliceResult> slices;
  std::uint64_t ops = 0;
  std::uint64_t flushes = 0;
};

struct RunTotals {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
};

/// Run one slice of `instance` (with the hash-stall helper parked inside an
/// operation for its whole duration) and fold the workers' results.
SliceResult run_slice(Workers& workers, Instance& instance, const Spec& spec,
                      std::uint64_t n, RunTotals& totals, Ledger* ledger,
                      std::vector<pb::Lane>* lanes, int pid) {
  for (pb::ThreadSpans& spans : workers.spans()) {
    spans.lane_cap = lanes != nullptr ? kLaneCap : 0;
  }
  if (spec.stall) instance.stall_enter();
  workers.run(instance, n);
  // The stall's drain frees the slice's backlog on this thread. It is work
  // the slice made, so its CPU time is charged to the slice: a third to
  // each worker's run time (and so to mops), and all of it to cpu_s.
  std::uint64_t drain_ns = 0;
  if (spec.stall) {
    const std::uint64_t cpu = thread_cpu_ns();
    instance.stall_exit();
    drain_ns = thread_cpu_ns() - cpu;
  }

  SliceResult r;
  std::uint64_t ops = 0, waits = 0;
  std::vector<std::uint32_t> lat;
  for (int w = 0; w < kWorkers; ++w) {
    WorkerOut& out = workers.outs()[w];
    r.lost = std::max(r.lost, 1.0 - static_cast<double>(out.cpu_ns) /
                                        static_cast<double>(
                                            std::max(out.wall_ns, out.cpu_ns)));
    out.cpu_ns += drain_ns / kWorkers;
    ops += out.ops;
    r.mops += static_cast<double>(out.ops) /
              static_cast<double>(std::max<std::uint64_t>(out.cpu_ns, 1)) * 1e3;
    r.cpu_s += static_cast<double>(out.cpu_ns) / 1e9;
    instance.net_inserts += static_cast<std::int64_t>(out.inserted) -
                            static_cast<std::int64_t>(out.removed);
    if (!out.error.empty()) totals.errors.push_back(out.error);
    if (out.bad_values != 0) totals.errors.push_back("wrong value returned");
    if (out.ticket_errors != 0) {
      totals.errors.push_back("ticket completed twice, never, or refused");
    }
    lat.insert(lat.end(), out.lat.begin(), out.lat.end());
    r.wait_ns += out.wait_ns;
    waits += out.waits;
    if (ledger != nullptr) {
      totals.attempted += out.ops;
      totals.failed += out.failed;
      ledger->flushes += out.flushes;
    }
  }
  r.samples = lat.size();
  if (!pb::tail_supported(r.samples, 0.99)) {
    totals.errors.push_back("too few latency samples for p99 in a round");
  } else {
    r.p99 = pb::exact_quantile(lat, 0.99);
    r.p50 = pb::exact_quantile(lat, 0.50);
  }
  r.wait_ns = waits == 0 ? 0 : r.wait_ns / static_cast<double>(waits);
  const double per_op =
      1.0 / static_cast<double>(std::max<std::uint64_t>(ops, 1));
  r.cpu_per_op_ns = r.cpu_s * 1e9 * per_op;
  if (instance.traced) {
    for (int w = 0; w < kWorkers; ++w) {
      pb::ThreadSpans& spans = workers.spans()[w];
      pb::add(r.trace, spans.totals);
      spans.totals = pb::TraceTotals{};
      if (lanes != nullptr) {
        lanes->push_back(pb::Lane{instance.scheme + " traced", pid, w,
                                  std::move(spans.lane)});
      }
      spans.lane.clear();
    }
    r.cost = pb::in_situ_cost(r.trace);
    r.untraced_est_ns =
        r.cpu_per_op_ns -
        r.cost.outside * static_cast<double>(pb::span_count(r.trace)) * per_op;
  }
  if (ledger != nullptr) {
    ledger->slices.push_back(r);
    ledger->ops += ops;
  }
  return r;
}

// ---- Host context ----

std::uint64_t steal_ticks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  std::uint64_t field = 0, steal = 0;
  stat >> cpu;
  for (int i = 0; i < 8 && (stat >> field); ++i) steal = field;
  return steal;
}

/// ns per iteration of a fixed dependent multiply-add chain.
double calibration_ns() {
  constexpr std::uint64_t kIters = 5'000'000;
  volatile std::uint64_t seed = 1;
  std::uint64_t x = seed;
  const std::uint64_t t0 = pb::now_ns();
  for (std::uint64_t i = 0; i < kIters; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
  }
  const std::uint64_t t1 = pb::now_ns();
  seed = x;
  return static_cast<double>(t1 - t0) / static_cast<double>(kIters);
}

/// VmHWM of this process. Read into a stack buffer: a heap allocation on
/// the main thread between set-up and the rounds (an ifstream, as this
/// once used) moved MP's bst-read throughput by 15% for the whole run.
double peak_rss_mb() {
  char buf[4096];
  const int fd = ::open("/proc/self/status", O_RDONLY);
  if (fd < 0) return 0;
  const ssize_t n = ::read(fd, buf, sizeof buf - 1);
  ::close(fd);
  if (n <= 0) return 0;
  buf[n] = '\0';
  const char* at = std::strstr(buf, "VmHWM:");
  return at == nullptr ? 0 : std::strtod(at + 6, nullptr) / 1024.0;
}

// ---- Metrics ----

class Metrics {
 public:
  void add(const std::string& name, double value, const char* unit) {
    metrics_.emplace_back(name, json::Object{{"value", value}, {"unit", unit}});
  }
  json::Object take() { return std::move(metrics_); }

 private:
  json::Object metrics_;
};

/// Median of `f` over the quietest half of the instance's rounds: those
/// whose workers lost the least time to the host (stats.hpp).
template <typename F>
double median_of(const Ledger& ledger, F f) {
  std::vector<double> lost;
  for (const SliceResult& s : ledger.slices) lost.push_back(s.lost);
  std::vector<double> values;
  for (const std::size_t i : pb::quietest_half(lost)) {
    values.push_back(f(ledger.slices[i]));
  }
  return pb::median(std::move(values));
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

double kind_mean(const SliceResult& s, pb::Kind kind, bool self,
                 bool per_item) {
  return pb::corrected_mean(s.trace.full[static_cast<std::size_t>(kind)],
                            s.cost, self, per_item);
}

void per_layer_metrics(Metrics& m, const std::string& S, const Ledger& plain,
                       const Ledger& traced, const smr::StatsSnapshot& d,
                       const std::vector<smr::StatsSnapshot>& domains) {
  const double ops = static_cast<double>(plain.ops);
  const auto reads = static_cast<double>(d.reads);
  const auto mean = [&](pb::Kind kind, bool self, bool per_item) {
    return median_of(traced, [&](const SliceResult& s) {
      return kind_mean(s, kind, self, per_item);
    });
  };
  m.add("ds.op_ns." + S, mean(pb::Kind::kDs, false, true), "ns");
  m.add("ds.self_ns." + S, mean(pb::Kind::kDs, true, true), "ns");
  m.add("ds.reads_per_op." + S, ratio(reads, ops), "reads/op");
  m.add("smr.read_ns." + S, mean(pb::Kind::kRead, false, false), "ns");
  m.add("smr.fences_per_read." + S, ratio(static_cast<double>(d.fences), reads),
        "fences/read");
  m.add("smr.slow_protect_frac." + S,
        ratio(static_cast<double>(d.slow_protects), reads), "frac");
  if (S == "MP") {
    m.add("smr.hp_fallback_frac." + S,
          ratio(static_cast<double>(d.hp_fallbacks), reads), "frac");
  }
  m.add("smr.bracket_ns." + S,
        mean(pb::Kind::kStartOp, false, false) +
            mean(pb::Kind::kEndOp, false, false),
        "ns");
  m.add("pool.alloc_ns." + S, mean(pb::Kind::kAlloc, false, false), "ns");
  m.add("pool.hit_ratio." + S,
        ratio(static_cast<double>(d.pool_hits),
              static_cast<double>(d.pool_hits + d.pool_misses)),
        "frac");
  m.add("pool.depot_per_kop." + S,
        ratio(static_cast<double>(d.depot_exchanges) * 1e3, ops), "1/kop");
  m.add("reclaim.retire_ns." + S, mean(pb::Kind::kRetire, false, false), "ns");
  m.add("reclaim.passes_per_kop." + S,
        ratio(static_cast<double>(d.empties) * 1e3, ops), "1/kop");
  m.add("reclaim.freed_per_pass." + S,
        ratio(static_cast<double>(d.reclaims), static_cast<double>(d.empties)),
        "nodes/pass");
  m.add("reclaim.max_pause_ns." + S, static_cast<double>(d.max_pause_ns), "ns");
  m.add("reclaim.waste_peak." + S, static_cast<double>(d.peak_retired),
        "nodes");
  m.add("svc.submit_ns." + S, mean(pb::Kind::kSubmit, true, true), "ns");
  m.add("svc.flush_ns." + S, mean(pb::Kind::kFlush, false, false), "ns");
  m.add("svc.harvest_ns." + S, mean(pb::Kind::kHarvest, false, true), "ns");
  m.add("svc.queue_wait_ns." + S,
        median_of(traced, [](const SliceResult& s) { return s.wait_ns; }),
        "ns");
  m.add("svc.requests_per_flush." + S,
        ratio(ops, static_cast<double>(plain.flushes)), "req/flush");
  // Work skew across service shards: the busiest shard's protected reads
  // over the mean (0 where the workload has no service layer).
  double skew = 0;
  if (domains.size() > 1) {
    double most = 0, sum = 0;
    for (const smr::StatsSnapshot& s : domains) {
      most = std::max(most, static_cast<double>(s.reads));
      sum += static_cast<double>(s.reads);
    }
    skew = ratio(most * static_cast<double>(domains.size()), sum);
  }
  m.add("svc.shard_skew." + S, skew, "ratio");
  m.add("trace.overhead_frac." + S,
        1.0 - median_of(traced, [](const SliceResult& s) { return s.mops; }) /
                  median_of(plain, [](const SliceResult& s) { return s.mops; }),
        "frac");
}

struct Args {
  const Spec* spec = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<bst-read|hash-write|hash-stall|svc-zipf> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>]\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      for (const Spec& s : kSpecs) {
        if (value == s.name) args.spec = &s;
      }
      if (args.spec == nullptr) usage("unknown workload '" + value + "'");
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && args.seconds > 0;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      args.trace = value == "1";
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (args.spec == nullptr || !have_seed || !have_seconds || !have_trace) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  return args;
}

std::vector<std::unique_ptr<Instance>> build(const Spec& spec,
                                             const Inputs& in, bool trace) {
  std::vector<std::unique_ptr<Instance>> out;
  add_schemes<false>(out, spec, in);
  if (trace) add_schemes<true>(out, spec, in);
  return out;
}

int run(const Args& args) {
  const Spec& spec = *args.spec;
  const Inputs inputs = make_inputs(spec, args.seed);
  const std::uint64_t steal_before = steal_ticks();
  const double calib_before = calibration_ns();
  Workers workers;
  RunTotals totals;

  // The control is bench overhead, not set-up: built once, warmed, untimed.
  ControlInstance control(spec, inputs);
  control.prefill(inputs.prefill);
  RunTotals control_totals;
  run_slice(workers, control, spec, spec.ops_per_slice / 4, control_totals,
            nullptr, nullptr, 0);

  // Set-up (construction, prefill, a warm-up round of quarter slices),
  // repeated; the last set of instances is the one measured. Timed in CPU
  // time: the main thread's for construction and prefill, the workers' for
  // the warm-up. Each repetition is followed by a control slice and scaled
  // by its host factor, as the per-round metrics are.
  std::vector<double> setup_s, setup_raw_s;
  std::vector<std::unique_ptr<Instance>> instances;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    instances.clear();
    const std::uint64_t cpu = thread_cpu_ns();
    instances = build(spec, inputs, args.trace);
    for (auto& instance : instances) instance->prefill(inputs.prefill);
    double seconds = static_cast<double>(thread_cpu_ns() - cpu) / 1e9;
    for (auto& instance : instances) {
      seconds += run_slice(workers, *instance, spec, spec.ops_per_slice / 4,
                           totals, nullptr, nullptr, 0)
                     .cpu_s;
    }
    const double control_mops =
        run_slice(workers, control, spec, spec.ops_per_slice, control_totals,
                  nullptr, nullptr, 0)
            .mops;
    setup_raw_s.push_back(seconds);
    setup_s.push_back(seconds * control_mops / spec.control_ref);
  }

  // Peak RSS is taken here, at the end of set-up, less the control's fixed
  // share. Over the measured rounds the hash workloads' RSS keeps creeping
  // up by an amount that differs from run to run (README, peak_rss_mb);
  // the whole-run peak goes to the context line.
  const double control_mb =
      static_cast<double>(control.bytes()) / (1024.0 * 1024.0);
  const double setup_peak_mb = peak_rss_mb() - control_mb;

  const std::size_t n = instances.size();
  std::vector<Ledger> ledgers(n);
  Ledger control_ledger;
  std::vector<smr::StatsSnapshot> stats_before(n);
  std::vector<std::vector<smr::StatsSnapshot>> domains_before(n);
  for (std::size_t i = 0; i < n; ++i) {
    stats_before[i] = instances[i]->stats();
    domains_before[i] = instances[i]->domain_stats();
  }
  std::vector<pb::Lane> lanes;
  const std::uint64_t origin = pb::now_ns();
  const auto budget = static_cast<std::uint64_t>(args.seconds * 1e9);
  std::size_t rounds = 0;
  const std::size_t slots = n + 1;  // the instances and the control
  while (true) {
    for (std::size_t pos = 0; pos < slots; ++pos) {
      const std::size_t i = pb::rotation(rounds, pos, slots);
      if (i == n) {
        run_slice(workers, control, spec, spec.ops_per_slice, control_totals,
                  &control_ledger, nullptr, 0);
        continue;
      }
      const bool first_traced =
          instances[i]->traced && ledgers[i].slices.empty();
      run_slice(workers, *instances[i], spec, spec.ops_per_slice, totals,
                &ledgers[i],
                first_traced && !args.trace_out.empty() ? &lanes : nullptr,
                static_cast<int>(i) + 1);
    }
    ++rounds;
    if (rounds % slots == 0) {
      const std::uint64_t elapsed = pb::now_ns() - origin;
      if (elapsed + elapsed / (rounds / slots) > budget) break;
    }
  }
  // Each slice's host factor: how much slower than its reference the
  // control ran in the same round.
  for (Ledger& ledger : ledgers) {
    for (std::size_t r = 0; r < ledger.slices.size(); ++r) {
      ledger.slices[r].host =
          spec.control_ref / control_ledger.slices[r].mops;
    }
  }

  std::vector<smr::StatsSnapshot> deltas(n);
  std::vector<std::vector<smr::StatsSnapshot>> domain_deltas(n);
  for (std::size_t i = 0; i < n; ++i) {
    deltas[i] = instances[i]->stats() - stats_before[i];
    const auto now = instances[i]->domain_stats();
    for (std::size_t d = 0; d < now.size(); ++d) {
      domain_deltas[i].push_back(now[d] - domains_before[i][d]);
    }
  }
  const double calib_after = calibration_ns();
  const std::uint64_t steal_after = steal_ticks();

  // The correctness gate, on every instance and on the control.
  for (std::string& e : control_totals.errors) {
    totals.errors.push_back("control: " + e);
  }
  if (const std::string why = control.check_and_drain(); !why.empty()) {
    totals.errors.push_back("control: " + why);
  }
  for (auto& instance : instances) {
    const std::string why = instance->check_and_drain();
    if (!why.empty()) {
      totals.errors.push_back(instance->scheme +
                              (instance->traced ? " traced: " : ": ") + why);
    }
  }

  Metrics metrics;
  if (!args.trace) {
    metrics.add("setup_s", pb::median(setup_s), "s");
    metrics.add("peak_rss_mb", setup_peak_mb, "MB");
    for (std::size_t i = 0; i < 3; ++i) {
      const std::string& S = instances[i]->scheme;
      const Ledger& l = ledgers[i];
      // Scaled by the control, round by round: throughput up and latency
      // down by as much as the host ran the control slower than its
      // reference in that round. The raw medians go to the context.
      metrics.add("mops." + S,
                  median_of(l, [](auto& s) { return s.mops * s.host; }),
                  "Mop/s");
      metrics.add("p50_ns." + S,
                  median_of(l, [](auto& s) { return s.p50 / s.host; }), "ns");
      metrics.add("p99_ns." + S,
                  median_of(l, [](auto& s) { return s.p99 / s.host; }), "ns");
      // A mean by definition (StatsSnapshot::avg_retired over every
      // start_op of the measured rounds), not a median over rounds: EBR's
      // backlog is a sawtooth over several rounds, and a median would pick
      // one phase of it.
      metrics.add("waste_avg." + S, deltas[i].avg_retired(), "nodes");
    }
  } else {
    for (std::size_t i = 0; i < 3; ++i) {
      per_layer_metrics(metrics, instances[i]->scheme, ledgers[i],
                        ledgers[i + 3], deltas[i], domain_deltas[i]);
    }
  }

  if (!args.trace_out.empty() && !lanes.empty()) {
    std::ofstream file(args.trace_out);
    file << pb::chrome_trace(lanes, origin);
    if (!file) totals.errors.push_back("cannot write " + args.trace_out);
  }

  json::Object samples;
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> lost;
    for (const SliceResult& s : ledgers[i].slices) lost.push_back(s.lost);
    const Ledger& l = ledgers[i];
    json::Object about{
        {"rounds", l.slices.size()},
        {"lost_frac_median", pb::median(std::move(lost))},
        {"host_median", median_of(l, [](auto& s) { return s.host; })},
        {"raw", json::Object{
                    {"mops", median_of(l, [](auto& s) { return s.mops; })},
                    {"p50_ns", median_of(l, [](auto& s) { return s.p50; })},
                    {"p99_ns", median_of(l, [](auto& s) { return s.p99; })}}},
        {"latency_samples_per_round",
         ledgers[i].slices.empty() ? 0 : ledgers[i].slices[0].samples}};
    if (instances[i]->traced) {
      // The check on the cost correction: the traced instance's run time
      // per op, less its spans at the in-situ price, against the untraced
      // instance's. Zero when the spans' price explains all of tracing's
      // cost; the per-layer durations are estimates either way.
      about.emplace_back(
          "span_cost_in_situ_ns",
          json::Array{median_of(ledgers[i],
                                [](const SliceResult& s) {
                                  return s.cost.inside;
                                }),
                      median_of(ledgers[i], [](const SliceResult& s) {
                        return s.cost.outside;
                      })});
      about.emplace_back(
          "residual_frac",
          median_of(ledgers[i],
                    [](const SliceResult& s) { return s.untraced_est_ns; }) /
                  median_of(ledgers[i - 3],
                            [](const SliceResult& s) {
                              return s.cpu_per_op_ns;
                            }) -
              1.0);
    }
    samples.emplace_back(
        instances[i]->scheme + (instances[i]->traced ? "+trace" : ""),
        std::move(about));
  }
  std::vector<double> control_mops;
  for (const SliceResult& s : control_ledger.slices) {
    control_mops.push_back(s.mops);
  }
  samples.emplace_back(
      "control", json::Object{{"rounds", control_mops.size()},
                              {"mops_median", pb::median(control_mops)},
                              {"mops_ref", spec.control_ref}});
  json::Array errors;
  for (const std::string& e : totals.errors) errors.push_back(e);
  json::Value context = json::Object{
      {"context",
       json::Object{{"workload", spec.name},
                    {"seed", args.seed},
                    {"setup_s_reps", json::Array(setup_s.begin(),
                                                 setup_s.end())},
                    {"setup_raw_s_reps", json::Array(setup_raw_s.begin(),
                                                     setup_raw_s.end())},
                    {"peak_rss_run_mb", peak_rss_mb() - control_mb},
                    {"steal_ticks", steal_after - steal_before},
                    {"calibration_ns_per_iter",
                     json::Array{calib_before, calib_after}},
                    {"instances", std::move(samples)},
                    {"errors", std::move(errors)}}}};
  std::printf("%s\n", context.dump().c_str());

  json::Value result = json::Object{
      {"correct", totals.errors.empty()},
      {"attempted", totals.attempted},
      {"failed", totals.failed},
      {"metrics", metrics.take()}};
  std::printf("%s\n", result.dump().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  if (const char* why = build_refusal()) {
    std::fprintf(stderr, "perfbench: refusing to measure %s\n", why);
    return 3;
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
