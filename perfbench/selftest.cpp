// Self-test of the benchmark's own arithmetic (stats.hpp, trace.hpp's
// aggregation and cost correction) and of the svc ticket check
// (tickets.hpp). run.py runs it after every build and refuses to measure
// when it fails. Exit status: 0 when every check holds.
#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.hpp"
#include "tickets.hpp"
#include "trace.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void exact_percentiles() {
  std::vector<int> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // 1..100, reversed
  check(perfbench::exact_quantile(v, 0.50) == 50, "p50 of 1..100 is 50");
  check(perfbench::exact_quantile(v, 0.99) == 99, "p99 of 1..100 is 99");
  check(perfbench::exact_quantile(v, 1.00) == 100, "p100 is the max");
  check(perfbench::exact_quantile(v, 0.0) == 1, "p0 is the min");
  std::vector<int> one{7};
  check(perfbench::exact_quantile(one, 0.99) == 7, "one sample");
  // No bucketing: neighbouring values stay distinct.
  std::vector<int> close{1000, 1001, 1002, 1003};
  check(perfbench::exact_quantile(close, 0.75) == 1002, "exact, unbucketed");
}

void tail_rule() {
  // p99 needs ten samples strictly beyond its rank: n >= 1000.
  check(!perfbench::tail_supported(999, 0.99), "p99 unsupported at n=999");
  check(perfbench::tail_supported(1000, 0.99), "p99 supported at n=1000");
  check(perfbench::tail_supported(1100, 0.99), "p99 supported at n=1100");
  check(!perfbench::tail_supported(10, 0.5), "p50 unsupported at n=10");
  check(perfbench::tail_supported(21, 0.5), "p50 supported at n=21");
  check(!perfbench::tail_supported(0, 0.5), "no samples, no percentile");
}

void medians() {
  // Reference values from Python's statistics.median.
  check(near(perfbench::median({5, 1, 4, 2, 3}), 3), "odd median");
  check(near(perfbench::median({3.5, 1.25, 9, 4}), 3.75), "even median");
}

void quiet_rounds() {
  const auto half = perfbench::quietest_half({0.3, 0.0, 0.2, 0.0, 0.5});
  check(half == std::vector<std::size_t>({1, 3, 2}),
        "quietest half: ceil(n/2) least-lost rounds, ties in round order");
  check(perfbench::quietest_half({0.1}).size() == 1, "one round kept");
}

void self_time() {
  perfbench::SelfTime plain(100, 200);
  plain.add_child(110, 130);
  plain.add_child(150, 160);
  check(plain.self() == 70, "disjoint children");

  perfbench::SelfTime overlap(100, 200);
  overlap.add_child(110, 150);
  overlap.add_child(120, 140);  // inside the first
  overlap.add_child(145, 170);  // overlaps the first's tail
  check(overlap.self() == 40, "overlapping children counted once");

  perfbench::SelfTime outside(100, 200);
  outside.add_child(90, 120);   // starts before the parent
  outside.add_child(190, 230);  // ends after it
  check(outside.self() == 70, "children clipped to the parent");

  perfbench::SelfTime covered(100, 200);
  covered.add_child(100, 200);
  check(covered.self() == 0, "fully covered parent");
}

void aggregate_nesting() {
  using perfbench::Kind;
  using perfbench::SpanRec;
  const auto span = [](std::uint64_t s, std::uint64_t e, std::uint32_t parent,
                       Kind kind) {
    SpanRec r;
    r.start = s;
    r.end = e;
    r.parent = parent;
    r.kind = kind;
    return r;
  };
  // ds [0,100) -> start_op [0,10), read [20,30), read [40,60) -> a nested
  // retire [45,50), end_op [90,100).
  const std::vector<SpanRec> spans = {
      span(0, 100, perfbench::kNoParent, Kind::kDs),
      span(0, 10, 0, Kind::kStartOp),
      span(20, 30, 0, Kind::kRead),
      span(40, 60, 0, Kind::kRead),
      span(45, 50, 3, Kind::kRetire),
      span(90, 100, 0, Kind::kEndOp),
  };
  perfbench::TraceTotals t{};
  perfbench::FoldScratch scratch;
  perfbench::aggregate(spans, t.full, scratch);
  const auto& ds = t.full[static_cast<std::size_t>(Kind::kDs)];
  const auto& read = t.full[static_cast<std::size_t>(Kind::kRead)];
  check(ds.spans == 1 && near(ds.dur_ns, 100), "ds duration");
  check(near(ds.self_ns, 50), "ds self time excludes its children");
  check(ds.children == 4 && ds.descendants == 5, "ds children, descendants");
  check(ds.roots == 1 && ds.root_descendants == 5 && near(ds.root_dur_ns, 100),
        "ds is the root");
  check(read.spans == 2 && near(read.dur_ns, 30), "read durations");
  check(near(read.self_ns, 25), "read self time excludes the nested retire");
  check(read.roots == 0 && read.descendants == 1, "reads are not roots");

  // Tracing-cost correction: a span holds its own `inside` cost and every
  // descendant's `outside` cost; its self time holds its own `inside` and
  // `outside - inside` per child.
  const perfbench::SpanCost cost{1.0, 3.0};
  check(near(perfbench::corrected_mean(ds, cost, false, false),
             100 - 1 - 3 * 5),
        "corrected ds duration");
  check(near(perfbench::corrected_mean(ds, cost, true, false), 50 - 1 - 2 * 4),
        "corrected ds self time");
  check(near(perfbench::corrected_mean(read, cost, false, false),
             (30 - 2 * 1 - 3 * 1) / 2.0),
        "corrected mean read duration");
  check(perfbench::corrected_mean(read, perfbench::SpanCost{0, 100}, false,
                                  false) == 0,
        "an over-correction floors at zero");
}

void in_situ_span_cost() {
  using perfbench::Kind;
  const auto k = [](Kind kind) { return static_cast<std::size_t>(kind); };
  perfbench::TraceTotals t{};
  check(perfbench::in_situ_cost(t).inside == 0 &&
            perfbench::in_situ_cost(t).outside == 0,
        "nothing to price spans by: no correction");
  // ds roots: 4 full ones of 100 ns with 10 nested spans each (a probe
  // among them, of 7.5 ns on average), 2 bare ones
  // of 60 ns; svc.flush roots: 1 full one of 50 ns with 2 nested spans, 1
  // bare one of 40 ns; svc.harvest roots nest nothing and are ignored.
  t.full[k(Kind::kDs)].roots = 4;
  t.full[k(Kind::kDs)].root_dur_ns = 400;
  t.full[k(Kind::kDs)].root_descendants = 40;
  t.bare[k(Kind::kDs)].roots = 2;
  t.bare[k(Kind::kDs)].root_dur_ns = 120;
  t.full[k(Kind::kFlush)].roots = 1;
  t.full[k(Kind::kFlush)].root_dur_ns = 50;
  t.full[k(Kind::kFlush)].root_descendants = 2;
  t.bare[k(Kind::kFlush)].roots = 1;
  t.bare[k(Kind::kFlush)].root_dur_ns = 40;
  t.full[k(Kind::kHarvest)].roots = 3;
  t.full[k(Kind::kHarvest)].root_dur_ns = 999;
  t.bare[k(Kind::kHarvest)].roots = 1;
  t.bare[k(Kind::kHarvest)].root_dur_ns = 1;
  t.full[k(Kind::kProbe)].spans = 4;
  t.full[k(Kind::kProbe)].dur_ns = 30;
  const perfbench::SpanCost c = perfbench::in_situ_cost(t);
  check(near(c.inside, 7.5), "inside: the probes' mean duration");
  check(near(c.outside, (4 * (100 - 60) + (50 - 40)) / 42.0),
        "outside: what nesting added to full roots, per nested span");

  // Recording a root bare or full is decided per op, half a period apart.
  perfbench::ThreadSpans spans;
  std::size_t full = 0, bare = 0;
  constexpr std::uint64_t kEvery = perfbench::ThreadSpans::kSampleEvery;
  for (std::uint64_t i = 0; i < 4 * kEvery; ++i) {
    spans.begin_op(i);
    full += spans.sampling && !spans.bare ? 1 : 0;
    bare += spans.sampling && spans.bare ? 1 : 0;
  }
  check(full == 4 && bare == 4, "one op in kSampleEvery each way");

  perfbench::ThreadSpans live;
  perfbench::tl_spans = &live;
  for (const std::uint64_t i : {std::uint64_t{0}, kEvery / 2}) {
    live.begin_op(i);
    perfbench::Span root(Kind::kDs);
    perfbench::Span child(Kind::kRead);
  }
  perfbench::tl_spans = nullptr;
  const auto& f = live.totals.full;
  const auto& b = live.totals.bare;
  check(f[k(Kind::kDs)].roots == 1 && f[k(Kind::kDs)].root_descendants == 2 &&
            f[k(Kind::kProbe)].spans == 1 && f[k(Kind::kRead)].spans == 1,
        "a full op's root holds the probe and its child");
  check(b[k(Kind::kDs)].roots == 1 && b[k(Kind::kProbe)].spans == 0 &&
            b[k(Kind::kRead)].spans == 0,
        "a bare op records its root alone");
}

void rotation() {
  for (std::size_t count : {3u, 6u}) {
    std::vector<std::size_t> first(count, 0), seen(count * count, 0);
    for (std::size_t round = 0; round < 3 * count; ++round) {
      std::vector<bool> once(count, false);
      for (std::size_t pos = 0; pos < count; ++pos) {
        const std::size_t i = perfbench::rotation(round, pos, count);
        check(i < count && !once[i], "every instance once per round");
        once[i] = true;
        ++seen[i * count + pos];
        if (pos == 0) ++first[i];
      }
    }
    for (std::size_t i = 0; i < count; ++i) {
      check(first[i] == 3, "each instance goes first equally often");
    }
    for (std::size_t cell : seen) {
      check(cell == 3, "each instance in each position equally often");
    }
  }
  check(perfbench::rotation(1, 0, 3) == 1 && perfbench::rotation(1, 2, 3) == 0,
        "round 1 runs BCA");
}

void tickets() {
  using perfbench::TicketWindow;
  constexpr std::uint64_t W = TicketWindow::kWindow;
  TicketWindow in_order;
  bool ok = true;
  for (std::uint64_t t = 1; t <= 3 * W; ++t) {
    ok = ok && in_order.hand_out(t) && in_order.complete(t, t);
  }
  check(ok && in_order.all_complete(3 * W), "every ticket once, in order");

  TicketWindow dup;
  dup.hand_out(1);
  dup.hand_out(2);
  check(dup.complete(2, 2) && !dup.complete(2, 2), "duplicate completion");
  check(!dup.all_complete(2), "ticket 1 still open");
  check(!dup.complete(3, 2) && !dup.complete(0, 2), "ticket never handed out");

  TicketWindow lost;
  for (std::uint64_t t = 2; t <= W; ++t) lost.hand_out(t);
  lost.hand_out(1);  // ticket 1 handed out, never completes
  for (std::uint64_t t = 2; t <= W; ++t) lost.complete(t, W);
  check(!lost.hand_out(W + 1), "a lost ticket is caught when its slot returns");

  TicketWindow stale;
  for (std::uint64_t t = 1; t <= W + 1; ++t) {
    stale.hand_out(t);
    stale.complete(t, t);
  }
  check(!stale.complete(1, W + 1), "a completion older than the window");
}

}  // namespace

int main() {
  exact_percentiles();
  tail_rule();
  medians();
  quiet_rounds();
  self_time();
  aggregate_nesting();
  in_situ_span_cost();
  rotation();
  tickets();
  if (failures == 0) std::printf("perfbench selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
