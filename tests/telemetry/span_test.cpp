// ScopedSpan / Tracer: clock modes, nesting (per tracer), and id lifecycle.
#include "telemetry/span.h"

#include <gtest/gtest.h>

#include <string>

namespace alvc::telemetry {
namespace {

TEST(TracerTest, DisabledByDefaultAndRecordsNothing) {
  Tracer tracer;
  EXPECT_EQ(tracer.mode(), ClockMode::kDisabled);
  EXPECT_FALSE(tracer.enabled());
  { ScopedSpan span(tracer, "ignored"); }
  EXPECT_EQ(tracer.span_count(), 0u);
}

TEST(TracerTest, LogicalClockStampsSpans) {
  Tracer tracer;
  tracer.set_mode(ClockMode::kLogical);
  tracer.set_logical_time_s(1.0);
  {
    ScopedSpan span(tracer, "phase");
    tracer.set_logical_time_s(2.5);
  }
  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "phase");
  EXPECT_EQ(spans[0].id, 1u);
  EXPECT_EQ(spans[0].parent, 0u);  // root
  EXPECT_DOUBLE_EQ(spans[0].start_us, 1e6);
  EXPECT_DOUBLE_EQ(spans[0].end_us, 2.5e6);
  EXPECT_DOUBLE_EQ(spans[0].duration_us(), 1.5e6);
}

TEST(TracerTest, NestedSpansRecordParentAndCloseInnerFirst) {
  Tracer tracer;
  tracer.set_mode(ClockMode::kLogical);
  {
    ScopedSpan outer(tracer, "outer");
    {
      ScopedSpan inner(tracer, "inner");
      { ScopedSpan leaf(tracer, "leaf"); }
    }
  }
  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 3u);
  // Completion order: leaf, inner, outer.
  EXPECT_EQ(spans[0].name, "leaf");
  EXPECT_EQ(spans[1].name, "inner");
  EXPECT_EQ(spans[2].name, "outer");
  // Ids were handed out in open order; parents link the chain.
  EXPECT_EQ(spans[2].id, 1u);
  EXPECT_EQ(spans[1].parent, spans[2].id);
  EXPECT_EQ(spans[0].parent, spans[1].id);
  EXPECT_EQ(spans[2].parent, 0u);
}

TEST(TracerTest, SiblingsShareAParent) {
  Tracer tracer;
  tracer.set_mode(ClockMode::kLogical);
  {
    ScopedSpan outer(tracer, "outer");
    { ScopedSpan first(tracer, "first"); }
    { ScopedSpan second(tracer, "second"); }
  }
  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 3u);
  // outer opened first, so its id is 1; both siblings point at it.
  EXPECT_EQ(spans[2].id, 1u);
  EXPECT_EQ(spans[0].parent, 1u);
  EXPECT_EQ(spans[1].parent, 1u);
  EXPECT_NE(spans[0].id, spans[1].id);
}

TEST(TracerTest, TwoTracersNestIndependently) {
  // Interleaved spans of two tracers: each span's parent is the innermost
  // open span of its own tracer, never one of the other tracer's.
  Tracer a;
  Tracer b;
  a.set_mode(ClockMode::kLogical);
  b.set_mode(ClockMode::kLogical);
  {
    ScopedSpan a_outer(a, "a.outer");
    ScopedSpan b_outer(b, "b.outer");
    {
      ScopedSpan a_inner(a, "a.inner");
      ScopedSpan b_inner(b, "b.inner");
      { ScopedSpan a_leaf(a, "a.leaf"); }
    }
    { ScopedSpan b_sibling(b, "b.sibling"); }
  }
  const auto a_spans = a.spans();
  ASSERT_EQ(a_spans.size(), 3u);
  EXPECT_EQ(a_spans[0].name, "a.leaf");
  EXPECT_EQ(a_spans[1].name, "a.inner");
  EXPECT_EQ(a_spans[2].name, "a.outer");
  EXPECT_EQ(a_spans[2].parent, 0u);
  EXPECT_EQ(a_spans[1].parent, a_spans[2].id);
  EXPECT_EQ(a_spans[0].parent, a_spans[1].id);

  const auto b_spans = b.spans();
  ASSERT_EQ(b_spans.size(), 3u);
  EXPECT_EQ(b_spans[0].name, "b.inner");
  EXPECT_EQ(b_spans[1].name, "b.sibling");
  EXPECT_EQ(b_spans[2].name, "b.outer");
  EXPECT_EQ(b_spans[2].parent, 0u);
  EXPECT_EQ(b_spans[0].parent, b_spans[2].id);
  EXPECT_EQ(b_spans[1].parent, b_spans[2].id);
  // Ids are per tracer: each tracer numbers its own spans from 1.
  EXPECT_EQ(a_spans[2].id, 1u);
  EXPECT_EQ(b_spans[2].id, 1u);
}

TEST(TracerTest, ClearRestartsIdsForReproducibleCaptures) {
  Tracer tracer;
  tracer.set_mode(ClockMode::kLogical);
  { ScopedSpan span(tracer, "a"); }
  ASSERT_EQ(tracer.spans()[0].id, 1u);
  tracer.clear();
  EXPECT_EQ(tracer.span_count(), 0u);
  EXPECT_EQ(tracer.mode(), ClockMode::kLogical);  // clear keeps the mode
  { ScopedSpan span(tracer, "b"); }
  EXPECT_EQ(tracer.spans()[0].id, 1u);  // ids restart, so captures byte-match
}

TEST(TracerTest, SteadyClockProducesMonotoneSpans) {
  Tracer tracer;
  tracer.set_mode(ClockMode::kSteady);
  { ScopedSpan span(tracer, "timed"); }
  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_GE(spans[0].end_us, spans[0].start_us);
  EXPECT_GE(spans[0].start_us, 0.0);
}

TEST(TracerTest, ModeSwitchMidFlightDropsTheOpenSpan) {
  // A span opened while disabled must stay inert even if tracing turns on
  // before it closes (the hook checked enabled() once, at open).
  Tracer tracer;
  {
    ScopedSpan span(tracer, "opened-disabled");
    tracer.set_mode(ClockMode::kLogical);
  }
  EXPECT_EQ(tracer.span_count(), 0u);
}

TEST(ClockModeTest, ToStringNamesEveryMode) {
  EXPECT_EQ(std::string(to_string(ClockMode::kDisabled)), "disabled");
  EXPECT_EQ(std::string(to_string(ClockMode::kSteady)), "steady");
  EXPECT_EQ(std::string(to_string(ClockMode::kLogical)), "logical");
}

}  // namespace
}  // namespace alvc::telemetry
