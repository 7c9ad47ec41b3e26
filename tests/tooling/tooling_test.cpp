// Tests for the tooling layer: Gantt rendering, JSON export, the tree
// shape histograms, and the postal_cli usage contract.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdlib>
#include <numeric>
#include <string>

#include "sched/bcast.hpp"
#include "sched/broadcast_tree.hpp"
#include "sched/gantt.hpp"
#include "sim/json.hpp"
#include "test_util.hpp"

namespace postal {
namespace {

// ---------------------------------------------------------------------------
// Gantt
// ---------------------------------------------------------------------------

TEST(Gantt, EmptyScheduleRendersPlaceholder) {
  const PostalParams params(3, Rational(2));
  EXPECT_NE(render_gantt(Schedule(), params).find("(empty schedule)"),
            std::string::npos);
}

TEST(Gantt, SingleSendPaintsBothPorts) {
  const PostalParams params(2, Rational(3));
  Schedule s;
  s.add(0, 1, 0, Rational(0));
  const std::string out = render_gantt(s, params);
  // p0 sends during cell 0; p1 receives during cell 2 (of 3 cells).
  EXPECT_NE(out.find("p0  snd |S..|"), std::string::npos) << out;
  EXPECT_NE(out.find("rcv |..R|"), std::string::npos) << out;
  EXPECT_NE(out.find("horizon t = 3"), std::string::npos);
}

TEST(Gantt, FractionalLambdaUsesFineGrid) {
  const PostalParams params(2, Rational(5, 2));
  Schedule s;
  s.add(0, 1, 0, Rational(0));
  const std::string out = render_gantt(s, params);
  EXPECT_NE(out.find("1 column = 1/2 unit"), std::string::npos) << out;
  // send occupies cells 0-1 (one unit = two half-cells).
  EXPECT_NE(out.find("p0  snd |SS...|"), std::string::npos) << out;
  // receive occupies [3/2, 5/2) = cells 3-4.
  EXPECT_NE(out.find("rcv |...RR|"), std::string::npos) << out;
}

TEST(Gantt, OverlapRendersHash) {
  const PostalParams params(3, Rational(2));
  Schedule s;
  s.add(0, 1, 0, Rational(0));
  s.add(0, 2, 0, Rational(1, 2));  // illegal overlap on p0's send port
  const std::string out = render_gantt(s, params);
  EXPECT_NE(out.find('#'), std::string::npos) << out;
}

TEST(Gantt, MessageIdModeShowsDigits) {
  const PostalParams params(2, Rational(2));
  Schedule s;
  s.add(0, 1, 7, Rational(0));
  GanttOptions options;
  options.show_message_ids = true;
  const std::string out = render_gantt(s, params, options);
  EXPECT_NE(out.find('7'), std::string::npos) << out;
}

TEST(Gantt, TruncatesWideCharts) {
  const PostalParams params(2, Rational(2));
  Schedule s;
  s.add(0, 1, 0, Rational(500));
  GanttOptions options;
  options.max_columns = 40;
  const std::string out = render_gantt(s, params, options);
  EXPECT_NE(out.find("truncated"), std::string::npos);
}

TEST(Gantt, FullBcastScheduleRendersEveryProcessor) {
  const PostalParams params(14, Rational(5, 2));
  const std::string out = render_gantt(bcast_schedule(params), params);
  for (ProcId p = 0; p < 14; ++p) {
    EXPECT_NE(out.find("p" + std::to_string(p)), std::string::npos);
  }
  // A legal schedule never renders '#'.
  EXPECT_EQ(out.find('#'), std::string::npos);
}

// ---------------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------------

TEST(Json, EscapesSpecials) {
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb"), "a\\nb");
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
  EXPECT_EQ(json_escape("plain"), "plain");
}

TEST(Json, ScheduleSerializesExactRationals) {
  const PostalParams params(2, Rational(5, 2));
  Schedule s;
  s.add(0, 1, 0, Rational(3, 2));
  const std::string json = schedule_to_json(s, params);
  EXPECT_EQ(json,
            "{\"lambda\":\"5/2\",\"n\":2,\"events\":"
            "[{\"src\":0,\"dst\":1,\"msg\":0,\"t\":\"3/2\"}]}");
}

TEST(Json, EmptySchedule) {
  const PostalParams params(1, Rational(1));
  EXPECT_EQ(schedule_to_json(Schedule(), params),
            "{\"lambda\":\"1\",\"n\":1,\"events\":[]}");
}

TEST(Json, ReportSerializesVerdictAndViolations) {
  const PostalParams params(3, Rational(2));
  Schedule bad;
  bad.add(0, 1, 0, Rational(0));
  bad.add(0, 2, 0, Rational(0));
  const SimReport report = validate_schedule(bad, params);
  const std::string json = report_to_json(report);
  EXPECT_NE(json.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(json.find("\"violations\":[\""), std::string::npos);

  const SimReport good = validate_schedule(bcast_schedule(params), params);
  const std::string good_json = report_to_json(good);
  EXPECT_NE(good_json.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(good_json.find("\"makespan\":\""), std::string::npos);
  EXPECT_NE(good_json.find("\"violations\":[]"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Tree histograms
// ---------------------------------------------------------------------------

TEST(TreeShape, BinomialDepthHistogramIsBinomialCoefficients) {
  // At lambda = 1 and n = 2^k the tree is the binomial tree B_k, whose
  // depth histogram is C(k, d).
  const BroadcastTree t = BroadcastTree::fibonacci(32, Rational(1));
  EXPECT_EQ(t.depth_histogram(), (std::vector<std::uint64_t>{1, 5, 10, 10, 5, 1}));
}

TEST(TreeShape, HistogramSumsToN) {
  for (const Rational lambda : {Rational(1), Rational(5, 2), Rational(4)}) {
    for (std::uint64_t n : {2ULL, 14ULL, 100ULL}) {
      const BroadcastTree t = BroadcastTree::fibonacci(n, lambda);
      const auto depth = t.depth_histogram();
      const auto degree = t.degree_histogram();
      EXPECT_EQ(std::accumulate(depth.begin(), depth.end(), 0ULL), n);
      EXPECT_EQ(std::accumulate(degree.begin(), degree.end(), 0ULL), n);
    }
  }
}

TEST(TreeShape, Figure1Histograms) {
  const BroadcastTree t = BroadcastTree::fibonacci(14, Rational(5, 2));
  // Root at depth 0; 6 direct children; 6 grandchildren; 1 at depth 3
  // (p13) -- from the Figure 1 rendering.
  EXPECT_EQ(t.depth_histogram(), (std::vector<std::uint64_t>{1, 6, 6, 1}));
  EXPECT_EQ(t.max_degree(), 6u);
}

TEST(TreeShape, StarAndLineHistograms) {
  const BroadcastTree star = BroadcastTree::dary(6, 5);
  EXPECT_EQ(star.depth_histogram(), (std::vector<std::uint64_t>{1, 5}));
  const BroadcastTree line = BroadcastTree::dary(4, 1);
  EXPECT_EQ(line.depth_histogram(), (std::vector<std::uint64_t>{1, 1, 1, 1}));
  EXPECT_EQ(line.degree_histogram(), (std::vector<std::uint64_t>{1, 3}));
}

// ---------------------------------------------------------------------------
// postal_cli usage contract
// ---------------------------------------------------------------------------

/// Exit status of `postal_cli <args>` with its output discarded.
int cli_exit_status(const std::string& args) {
  const std::string cmd =
      std::string("'") + POSTAL_CLI_PATH + "' " + args + " > /dev/null 2>&1";
  const int status = std::system(cmd.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(Cli, ServeRejectsTheRemovedTimeRepresentationFlag) {
  const std::string serve = "serve 'poisson;grid=16;rate=1/4;jobs=20;mix=w1:n16:l2:m1' 7";
  EXPECT_EQ(cli_exit_status(serve), 0);
  // Ticks are the only engine: --time-path is an unknown flag, so serve
  // prints its usage and exits 2 for every value it used to take.
  EXPECT_EQ(cli_exit_status(serve + " --time-path rational"), 2);
  EXPECT_EQ(cli_exit_status(serve + " --time-path auto"), 2);
}

}  // namespace
}  // namespace postal
