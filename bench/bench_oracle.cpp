// E23 (engineering) -- the implicit schedule oracle at sizes the
// materialized path cannot touch (docs/ORACLE.md).
//
// Three measured sections:
//   differential   oracle events vs. the materialized sched::bcast schedule,
//                  event-for-event, on a grid the old path can hold -- the
//                  gate that licenses trusting the closed forms beyond it;
//   certificates   n in {10^6, 10^9, 10^12} x lambda in {1, 5/2, 4}: the
//                  witness rank's inform time must equal f_lambda(n)
//                  (Theorem 6, checked without materializing anything), and
//                  the streaming validator must accept oracle-emitted
//                  chunks from the head, the tail, and a seeded random
//                  middle of the rank range -- O(chunk) memory at n = 10^12;
//   throughput     per-rank info() queries/sec and streamed events/sec at
//                  n = 10^12, recorded in the bench record's extra fields.
//
// The verdict is correctness-gated on the first two sections; throughput is
// recorded but machine-dependent and deliberately does not gate. With
// POSTAL_BENCH_JSON set, one "bench_oracle" record is appended
// (bench/trajectory/E23_oracle.json keeps the committed baseline).
#include <cstdint>
#include <iostream>
#include <vector>

#include "model/genfib.hpp"
#include "obs/bench_record.hpp"
#include "oracle/oracle.hpp"
#include "sched/bcast.hpp"
#include "sim/stream_validator.hpp"
#include "support/prng.hpp"
#include "support/table.hpp"

namespace {

using namespace postal;

bool differential_section() {
  std::cout << "--- differential: oracle == materialized BCAST ---\n";
  bool ok = true;
  std::uint64_t events = 0;
  const obs::WallClock clock;
  for (const Rational& lambda :
       {Rational(1), Rational(3, 2), Rational(5, 2), Rational(4)}) {
    for (const std::uint64_t n : {2ull, 14ull, 100ull, 1000ull, 4096ull}) {
      const oracle::ScheduleOracle oracle(n, lambda);
      const Schedule schedule = bcast_schedule(PostalParams(n, lambda));
      std::vector<StreamEvent> expect;
      expect.reserve(schedule.size());
      for (const SendEvent& e : schedule.events()) {
        expect.push_back({e.src, e.dst, e.t});
      }
      std::sort(expect.begin(), expect.end(),
                [](const StreamEvent& a, const StreamEvent& b) {
                  return a.dst < b.dst;
                });
      const std::vector<StreamEvent> got = oracle.events(0, n);
      ok = ok && got == expect;
      events += got.size();
    }
  }
  std::cout << "compared " << events << " events across 20 grid points in "
            << fmt(clock.elapsed_ms(), 1) << " ms: "
            << (ok ? "identical" : "MISMATCH") << "\n\n";
  return ok;
}

bool certificate_section(std::uint64_t chunk, double* wall_ms_out) {
  std::cout << "--- certificates: witness + streamed chunks at huge n ---\n";
  TextTable table({"n", "lambda", "f_lambda(n)", "witness rank", "chunks", "ok"});
  bool all_ok = true;
  const obs::WallClock clock;
  Xoshiro256 rng(20260805);
  for (const std::uint64_t n : {1000000ull, 1000000000ull, 1000000000000ull}) {
    for (const Rational& lambda : {Rational(1), Rational(5, 2), Rational(4)}) {
      const oracle::ScheduleOracle oracle(n, lambda);
      GenFib fib(lambda);
      bool ok = oracle.makespan() == fib.f(n);

      // Theorem 6 without a schedule: the last-informed witness.
      const oracle::Rank witness = oracle.last_informed_rank();
      ok = ok && oracle.inform_time(witness) == oracle.makespan();

      // Streamed chunks: head, tail, seeded random middle.
      std::uint64_t chunks_ok = 0;
      const std::uint64_t mid_lo =
          n > 2 * chunk ? rng.uniform(chunk, n - chunk) : 0;
      const std::uint64_t ranges[3][2] = {
          {0, chunk < n ? chunk : n},
          {n > chunk ? n - chunk : 0, n},
          {mid_lo, mid_lo + chunk < n ? mid_lo + chunk : n}};
      for (const auto& range : ranges) {
        StreamingValidator validator(oracle, range[0], range[1]);
        validator.feed(oracle.events(range[0], range[1]));
        if (validator.finish().ok) ++chunks_ok;
      }
      ok = ok && chunks_ok == 3;
      all_ok = all_ok && ok;
      table.add_row({std::to_string(n), lambda.str(), oracle.makespan().str(),
                     std::to_string(witness), std::to_string(chunks_ok) + "/3",
                     ok ? "yes" : "NO"});
    }
  }
  *wall_ms_out = clock.elapsed_ms();
  table.print(std::cout);
  std::cout << "certified 9 (n, lambda) points in " << fmt(*wall_ms_out, 1)
            << " ms\n\n";
  return all_ok;
}

void throughput_section(std::uint64_t queries, std::uint64_t stream_chunk,
                        double* qps_out, double* eps_out) {
  std::cout << "--- throughput at n = 10^12, lambda = 5/2 ---\n";
  const std::uint64_t n = 1000000000000ull;
  const oracle::ScheduleOracle oracle(n, Rational(5, 2));
  Xoshiro256 rng(42);

  const obs::WallClock query_clock;
  std::uint64_t checksum = 0;
  for (std::uint64_t i = 0; i < queries; ++i) {
    const oracle::RankInfo info = oracle.info(rng.uniform(0, n - 1));
    checksum ^= info.parent + info.depth;
  }
  const double query_ms = query_clock.elapsed_ms();
  *qps_out = static_cast<double>(queries) / (query_ms / 1000.0);

  const std::uint64_t lo = rng.uniform(1, n - stream_chunk);
  const obs::WallClock stream_clock;
  const std::vector<StreamEvent> events = oracle.events(lo, lo + stream_chunk);
  const double stream_ms = stream_clock.elapsed_ms();
  *eps_out = static_cast<double>(events.size()) / (stream_ms / 1000.0);

  std::cout << queries << " random info() queries in " << fmt(query_ms, 1)
            << " ms  (" << fmt(*qps_out, 0) << " queries/sec, checksum "
            << (checksum & 0xff) << ")\n"
            << stream_chunk << " streamed events in " << fmt(stream_ms, 1)
            << " ms  (" << fmt(*eps_out, 0) << " events/sec)\n\n";
}

}  // namespace

int main() {
  using namespace postal;
  const obs::WallClock wall;
  std::cout << "=== E23: implicit schedule oracle -- O(1)-memory BCAST "
               "queries at n up to 10^12 ===\n\n";

  const bool differential_ok = differential_section();
  double certificate_ms = 0.0;
  const bool certificates_ok = certificate_section(4096, &certificate_ms);
  double qps = 0.0;
  double eps = 0.0;
  throughput_section(20000, 65536, &qps, &eps);

  const bool all_ok = differential_ok && certificates_ok;
  std::cout << "E23 verdict: " << (all_ok ? "CONSISTENT" : "MISMATCH")
            << "  (correctness-gated; throughput recorded, "
               "machine-dependent)\n";

  const std::uint64_t n = 1000000000000ull;
  const oracle::ScheduleOracle oracle(n, Rational(5, 2));
  obs::BenchRecord rec;
  rec.bench = "bench_oracle";
  rec.n = n;
  rec.lambda = Rational(5, 2);
  rec.makespan = oracle.makespan();
  rec.wall_ms = wall.elapsed_ms();
  rec.verdict = all_ok ? "CONSISTENT" : "MISMATCH";
  rec.extra = {{"differential", differential_ok ? "identical" : "MISMATCH"},
               {"certificate_ms", fmt(certificate_ms, 2)},
               {"queries_per_sec", fmt(qps, 0)},
               {"events_per_sec", fmt(eps, 0)},
               {"chunk", "4096"}};
  obs::emit_bench_record(rec);
  return all_ok ? 0 : 1;
}
