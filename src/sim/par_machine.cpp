// The sharded engine and its determinism machinery. Three pieces:
//
//  1. ParShard -- the per-lane event loop. An exact transliteration of
//     Machine's tick hot path (same branch structure, same fault
//     hook order, same REQUIRE messages), except that instead of writing
//     to the global trace/fault-timeline/sequence-counter directly it
//     *logs* what each pop produced.
//
//  2. The stamp algebra. Every queued event carries a stamp standing in
//     for Machine's global push counter. Events routed through a barrier
//     carry their true global sequence number (gseq); events pushed and
//     consumed inside one window carry a provisional stamp (top bit set,
//     window-local counter). Provisional stamps compare correctly against
//     everything they can ever meet: within a shard's queue, in-window
//     pushes are strictly later (in sequential push order) than anything
//     that crossed a barrier, and the window-local counter orders them
//     among themselves exactly as the sequential engine's counter would --
//     a shard pops its own events in the same relative order the global
//     engine would, so it also pushes in that relative order (induction
//     over windows).
//
//  3. The barrier merge-replay ("merge-replay v2", docs/SIMULATION.md).
//     When a window closes, a cheap *sequential* pass k-way merges the
//     shards' pop logs by (tick, resolved stamp): the head of a log with a
//     provisional stamp always resolves, because the push that created it
//     sits earlier in the *same* log (pushed, then popped, both in-window)
//     and the merge consumes logs front to back. The merge visits pops in
//     exactly the sequential engine's pop order -- but it only *assigns*:
//     gseqs to each entry's pushes (reproducing the sequential
//     push-counter order) and global output slots to each entry's
//     deliveries and fault events. The expensive half -- writing the
//     Delivery/FaultEvent payloads into those slots -- then runs as a
//     parallel pass, one lane per shard, because the merge hands each
//     shard a strictly increasing slot list and every first-arrival cell
//     (dst, msg) belongs to the shard that owns dst. Outbox entries
//     likewise get their gseq from the sequential pass and then flush into
//     their destination shards *in parallel, one lane per destination*:
//     each source shard sealed its per-destination outbox runs into
//     (tick, gseq) order on its own lane before the barrier (a counting
//     bucket by tick; gseqs increase with a run's append order, so
//     (tick, local_seq) order IS (tick, gseq) order), and the flush is a
//     k-way merge of those sorted runs -- no global sort anywhere.
//
// Window placement needs no alignment: each window is [B, B + lambda)
// with B = the global minimum pending tick, so every send started in the
// window (at start >= B, latency >= lambda ticks) arrives at or after the
// window's end -- sends *always* route through the barrier, and only
// timers and input-port requeues can land in-window. Shared per-rank
// arrays (port_free, recv_free, port_busy_units) are safe unsynchronized:
// send-side fields are indexed by the handler's own rank and receive-side
// fields by the delivering event's destination rank, and both ranks
// belong to the shard doing the write; the pool's batch join publishes
// them across windows. Loss draws are likewise shard-local per directed
// link (keyed by the sending rank), so the per-link draw counters consume
// in sequential order.
//
// Arena discipline: every window-local buffer (pop logs, side streams,
// outbox runs, seal scratch, replay scratch, the shard queues' arenas)
// lives in ParMachine::Engine and is *retained* across windows and across
// run() calls -- cleared, never deallocated. After the first run's
// high-water mark, steady-state windows allocate nothing;
// ParRunInfo::arena_growths counts the capacity growths actually observed
// so benches can prove it (bench_micro's warm-rerun section).
#include "sim/par_machine.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <limits>

#include "par/thread_pool.hpp"
#include "support/error.hpp"

namespace postal {

namespace {

/// Provisional stamps live above every possible gseq (gseqs count queue
/// pushes, bounded by max_events, far below 2^63).
constexpr std::uint64_t kProvBase = std::uint64_t{1} << 63;
constexpr Tick kNoTick = std::numeric_limits<Tick>::max();

/// Widest tick span a sealed outbox run may cover and still use the
/// counting-bucket sort. Normal windows span at most lambda ticks (every
/// in-window send lands in [window_end, window_end + lambda)); only the
/// preamble backlog and extreme latency spikes can exceed this, and those
/// runs fall back to a comparison sort (counted in flush_fallback_sorts).
constexpr std::uint64_t kSealSpanCap = std::uint64_t{1} << 14;

/// Raised by a shard when a handler arms a timer the run's grid cannot
/// key (off the 1/q grid or out of range). The sequential Machine rescales
/// its grid mid-run; the sharded engine cannot (shards have already
/// diverged from sequential state), so the whole run restarts on a fresh
/// sequential Machine.
struct ParFallbackError : std::exception {
  [[nodiscard]] const char* what() const noexcept override {
    return "ParMachine: off-grid timer; rerunning sequentially";
  }
};

}  // namespace

/// One lane's event engine. Plain-struct wiring: ParMachine::run_windowed
/// sets every field, runs the windows, then reads the accumulators back.
/// Lives in this TU only; MachineContext befriends it by name.
class ParShard final : public ContextSink {
 public:
  /// ParMachine's pending-event record (Machine::Pending is private to
  /// Machine; the shard engine keeps its own, with send_start in ticks).
  struct Ev {
    enum class Kind : std::uint8_t { kFlight, kFlightFinal, kTimer };
    Kind kind = Kind::kFlight;
    ProcId src = 0;
    ProcId dst = 0;
    Packet packet;
    Tick send_start = 0;
    std::uint64_t token = 0;
  };

  /// A push that must cross a barrier: delivered to shard_of(ev.dst) once
  /// the merge has assigned its gseq. `local_seq` is the shard-wide outbox
  /// append counter of the window; the barrier merge consumes a shard's
  /// outbox pushes in exactly that order, so the gseq of entry L is
  /// Replay's outbox_gseq[shard][L] -- and gseqs strictly increase with L.
  struct OutboxEntry {
    Tick tick = 0;
    std::uint64_t local_seq = 0;
    Ev ev;
  };

  /// One productive pop in a shard's window log. `pushes`, `faults`, and
  /// `delivered` are counts into the shard's side streams (push_kinds /
  /// fevents / deliveries), consumed in order during replay. Pops that
  /// produce nothing observable (e.g. a crash-skipped timer, or a
  /// delivery under TraceMode::kCounters) are not logged.
  struct PopEntry {
    Tick tick = 0;
    std::uint64_t stamp = 0;
    std::uint32_t pushes = 0;
    std::uint32_t faults = 0;
    std::uint8_t delivered = 0;
  };

  // Wiring (constant during a run).
  const PostalParams* params = nullptr;
  std::uint32_t messages = 0;
  FaultInjector* injector = nullptr;
  ProcId lo = 0;  ///< first rank owned
  ProcId hi = 0;  ///< one past last rank owned
  std::int64_t tick_q = 1;
  Tick lambda_ticks = 0;
  const std::vector<std::optional<Tick>>* crash_ticks = nullptr;
  const std::vector<SpikeTicks>* spike_ticks = nullptr;
  Tick* port_free = nullptr;                 ///< shared, written at own ranks
  Tick* recv_free = nullptr;                 ///< shared, written at own ranks
  std::uint64_t* port_busy_units = nullptr;  ///< shared, written at own ranks
  std::uint64_t max_events = 0;
  std::uint64_t shard_size = 1;  ///< rank -> owning shard divisor
  TraceMode trace_mode = TraceMode::kFull;
  Trace* trace = nullptr;  ///< kCounters: direct first-arrival notes
  std::unique_ptr<Protocol> protocol;

  // Run-cumulative accumulators, merged by ParMachine at the end.
  TickEventQueue<Ev> q;
  std::vector<SendEvent> sends;  ///< this shard's schedule slice, append order
  MachineStats stats;  ///< port_busy stays empty (folded from the units array)
  FaultStats faults;   ///< counters only; the timeline is built at replay
  std::uint64_t steps = 0;
  std::uint64_t stalled_windows = 0;
  std::uint64_t mailbox_in = 0;
  Tick max_delivery_tick = 0;  ///< kCounters: latest arrival on this shard
  std::uint64_t flush_fallback_sorts = 0;
  std::uint64_t arena_growths = 0;

  // Window-local pop log and side streams (cleared after every barrier;
  // capacity retained -- see the arena discipline in the file comment).
  std::vector<PopEntry> log;
  std::vector<std::uint8_t> push_kinds;  ///< per push: 0 = in-window, 1 = outbox
  std::vector<Delivery> deliveries;      ///< kFull only
  std::vector<FaultEvent> fevents;
  std::vector<std::vector<OutboxEntry>> outbox;  ///< one run per destination shard
  std::uint64_t outbox_seq = 0;  ///< outbox appends this window (all runs)
  std::uint64_t prov_count = 0;  ///< provisional stamps handed out this window

  /// Reset all per-run state; every buffer keeps its capacity. `dests` is
  /// the shard count of the coming run (outbox runs are per destination).
  void prepare(std::uint32_t dests) {
    q.clear();
    sends.clear();
    stats = MachineStats();
    faults = FaultStats();
    steps = 0;
    stalled_windows = 0;
    mailbox_in = 0;
    max_delivery_tick = 0;
    flush_fallback_sorts = 0;
    arena_growths = 0;
    outbox.resize(dests);
    caps_outbox_.resize(dests, 0);
    log.clear();
    push_kinds.clear();
    deliveries.clear();
    fevents.clear();
    for (std::vector<OutboxEntry>& run : outbox) run.clear();
    outbox_seq = 0;
    prov_count = 0;
  }

  /// The preamble image of Machine's on_start loop for one owned rank:
  /// a pseudo-pop at (tick 0, stamp = rank), every push routed to the
  /// outbox (window_end_ = 0), so the preamble barrier's rank-ordered
  /// merge reproduces the sequential on_start push order.
  void start_rank(ProcId p) {
    window_end_ = 0;
    cur_ = PopEntry{0, p, 0, 0, 0};
    if (injector != nullptr && crashed_at(p, 0)) return;
    MachineContext ctx(*this, p, 0, tick_q);
    protocol->on_start(ctx);
    commit_log();
  }

  /// Drain every owned event strictly before `window_end`.
  void run_window(Tick window_end) {
    window_end_ = window_end;
    const std::uint64_t before = steps;
    while (!q.empty()) {
      const Tick t = q.peek_time();
      if (t >= window_end) break;
      q.drain_current_tick([&](std::uint64_t stamp, Ev&& ev) {
        process(t, stamp, std::move(ev));
      });
    }
    if (steps == before) ++stalled_windows;
  }

  /// Sort every per-destination outbox run into (tick, local_seq) order --
  /// which is (tick, gseq) order, since the barrier hands out gseqs in
  /// local_seq order. Runs on the shard's own lane, inside the window
  /// batch, so the barrier-side flush is a pure merge of sorted runs.
  void seal_outboxes() {
    for (std::vector<OutboxEntry>& run : outbox) seal_run(run);
  }

  /// Clear the window streams (capacity kept) and count arena growth.
  void clear_window() {
    note_growth(log.capacity(), caps_log_);
    note_growth(push_kinds.capacity(), caps_kinds_);
    note_growth(deliveries.capacity(), caps_del_);
    note_growth(fevents.capacity(), caps_fev_);
    note_growth(seal_scratch_.capacity(), caps_scratch_);
    for (std::size_t d = 0; d < outbox.size(); ++d) {
      note_growth(outbox[d].capacity(), caps_outbox_[d]);
      outbox[d].clear();
    }
    log.clear();
    push_kinds.clear();
    deliveries.clear();
    fevents.clear();
    outbox_seq = 0;
    prov_count = 0;
  }

  [[nodiscard]] Rational tick_rational(Tick t) const {
    return Rational(t, tick_q);
  }

 private:
  // ContextSink: the images of Machine::sink_send / sink_timer, logging
  // instead of globally sequencing.
  void sink_send(ProcId self, ProcId dst, const Packet& packet, Tick now_ticks) override {
    POSTAL_REQUIRE(dst < params->n(), "Machine: send destination out of range");
    POSTAL_REQUIRE(dst != self, "Machine: a processor cannot send to itself");
    POSTAL_REQUIRE(packet.msg < messages, "Machine: message id out of range");
    const Tick start = std::max(now_ticks, port_free[self]);
    POSTAL_CHECK(start <= kTickCap);
    if (injector != nullptr && crashed_at(self, start)) {
      ++faults.sends_suppressed;
      log_fault(FaultEvent{FaultEvent::Kind::kSendSuppressed,
                           tick_rational(start), self, dst});
      return;
    }
    port_free[self] = start + tick_q;
    ++stats.sends_enqueued;
    if (start > now_ticks) ++stats.sends_deferred;
    ++port_busy_units[self];
    const std::uint64_t depth = static_cast<std::uint64_t>(
        (port_free[self] - now_ticks + tick_q - 1) / tick_q);
    if (depth > stats.max_fifo_depth) stats.max_fifo_depth = depth;
    sends.push_back(SendEvent{self, dst, packet.msg, tick_rational(start)});
    Tick latency = lambda_ticks;
    if (injector != nullptr && injector->has_spikes()) {
      Tick extra = 0;
      for (const SpikeTicks& s : *spike_ticks) {
        if (start >= s.from && start < s.until) extra += s.extra;
      }
      if (extra > 0) {
        latency += extra;
        ++faults.spikes_applied;
        log_fault(
            FaultEvent{FaultEvent::Kind::kSpike, tick_rational(start), self, dst});
      }
    }
    if (injector != nullptr && injector->has_losses() && injector->lose(self, dst)) {
      ++faults.drops_loss;
      log_fault(FaultEvent{FaultEvent::Kind::kDropLoss,
                           tick_rational(start + latency), dst, self});
      return;
    }
    route_push(start + latency,
               Ev{Ev::Kind::kFlight, self, dst, packet, start, 0});
  }

  void sink_timer(ProcId self, Tick now_ticks, const Rational& delay,
                  std::uint64_t token) override {
    ++stats.timers_set;
    const std::optional<Tick> d = TickDomain(tick_q).to_ticks(delay);
    Tick fire = 0;
    if (!d.has_value() || __builtin_add_overflow(now_ticks, *d, &fire) ||
        fire > kTickCap) {
      throw ParFallbackError{};
    }
    route_push(fire, Ev{Ev::Kind::kTimer, self, self, Packet{}, fire, token});
  }

  [[nodiscard]] const PostalParams& sink_params() const noexcept override {
    return *params;
  }

  /// One pop: Machine::run_loop's switch, against the window log.
  void process(Tick time, std::uint64_t stamp, Ev&& ev) {
    if (++steps > max_events) {
      throw LogicError("ParMachine::run: exceeded max_events; runaway protocol?");
    }
    cur_ = PopEntry{time, stamp, 0, 0, 0};
    switch (ev.kind) {
      case Ev::Kind::kTimer: {
        if (injector != nullptr && crashed_at(ev.dst, time)) break;
        ++stats.timers_fired;
        MachineContext ctx(*this, ev.dst, time, tick_q);
        protocol->on_timer(ctx, ev.token);
        break;
      }
      case Ev::Kind::kFlight: {
        const Tick window_start = std::max(time - tick_q, recv_free[ev.dst]);
        const Tick arrival = window_start + tick_q;
        recv_free[ev.dst] = arrival;
        if (arrival > time) {
          ++stats.receives_queued;
          Ev requeued = ev;
          requeued.kind = Ev::Kind::kFlightFinal;
          route_push(arrival, std::move(requeued));
          break;
        }
        deliver(time, ev);
        break;
      }
      case Ev::Kind::kFlightFinal:
        deliver(time, ev);
        break;
    }
    commit_log();
  }

  void deliver(Tick time, const Ev& ev) {
    if (injector != nullptr && crashed_at(ev.dst, time)) {
      ++faults.drops_crash;
      log_fault(FaultEvent{FaultEvent::Kind::kDropCrash, tick_rational(time),
                           ev.dst, ev.src});
      return;
    }
    ++stats.events_processed;
    cur_.delivered = 1;
    if (trace_mode == TraceMode::kFull) {
      deliveries.push_back(Delivery{ev.src, ev.dst, ev.packet.msg,
                                    tick_rational(ev.send_start),
                                    tick_rational(time)});
    } else {
      // Elided trace: update the (dst, msg) first-arrival cell directly --
      // dst belongs to this shard, so the cell is ours alone -- and keep
      // count/makespan shard-local until the end-of-run fold. The global
      // pop order is irrelevant to a min and a max, so no replay needed.
      trace->counters_note(ev.dst, ev.packet.msg, tick_rational(time));
      if (time > max_delivery_tick) max_delivery_tick = time;
    }
    MachineContext ctx(*this, ev.dst, time, tick_q);
    protocol->on_receive(ctx, ev.packet);
  }

  /// Every queue push of the sequential engine maps to exactly one call
  /// here, so replaying `pushes` per entry reproduces its seq counter.
  void route_push(Tick at, Ev&& ev) {
    ++cur_.pushes;
    if (at < window_end_) {
      push_kinds.push_back(0);
      q.push(at, kProvBase + prov_count++, std::move(ev));
    } else {
      push_kinds.push_back(1);
      const std::size_t d = static_cast<std::size_t>(ev.dst / shard_size);
      outbox[d].push_back(OutboxEntry{at, outbox_seq++, std::move(ev)});
    }
  }

  void log_fault(const FaultEvent& e) {
    fevents.push_back(e);
    ++cur_.faults;
  }

  void commit_log() {
    // A delivery with no pushes and no faults is observable only through
    // the materialized Delivery; under kCounters it was already folded
    // into the first-arrival cells above, so the merge can skip it.
    if (cur_.pushes != 0 || cur_.faults != 0 ||
        (cur_.delivered != 0 && trace_mode == TraceMode::kFull)) {
      log.push_back(cur_);
    }
  }

  /// Counting-bucket sort of one outbox run by (tick, local_seq). Appends
  /// arrive in local_seq order, so a stable bucket-by-tick pass is a full
  /// sort; runs spanning more than kSealSpanCap ticks fall back to
  /// std::stable_sort (stability again supplies the local_seq order).
  void seal_run(std::vector<OutboxEntry>& run) {
    if (run.size() < 2) return;
    Tick lo_t = run[0].tick;
    Tick hi_t = run[0].tick;
    for (const OutboxEntry& e : run) {
      lo_t = std::min(lo_t, e.tick);
      hi_t = std::max(hi_t, e.tick);
    }
    const std::uint64_t span = static_cast<std::uint64_t>(hi_t - lo_t) + 1;
    if (span > kSealSpanCap) {
      ++flush_fallback_sorts;
      std::stable_sort(run.begin(), run.end(),
                       [](const OutboxEntry& a, const OutboxEntry& b) {
                         return a.tick < b.tick;
                       });
      return;
    }
    seal_counts_.assign(static_cast<std::size_t>(span), 0);
    for (const OutboxEntry& e : run) {
      ++seal_counts_[static_cast<std::size_t>(e.tick - lo_t)];
    }
    std::uint32_t offset = 0;
    for (std::uint32_t& c : seal_counts_) {
      const std::uint32_t count = c;
      c = offset;
      offset += count;
    }
    seal_scratch_.resize(run.size());
    for (OutboxEntry& e : run) {
      seal_scratch_[seal_counts_[static_cast<std::size_t>(e.tick - lo_t)]++] =
          std::move(e);
    }
    // Move back instead of swapping: a swap would shuffle capacities between
    // the run and the scratch slot, so a warm rerun of the identical workload
    // could start a vector below its watermark and re-grow it -- breaking the
    // zero-allocation steady-state claim the arena_growths counter certifies.
    std::move(seal_scratch_.begin(), seal_scratch_.end(), run.begin());
  }

  void note_growth(std::size_t cap_now, std::size_t& cap_seen) {
    if (cap_now > cap_seen) {
      cap_seen = cap_now;
      ++arena_growths;
    }
  }

  [[nodiscard]] bool crashed_at(ProcId p, Tick t) const {
    const auto& c = (*crash_ticks)[p];
    return c.has_value() && t >= *c;
  }

  Tick window_end_ = 0;
  PopEntry cur_{};
  std::vector<OutboxEntry> seal_scratch_;
  std::vector<std::uint32_t> seal_counts_;
  // Capacity watermarks (persist across runs; growth past one increments
  // arena_growths, so a warm rerun reports 0).
  std::size_t caps_log_ = 0, caps_kinds_ = 0, caps_del_ = 0, caps_fev_ = 0,
              caps_scratch_ = 0;
  std::vector<std::size_t> caps_outbox_;
};

namespace {

/// The barrier-side sequencer (sequential half of merge-replay v2): merges
/// shard pop logs into the sequential pop order, handing out gseqs and
/// assigning each delivery / fault event its global output slot. The
/// payload writes happen afterwards in materialize_shard(), one lane per
/// shard -- each shard's slot list is strictly increasing and the lists
/// partition the window's slots, so the parallel writes are disjoint.
/// Scratch is retained across barriers and across runs (Engine member).
class Replay {
 public:
  std::uint64_t replayed_pops = 0;
  std::uint64_t merge_deliveries = 0;
  std::uint64_t merge_fault_events = 0;

  void start_run(std::vector<ParShard>* shards, Trace* trace,
                 FaultStats* faults, bool full) {
    shards_ = shards;
    trace_ = trace;
    faults_ = faults;
    full_ = full;
    const std::size_t s = shards_->size();
    head_.assign(s, 0);
    fev_.assign(s, 0);
    del_.assign(s, 0);
    push_.assign(s, 0);
    live_.assign(s, 0);
    prov2g_.resize(s);
    outbox_gseq_.resize(s);
    del_slots_.resize(s);
    fev_slots_.resize(s);
    gseq_ = 0;
    del_next_ = 0;
    // The crash timeline is pre-seeded before the first barrier; window
    // fault events append after it.
    fev_next_ = faults_->events.size();
    replayed_pops = 0;
    merge_deliveries = 0;
    merge_fault_events = 0;
  }

  /// Sequential pass: visit this window's pops in exact sequential order,
  /// assigning gseqs and output slots. O(pops * shards) with trivial
  /// per-entry work -- no Delivery/FaultEvent is touched here.
  void sequence() {
    const std::size_t s_count = shards_->size();
    for (std::size_t s = 0; s < s_count; ++s) {
      head_[s] = fev_[s] = del_[s] = push_[s] = live_[s] = 0;
      prov2g_[s].assign((*shards_)[s].prov_count, 0);
      outbox_gseq_[s].clear();
      del_slots_[s].clear();
      fev_slots_[s].clear();
    }
    window_del_base_ = del_next_;
    window_fev_base_ = fev_next_;
    while (true) {
      // Linear head scan: the shard count is tiny (<= threads), so a heap
      // would cost more than it saves. Keys never tie -- resolved stamps
      // are distinct gseqs (or distinct ranks, at the preamble barrier).
      std::size_t best = s_count;
      Tick best_tick = 0;
      std::uint64_t best_stamp = 0;
      for (std::size_t s = 0; s < s_count; ++s) {
        const std::vector<ParShard::PopEntry>& log = (*shards_)[s].log;
        if (head_[s] >= log.size()) continue;
        const ParShard::PopEntry& e = log[head_[s]];
        const std::uint64_t stamp = resolve(s, e.stamp);
        if (best == s_count || e.tick < best_tick ||
            (e.tick == best_tick && stamp < best_stamp)) {
          best = s;
          best_tick = e.tick;
          best_stamp = stamp;
        }
      }
      if (best == s_count) break;
      ParShard& sh = (*shards_)[best];
      const ParShard::PopEntry& e = sh.log[head_[best]++];
      for (std::uint32_t i = 0; i < e.faults; ++i) {
        fev_slots_[best].push_back(fev_next_++);
      }
      if (e.delivered != 0 && full_) del_slots_[best].push_back(del_next_++);
      for (std::uint32_t i = 0; i < e.pushes; ++i) {
        const std::uint8_t kind = sh.push_kinds[push_[best]++];
        const std::uint64_t g = gseq_++;
        if (kind == 0) {
          prov2g_[best][live_[best]++] = g;
        } else {
          // Outbox pushes are consumed in a shard's append (local_seq)
          // order, so outbox_gseq_[s][L] is entry L's gseq -- and the
          // sequence is strictly increasing in L.
          outbox_gseq_[best].push_back(g);
        }
      }
      ++replayed_pops;
    }
  }

  /// Deliveries + fault events this window (0 = materialization can skip).
  [[nodiscard]] std::uint64_t window_payloads() const noexcept {
    return (del_next_ - window_del_base_) + (fev_next_ - window_fev_base_);
  }

  /// Sequential: grow the shared containers to this window's high slot.
  void materialize_prepare() {
    if (full_ && del_next_ != window_del_base_) {
      const std::size_t base =
          trace_->replay_extend(static_cast<std::size_t>(del_next_ - window_del_base_));
      POSTAL_CHECK(base == window_del_base_);
    }
    faults_->events.resize(static_cast<std::size_t>(fev_next_));
    merge_deliveries += del_next_ - window_del_base_;
    merge_fault_events += fev_next_ - window_fev_base_;
  }

  /// Parallel per-shard: write the window's payloads into their slots.
  void materialize_shard(std::size_t s) {
    ParShard& sh = (*shards_)[s];
    if (full_) {
      const std::vector<std::uint64_t>& slots = del_slots_[s];
      POSTAL_CHECK(slots.size() == sh.deliveries.size());
      for (std::size_t i = 0; i < slots.size(); ++i) {
        trace_->replay_set(static_cast<std::size_t>(slots[i]), sh.deliveries[i]);
      }
    }
    const std::vector<std::uint64_t>& fslots = fev_slots_[s];
    POSTAL_CHECK(fslots.size() == sh.fevents.size());
    for (std::size_t i = 0; i < fslots.size(); ++i) {
      faults_->events[static_cast<std::size_t>(fslots[i])] = sh.fevents[i];
    }
  }

  [[nodiscard]] const std::vector<std::uint64_t>& outbox_gseq(
      std::size_t s) const noexcept {
    return outbox_gseq_[s];
  }

 private:
  /// A provisional head always resolves: the push that minted it sits in
  /// an earlier entry of the same log, already consumed front-to-back.
  [[nodiscard]] std::uint64_t resolve(std::size_t s, std::uint64_t stamp) const {
    return stamp >= kProvBase ? prov2g_[s][stamp - kProvBase] : stamp;
  }

  std::vector<ParShard>* shards_ = nullptr;
  Trace* trace_ = nullptr;
  FaultStats* faults_ = nullptr;
  bool full_ = true;
  std::uint64_t gseq_ = 0;  ///< image of Machine's push counter, run-global
  std::uint64_t del_next_ = 0;  ///< next global delivery slot
  std::uint64_t fev_next_ = 0;  ///< next global fault-event slot
  std::uint64_t window_del_base_ = 0;
  std::uint64_t window_fev_base_ = 0;
  std::vector<std::size_t> head_, fev_, del_, push_, live_;
  std::vector<std::vector<std::uint64_t>> prov2g_;
  std::vector<std::vector<std::uint64_t>> outbox_gseq_;
  std::vector<std::vector<std::uint64_t>> del_slots_;
  std::vector<std::vector<std::uint64_t>> fev_slots_;
};

}  // namespace

/// Arena-backed engine state, retained across run() calls (header
/// comment). Everything here is capacity: a new run resets values, never
/// storage.
struct ParMachine::Engine {
  std::vector<ParShard> shards;
  std::vector<Tick> port_free;
  std::vector<Tick> recv_free;
  std::vector<std::uint64_t> port_busy_units;
  Replay replay;
  /// Flat [dest * shards + src] head indexes of the flush merges.
  std::vector<std::size_t> flush_head;
  std::vector<std::uint64_t> flush_in;     ///< per dest: entries flushed
  std::vector<std::uint64_t> flush_cross;  ///< per dest: from another shard
  std::unique_ptr<par::ThreadPool> pool;
  unsigned pool_threads = 0;
};

ParMachine::ParMachine(PostalParams params, std::uint32_t messages)
    : params_(std::move(params)), messages_(messages) {}

ParMachine::~ParMachine() = default;

void ParMachine::attach_faults(const FaultPlan& plan) {
  if (plan.empty()) {
    injector_.reset();
    return;
  }
  injector_ = std::make_unique<FaultInjector>(plan, params_.n());
}

MachineResult ParMachine::run(ShardProtocolFactory& factory,
                              std::uint64_t max_events) {
  info_ = ParRunInfo();
  info_.trace_mode = trace_mode_;
  const TickRunSetup setup =
      plan_tick_run(params_, injector_.get(), max_events, "ParMachine::run");
  try {
    return run_windowed(factory, setup, max_events);
  } catch (const ParFallbackError&) {
    info_ = ParRunInfo();
    info_.trace_mode = trace_mode_;
    return run_sequential(factory, max_events);
  }
}

MachineResult ParMachine::run_sequential(ShardProtocolFactory& factory,
                                         std::uint64_t max_events) {
  Machine machine(params_, messages_);
  if (injector_ != nullptr) machine.attach_faults(injector_->plan());
  machine.set_trace_mode(trace_mode_);
  std::unique_ptr<Protocol> protocol = factory.make(0, 1);
  POSTAL_CHECK(protocol != nullptr);
  MachineResult result = machine.run(*protocol, max_events);
  factory.reclaim(0, std::move(protocol));
  info_.parallel_engine = false;
  info_.fallback_reason = "off-grid timer armed mid-run";
  info_.shards = 1;
  return result;
}

MachineResult ParMachine::run_windowed(ShardProtocolFactory& factory,
                                       const TickRunSetup& setup,
                                       std::uint64_t max_events) {
  using Clock = std::chrono::steady_clock;
  const auto ms_since = [](Clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  };

  const std::uint64_t n = params_.n();
  const std::uint64_t lanes = std::max<std::uint64_t>(
      1, std::min<std::uint64_t>(threads_, n == 0 ? 1 : n));
  const std::uint64_t shard_size = n == 0 ? 1 : (n + lanes - 1) / lanes;
  const std::uint32_t s_count =
      static_cast<std::uint32_t>(n == 0 ? 1 : (n + shard_size - 1) / shard_size);

  if (!engine_) engine_ = std::make_unique<Engine>();
  Engine& eng = *engine_;
  if (!eng.pool || eng.pool_threads != static_cast<unsigned>(lanes)) {
    eng.pool = std::make_unique<par::ThreadPool>(static_cast<unsigned>(lanes));
    eng.pool_threads = static_cast<unsigned>(lanes);
  }
  par::ThreadPool& pool = *eng.pool;

  eng.port_free.assign(n, 0);
  eng.recv_free.assign(n, 0);
  eng.port_busy_units.assign(n, 0);
  eng.flush_head.assign(static_cast<std::size_t>(s_count) * s_count, 0);
  eng.flush_in.assign(s_count, 0);
  eng.flush_cross.assign(s_count, 0);

  MachineResult result;
  result.trace = Trace(n, messages_, trace_mode_);

  eng.shards.resize(s_count);
  std::vector<ParShard>& shards = eng.shards;
  for (std::uint32_t s = 0; s < s_count; ++s) {
    ParShard& sh = shards[s];
    sh.params = &params_;
    sh.messages = messages_;
    sh.injector = injector_.get();
    sh.lo = static_cast<ProcId>(s * shard_size);
    sh.hi = static_cast<ProcId>(std::min<std::uint64_t>(n, (s + 1) * shard_size));
    sh.tick_q = setup.q;
    sh.lambda_ticks = setup.lambda_ticks;
    sh.crash_ticks = &setup.crash_ticks;
    sh.spike_ticks = &setup.spike_ticks;
    sh.port_free = eng.port_free.data();
    sh.recv_free = eng.recv_free.data();
    sh.port_busy_units = eng.port_busy_units.data();
    sh.max_events = max_events;
    sh.shard_size = shard_size;
    sh.trace_mode = trace_mode_;
    sh.trace = &result.trace;
    sh.prepare(s_count);
    sh.protocol = factory.make(s, s_count);
    POSTAL_CHECK(sh.protocol != nullptr);
  }

  if (injector_ != nullptr) {
    injector_->reset();
    for (ProcId p = 0; p < n; ++p) {
      const auto& c = injector_->crash_time(p);
      if (c.has_value()) {
        ++result.faults.crashes_applied;
        result.faults.events.push_back(
            FaultEvent{FaultEvent::Kind::kCrash, *c, p, p});
      }
    }
  }

  Replay& replay = eng.replay;
  replay.start_run(&shards, &result.trace, &result.faults,
                   trace_mode_ == TraceMode::kFull);

  // One barrier: the sequential slot-assignment pass, then the parallel
  // payload materialization (merge_ms), then the parallel per-destination
  // mailbox merge into the shard queues (flush_ms).
  const auto flush_dest = [&](std::size_t d) {
    ParShard& dst = shards[d];
    std::size_t* head = &eng.flush_head[d * s_count];
    for (std::uint32_t s = 0; s < s_count; ++s) head[s] = 0;
    std::uint64_t in = 0;
    std::uint64_t cross = 0;
    while (true) {
      std::size_t best = s_count;
      Tick best_tick = 0;
      std::uint64_t best_g = 0;
      for (std::size_t s = 0; s < s_count; ++s) {
        const std::vector<ParShard::OutboxEntry>& run = shards[s].outbox[d];
        if (head[s] >= run.size()) continue;
        const ParShard::OutboxEntry& e = run[head[s]];
        const std::uint64_t g = replay.outbox_gseq(s)[e.local_seq];
        if (best == s_count || e.tick < best_tick ||
            (e.tick == best_tick && g < best_g)) {
          best = s;
          best_tick = e.tick;
          best_g = g;
        }
      }
      if (best == s_count) break;
      ParShard::OutboxEntry& e = shards[best].outbox[d][head[best]++];
      // (tick, gseq) merge order satisfies the queue's same-tick FIFO
      // contract; every tick is >= the window end, hence >= the cursor.
      dst.q.push(e.tick, best_g, std::move(e.ev));
      ++in;
      if (best != d) ++cross;
    }
    dst.mailbox_in += in;
    eng.flush_in[d] = in;
    eng.flush_cross[d] = cross;
  };

  const auto barrier = [&] {
    auto t0 = Clock::now();
    replay.sequence();
    replay.materialize_prepare();
    if (replay.window_payloads() != 0) {
      pool.for_each(s_count,
                    [&replay](std::size_t s) { replay.materialize_shard(s); });
    }
    info_.merge_ms += ms_since(t0);
    t0 = Clock::now();
    bool any_outbox = false;
    for (const ParShard& sh : shards) {
      for (const auto& run : sh.outbox) {
        if (!run.empty()) {
          any_outbox = true;
          ++info_.flush_runs;
        }
      }
    }
    if (any_outbox) {
      pool.for_each(s_count, flush_dest);
      for (std::uint32_t d = 0; d < s_count; ++d) {
        info_.barrier_events += eng.flush_in[d];
        info_.cross_shard_events += eng.flush_cross[d];
      }
    }
    for (ParShard& sh : shards) sh.clear_window();
    info_.flush_ms += ms_since(t0);
  };
  const auto check_total_steps = [&] {
    std::uint64_t total = 0;
    for (const ParShard& sh : shards) total += sh.steps;
    if (total > max_events) {
      throw LogicError("ParMachine::run: exceeded max_events; runaway protocol?");
    }
  };

  // Preamble: Machine's sequential on_start loop, as pseudo-pops merged in
  // rank order (stamp = rank, everything outboxed).
  auto t0 = Clock::now();
  pool.for_each(s_count, [&shards](std::size_t s) {
    ParShard& sh = shards[s];
    for (ProcId p = sh.lo; p < sh.hi; ++p) sh.start_rank(p);
    sh.seal_outboxes();
  });
  info_.window_ms += ms_since(t0);
  barrier();

  while (true) {
    Tick next = kNoTick;
    for (ParShard& sh : shards) {
      if (!sh.q.empty()) next = std::min(next, sh.q.peek_time());
    }
    if (next == kNoTick) break;
    const Tick window_end = next + setup.lambda_ticks;
    t0 = Clock::now();
    pool.for_each(s_count, [&shards, window_end](std::size_t s) {
      shards[s].run_window(window_end);
      shards[s].seal_outboxes();
    });
    info_.window_ms += ms_since(t0);
    barrier();
    check_total_steps();
    ++info_.windows;
  }

  // Merge run accumulators into the sequential result shape.
  result.stats.port_busy.assign(n, Rational(0));
  Schedule schedule;
  for (ParShard& sh : shards) {
    result.stats.events_processed += sh.stats.events_processed;
    result.stats.sends_enqueued += sh.stats.sends_enqueued;
    result.stats.sends_deferred += sh.stats.sends_deferred;
    result.stats.timers_set += sh.stats.timers_set;
    result.stats.timers_fired += sh.stats.timers_fired;
    result.stats.receives_queued += sh.stats.receives_queued;
    result.stats.max_fifo_depth =
        std::max(result.stats.max_fifo_depth, sh.stats.max_fifo_depth);
    result.faults.sends_suppressed += sh.faults.sends_suppressed;
    result.faults.drops_crash += sh.faults.drops_crash;
    result.faults.drops_loss += sh.faults.drops_loss;
    result.faults.spikes_applied += sh.faults.spikes_applied;
    for (const SendEvent& e : sh.sends) schedule.add(e);
  }
  if (trace_mode_ == TraceMode::kCounters) {
    for (const ParShard& sh : shards) {
      result.trace.counters_fold(sh.stats.events_processed,
                                 Rational(sh.max_delivery_tick, setup.q));
    }
  }
  for (std::uint64_t p = 0; p < n; ++p) {
    if (eng.port_busy_units[p] == 0) continue;
    POSTAL_CHECK(eng.port_busy_units[p] <= static_cast<std::uint64_t>(INT64_MAX));
    result.stats.port_busy[p] +=
        Rational(static_cast<std::int64_t>(eng.port_busy_units[p]));
  }
  schedule.sort();
  result.schedule = std::move(schedule);

  info_.parallel_engine = true;
  info_.shards = s_count;
  info_.replayed_pops = replay.replayed_pops;
  info_.merge_deliveries = replay.merge_deliveries;
  info_.merge_fault_events = replay.merge_fault_events;
  info_.shard.resize(s_count);
  for (std::uint32_t s = 0; s < s_count; ++s) {
    info_.shard[s].pops = shards[s].steps;
    info_.shard[s].stalled_windows = shards[s].stalled_windows;
    info_.shard[s].mailbox_in = shards[s].mailbox_in;
    info_.flush_fallback_sorts += shards[s].flush_fallback_sorts;
    info_.arena_growths += shards[s].arena_growths;
    factory.reclaim(s, std::move(shards[s].protocol));
  }
  return result;
}

}  // namespace postal
