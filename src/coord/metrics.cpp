#include "coord/metrics.hpp"

namespace postal::coord {

void record_election(obs::MetricsRegistry& registry,
                     const ElectionReport& report) {
  const ElectionCounters& c = report.counters;
  registry.counter("coord.elect.heartbeats").add(c.heartbeats_sent);
  registry.counter("coord.elect.probes").add(c.probes_sent);
  registry.counter("coord.elect.alives").add(c.alives_sent);
  registry.counter("coord.elect.victories").add(c.victories_sent);
  registry.counter("coord.elect.suspicions").add(c.suspicions);
  registry.counter("coord.elect.takeovers").add(c.takeovers);
  registry.counter("coord.elect.adoptions").add(c.adoptions);
  registry.counter("coord.elect.step_downs").add(c.step_downs);
  registry.counter("coord.elect.events").add(report.events.size());
  registry.counter("coord.elect.crashed").add(report.crashed.size());
  registry.counter("coord.elect.settled").add(report.settled ? 1 : 0);
  registry.counter("coord.elect.check_ok").add(report.check.ok ? 1 : 0);
  registry.rational("coord.elect.first_suspect").add(report.first_suspect);
  registry.rational("coord.elect.elected_at").add(report.elected_at);
  registry.rational("coord.elect.latency").add(report.election_latency);
  registry.gauge("coord.elect.leader")
      .set(static_cast<std::int64_t>(report.leader));
}

std::vector<obs::TraceMarker> election_markers(const ElectionReport& report) {
  std::vector<obs::TraceMarker> out;
  out.reserve(report.events.size());
  for (const ElectionEvent& e : report.events) {
    std::string name;
    switch (e.kind) {
      case ElectionEvent::Kind::kSuspect:
        name = "suspect p" + std::to_string(e.leader);
        break;
      case ElectionEvent::Kind::kVictory:
        name = "victory t" + std::to_string(e.term);
        break;
      case ElectionEvent::Kind::kAdopt:
        name = "adopt p" + std::to_string(e.leader) + " t" +
               std::to_string(e.term);
        break;
      case ElectionEvent::Kind::kStepDown:
        name = "step down";
        break;
    }
    out.push_back(obs::TraceMarker{
        std::move(name), e.rank, e.time,
        "\"term\":" + std::to_string(e.term) +
            ",\"leader\":" + std::to_string(e.leader)});
  }
  return out;
}

void record_log(obs::MetricsRegistry& registry, const LogReport& report) {
  const LogCounters& c = report.counters;
  registry.counter("coord.log.view_changes").add(c.view_changes_sent);
  registry.counter("coord.log.vc_accs").add(c.vc_accs_sent);
  registry.counter("coord.log.proposals").add(c.proposals);
  registry.counter("coord.log.proposal_relays").add(c.proposal_relays);
  registry.counter("coord.log.proposal_repairs").add(c.proposal_repairs);
  registry.counter("coord.log.acks").add(c.acks_sent);
  registry.counter("coord.log.commits").add(c.commits);
  registry.counter("coord.log.commit_relays").add(c.commit_relays);
  registry.counter("coord.log.catchup_commits").add(c.catchup_commits);
  registry.counter("coord.log.renews").add(c.renews_sent);
  registry.counter("coord.log.renew_acks").add(c.renew_acks_sent);
  registry.counter("coord.log.lease_acquisitions").add(c.lease_acquisitions);
  registry.counter("coord.log.lease_renewals").add(c.lease_renewals);
  registry.counter("coord.log.lease_expiries").add(c.lease_expiries);
  registry.counter("coord.log.stale_rejects").add(c.stale_rejects);
  registry.counter("coord.log.decides").add(c.decides);
  registry.counter("coord.log.config_applies").add(c.config_applies);
  registry.counter("coord.log.reconfig_commands").add(c.reconfig_commands);
  registry.counter("coord.log.views_used").add(report.views_used);
  registry.counter("coord.log.crashed").add(report.crashed.size());
  registry.counter("coord.log.settled").add(report.settled ? 1 : 0);
  registry.counter("coord.log.check_ok").add(report.check.ok ? 1 : 0);
  registry.rational("coord.log.latency").add(report.commit_latency);
  registry.rational("coord.log.baseline").add(report.baseline);
  registry.rational("coord.log.recovery").add(report.recovery_time);
  registry.gauge("coord.log.slots").set(static_cast<std::int64_t>(report.slots));
  registry.gauge("coord.log.quorum")
      .set(static_cast<std::int64_t>(report.quorum));
  registry.gauge("coord.log.final_members")
      .set(static_cast<std::int64_t>(report.final_members.size()));
}

std::vector<obs::TraceMarker> log_markers(const LogReport& report) {
  std::vector<obs::TraceMarker> out;
  out.reserve(report.events.size());
  for (const LogEvent& e : report.events) {
    std::string name;
    switch (e.kind) {
      case LogEvent::Kind::kViewChange:
        name = "view-change v" + std::to_string(e.view);
        break;
      case LogEvent::Kind::kLeaseAcquire:
        name = "lease t" + std::to_string(e.view + 1);
        break;
      case LogEvent::Kind::kLeaseRenew:
        name = "renew t" + std::to_string(e.view + 1);
        break;
      case LogEvent::Kind::kLeaseExpire:
        name = "lease expired t" + std::to_string(e.view + 1);
        break;
      case LogEvent::Kind::kPropose:
        name = "propose s" + std::to_string(e.slot) + " v" +
               std::to_string(e.view);
        break;
      case LogEvent::Kind::kCommit:
        name = "commit s" + std::to_string(e.slot);
        break;
      case LogEvent::Kind::kDecide:
        name = "decide s" + std::to_string(e.slot);
        break;
      case LogEvent::Kind::kStaleReject:
        name = "fenced v" + std::to_string(e.view);
        break;
      case LogEvent::Kind::kConfigApply:
        name = std::string("config ") +
               (config_value_adds(e.value) ? "+" : "-") + "p" +
               std::to_string(config_value_rank(e.value));
        break;
    }
    out.push_back(obs::TraceMarker{
        std::move(name), e.rank, e.time,
        "\"view\":" + std::to_string(e.view) +
            ",\"slot\":" + std::to_string(e.slot) +
            ",\"value\":" + std::to_string(e.value)});
  }
  return out;
}

}  // namespace postal::coord
