#include "sched/logp_machine.hpp"

#include "sched/bcast.hpp"

namespace postal {

LogPReport validate_logp_schedule(const Schedule& schedule, const LogPParams& params) {
  params.validate();
  // Submissions and absorptions are windows of length G = max(o, g) at one
  // port each; a message submitted at t is usable at t + 2o + L.
  ModelSpec spec;
  spec.n = params.P;
  spec.window = params.effective_gap();
  spec.intra = Rational(2) * params.o + params.L;
  spec.site = "validate_logp_schedule";
  return check_model(schedule, spec,
                     {"submitting a message that is not yet usable",
                      "submissions closer than max(o, g)",
                      "absorptions closer than max(o, g)"});
}

Schedule logp_bcast_schedule(const LogPParams& params) {
  params.validate();
  const Rational gap = params.effective_gap();
  GenFib fib(params.postal_lambda());
  Schedule postal;
  bcast_emit(postal, fib, /*base=*/0, params.P, Rational(0), /*msg=*/0);
  Schedule schedule;
  for (const SendEvent& e : postal.events()) {
    schedule.add(e.src, e.dst, e.msg, e.t * gap);
  }
  schedule.sort();
  return schedule;
}

}  // namespace postal
