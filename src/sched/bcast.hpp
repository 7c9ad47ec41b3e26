// Algorithm BCAST (Section 3): the optimal single-message broadcast.
//
// Processor p_0 holds message M at t = 0 and must broadcast it to
// p_0 .. p_{n-1}. At each step the current holder of a range of size
// n' >= 2 computes j = F_lambda(f_lambda(n') - 1), sends M to the processor
// j positions into its range, then recurses on its own sub-range of size j
// one time unit later, while the recipient recurses on the remaining
// sub-range of size n' - j upon receipt (lambda time units later).
//
// Theorem 6: the resulting schedule completes in exactly f_lambda(n) time,
// and no algorithm can do better.
#pragma once

#include "model/genfib.hpp"
#include "model/params.hpp"
#include "sched/schedule.hpp"

namespace postal {

/// Generate the BCAST schedule for broadcasting one message (id 0) from
/// p_0 in MPS(n, lambda). `fib` must have been constructed with the same
/// lambda. The returned schedule is sorted by time. Emission runs on int64
/// ticks at resolution 1/q (lambda = p/q); throws OverflowError when
/// n * lambda leaves no int64 headroom on that grid.
[[nodiscard]] Schedule bcast_schedule(const PostalParams& params, GenFib& fib);

/// Convenience overload constructing its own GenFib.
[[nodiscard]] Schedule bcast_schedule(const PostalParams& params);

/// The exact running time of BCAST: T_B(n, lambda) = f_lambda(n)
/// (Theorem 6). Equals 0 for n == 1.
[[nodiscard]] Rational predict_bcast(GenFib& fib, std::uint64_t n);

/// Internal building block shared with the multi-message generators:
/// emit BCAST send events for the contiguous range [base, base+count) with
/// the range's first processor holding the message and free to send from
/// `start`. Message id is `msg`. Runs the same tick emitter on the grid
/// representing lambda and `start`; throws OverflowError like
/// bcast_schedule.
void bcast_emit(Schedule& schedule, GenFib& fib, ProcId base, std::uint64_t count,
                const Rational& start, MsgId msg);

}  // namespace postal
