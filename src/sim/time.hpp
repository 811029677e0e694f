#pragma once
// Simulated time, kept apart from the event core so that headers which only
// carry timestamps (dist/job.hpp and, through it, the plan lowerings) do not
// pull in sim::Simulator.

namespace hpbdc::sim {

/// Simulated seconds since the start of a run.
using SimTime = double;

}  // namespace hpbdc::sim
