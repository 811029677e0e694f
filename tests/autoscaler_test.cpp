// Tests for the target-tracking autoscaling policy that the fleet
// controller runs: targets, cooldowns and instance bounds.

#include <gtest/gtest.h>

#include "cluster/autoscaler.hpp"

namespace hpbdc::cluster {
namespace {

TEST(TargetTracker, TargetsAndCooldownsMatchThePolicy) {
  // capacity 100 @ 0.7 target: 350 rps wants ceil(350/70) = 5 instances.
  TargetTracker tr(100, 0.7, 1, 10, 30, 120);
  auto d = tr.decide(0, 350, 1, 0);
  EXPECT_EQ(d.action, TargetTracker::Action::kUp);
  EXPECT_EQ(d.desired, 5u);
  EXPECT_EQ(d.order, 4u);
  // Inside the up-cooldown: hold even though load still wants more.
  d = tr.decide(10, 700, 1, 4);
  EXPECT_EQ(d.action, TargetTracker::Action::kHold);
  // Booting instances count as provisioned: no double-ordering.
  d = tr.decide(40, 350, 1, 4);
  EXPECT_EQ(d.action, TargetTracker::Action::kHold);
  // Load drops with everything running: scale down to the clamped target,
  // but never while something is still booting.
  d = tr.decide(200, 70, 5, 1);
  EXPECT_EQ(d.action, TargetTracker::Action::kHold);
  d = tr.decide(200, 70, 5, 0);
  EXPECT_EQ(d.action, TargetTracker::Action::kDown);
  EXPECT_EQ(d.desired, 1u);
  // Down-cooldown now armed.
  d = tr.decide(250, 70, 3, 0);
  EXPECT_EQ(d.action, TargetTracker::Action::kHold);
}

TEST(TargetTracker, ClampsToMinAndMax) {
  TargetTracker tr(100, 0.7, 2, 4, 0, 0);
  EXPECT_EQ(tr.decide(0, 0, 2, 0).action, TargetTracker::Action::kHold);
  auto d = tr.decide(1, 1e9, 2, 0);
  EXPECT_EQ(d.action, TargetTracker::Action::kUp);
  EXPECT_EQ(d.desired, 4u);  // max-clamped
  EXPECT_THROW(TargetTracker(0, 0.7, 1, 4, 0, 0), std::invalid_argument);
  EXPECT_THROW(TargetTracker(100, 0.0, 1, 4, 0, 0), std::invalid_argument);
  EXPECT_THROW(TargetTracker(100, 0.7, 5, 4, 0, 0), std::invalid_argument);
}

}  // namespace
}  // namespace hpbdc::cluster
