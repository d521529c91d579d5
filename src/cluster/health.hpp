// Worker health lattice for the gray-failure layer (DESIGN.md §12).
//
// A SIGKILLed worker announces itself (EOF on the channel); a SIGSTOPped
// or livelocked one does not — it just goes quiet. The master therefore
// judges every leased worker by *silence*: the time since its last frame
// (heartbeat, mark, or done). This header holds the judgement as pure,
// clock-free functions — the master feeds in measured silence, tests feed
// in table values, and both get the identical lattice:
//
//   healthy --silence > suspect_after x heartbeat_ms--> suspect
//   suspect --any frame arrives (silence resets)------> healthy
//   suspect --silence > 2 x that budget---------------> dead
//
// Suspect is the hedging trigger (duplicate the job elsewhere, first
// verified result wins); dead is the give-up point (close the channel,
// count a worker death). The 2x dead threshold means a hedge always gets
// a head start before the original is written off.
//
// Header-only and dependency-free on purpose: the TSan/ASan test tiers
// build the transport from source and include this next to it.
#pragma once

namespace dsm::cluster {

enum class Health {
  kHealthy,  // heard from recently; silence within budget
  kSuspect,  // silent past the budget — hedge its work, keep listening
  kDead,     // silent past twice the budget — written off
};

inline const char* health_name(Health h) {
  switch (h) {
    case Health::kHealthy: return "healthy";
    case Health::kSuspect: return "suspect";
    case Health::kDead: return "dead";
  }
  return "?";
}

/// Knobs for the silence judgement. heartbeat_ms is the worker's emission
/// period; suspect_after is how many missed beats earn suspicion.
/// heartbeat_ms == 0 disables the protocol entirely (the pre-ISSUE-9
/// blocking master).
struct HealthPolicy {
  int heartbeat_ms = 0;
  int suspect_after = 3;
};

/// Silence budget before a worker turns suspect, in ms (0 = disabled).
inline long long suspect_budget_ms(const HealthPolicy& p) {
  return static_cast<long long>(p.heartbeat_ms) * p.suspect_after;
}

/// Pure classification: worker silent for `silent_ms`. Monotone in
/// silence; a late heartbeat resets silence to 0 and the worker is
/// healthy again (suspect -> healthy recovery needs no special case).
inline Health classify_health(const HealthPolicy& p, long long silent_ms) {
  const long long budget = suspect_budget_ms(p);
  if (budget <= 0) return Health::kHealthy;  // protocol disabled
  if (silent_ms <= budget) return Health::kHealthy;
  if (silent_ms <= 2 * budget) return Health::kSuspect;
  return Health::kDead;
}

/// The master's respawn backoff schedule: 1 ms doubling to a 200 ms cap.
constexpr int kRespawnBackoffBaseMs = 1;
constexpr int kRespawnBackoffCapMs = 200;

/// Capped exponential respawn backoff: after `consecutive_failures`
/// worker deaths with no intervening successful ack, wait
/// min(cap_ms, base_ms * 2^(failures-1)) before forking a replacement.
/// 0 failures (or a non-positive base) means no wait. Pure so the table
/// tests can pin the doubling and the cap edge exactly.
inline long long respawn_backoff_ms(int consecutive_failures, int base_ms,
                                    int cap_ms) {
  if (consecutive_failures <= 0 || base_ms <= 0) return 0;
  long long wait = base_ms;
  for (int i = 1; i < consecutive_failures && wait < cap_ms; ++i) wait *= 2;
  return wait < cap_ms ? wait : cap_ms;
}

}  // namespace dsm::cluster
