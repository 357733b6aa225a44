// The canonical crash-point campaign: every named crash point under src/
// (see src/b2b/recovery.hpp), grouped by the protocol role whose code path
// passes it. Shared by the single-object campaign in recovery_test.cpp,
// the multi-object (sharded) campaign in sharding_test.cpp, and the batch
// campaign in pipeline_test.cpp (a state run of any size passes the same
// proposer/responder points), so none can silently fall out of date when
// a point is added; tests/scripts/crash_points_in_sync.sh fails on any
// drift between these lists and the source.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

namespace b2b::test {

// Crash points passed on the proposer's code path.
inline const std::vector<std::string> kProposerPoints = {
    "propose.pre-journal",  "propose.journaled", "propose.mid-send",
    "propose.sent",         "response.pre-journal", "response.journaled",
    "decide.pre-journal",   "decide.journaled",  "decide.mid-send",
    "decide.sent",          "run.pre-seal",      "decide.installed",
};

// Crash points passed on a responder's code path.
inline const std::vector<std::string> kResponderPoints = {
    "respond.pre-journal",     "respond.journaled",
    "respond.sent",            "decide-recv.pre-journal",
    "decide-recv.journaled",   "run.pre-seal",
    "decide-recv.installed",
};

// Membership crash points passed on the sponsor's code path during a
// connect run.
inline const std::vector<std::string> kSponsorMembershipPoints = {
    "m-propose.pre-journal", "m-propose.journaled",  "m-propose.sent",
    "m-response.journaled",  "m-decide.pre-journal", "m-decide.journaled",
    "m-decide.mid-send",     "m-decide.sent",        "m-decide.installed",
};

// Membership crash points passed on a recipient's code path.
inline const std::vector<std::string> kRecipientMembershipPoints = {
    "m-respond.journaled",       "m-respond.sent",
    "m-decide-recv.pre-journal", "m-decide-recv.journaled",
    "m-decide-recv.installed",
};

// The one crash point on the subject's (joiner's) code path.
inline const std::string kSubjectPoint = "m-request.journaled";

// Termination crash points passed at the party that refers a blocked run
// to the arbiter.
inline const std::vector<std::string> kTerminationPoints = {
    "ttp-submit.journaled",
    "verdict.journaled",
};

// Deal crash points passed at the initiator (DESIGN.md §12): staging a
// leg, opening the deal, launching the staged runs, journaling and
// replicating the signed decision.
inline const std::vector<std::string> kDealInitiatorPoints = {
    "deal-stage.pre-journal",  "deal-open.pre-journal",
    "deal-open.journaled",     "deal-launch.mid-send",
    "deal-launch.sent",        "deal-decide.pre-journal",
    "deal-decide.journaled",   "deal-decide.mid-replicate",
};

// Deal crash points passed at a participant: journaling a received
// enlist, and acting on a received abort decision.
inline const std::vector<std::string> kDealParticipantPoints = {
    "deal-enlist-recv.pre-journal", "deal-enlist-recv.journaled",
    "deal-abort-recv.pre-journal",  "deal-abort-recv.journaled",
};

/// CI sweeps the campaigns under several seeds via this env var; the
/// default matches the historical hardcoded seed.
inline std::uint64_t campaign_seed() {
  const char* seed = std::getenv("B2B_CRASH_SEED");
  return seed != nullptr ? std::strtoull(seed, nullptr, 10) : 11;
}

/// Crash-point name as a filesystem-safe tag fragment.
inline std::string sanitized_point(const std::string& point) {
  std::string out = point;
  for (char& c : out) {
    if (c == '.' || c == '-') c = '_';
  }
  return out;
}

}  // namespace b2b::test
