// The quiescence check for linked time-stamping (DESIGN.md §13(c)).
//
// Every run that closes at a party seals that party's evidence log with a
// signed, TSS-stamped anchor over its head record, so once a deployment
// is quiet no evidence may be left outside an anchor. Crash campaigns and
// soaks call expect_fully_anchored at the end of every case: it holds
// across crashes, recoveries and resumed runs only if every path that
// closes a run also seals.
#pragma once

#include <gtest/gtest.h>

#include <string>

#include "b2b/arbiter.hpp"
#include "b2b/federation.hpp"

namespace b2b::test {

/// Every party's anchors verify under its own key and the federation's
/// TSS key, and no record trails the newest valid anchor.
inline void expect_fully_anchored(core::Federation& fed) {
  ASSERT_NE(fed.tss(), nullptr);
  for (const PartyId& party : fed.party_ids()) {
    core::Coordinator& coord = fed.coordinator(party.str());
    coord.synchronize();
    const core::Arbiter::AnchorReport report =
        core::Arbiter::verify_anchored_spans(
            coord.evidence(), coord.public_key(), &fed.tss()->public_key());
    EXPECT_TRUE(report.all_anchors_valid)
        << party << ": "
        << (report.problems.empty() ? "" : report.problems.front());
    std::string trailing;  // kinds, for the failure message
    for (const store::EvidenceRecord& record : coord.evidence().records()) {
      if (record.kind != core::evidence_kind::kEvidenceAnchor &&
          (!report.highest_anchored_index.has_value() ||
           record.index > *report.highest_anchored_index)) {
        trailing += " " + record.kind;
      }
    }
    EXPECT_EQ(report.trailing_records, 0u)
        << party << ": evidence after the newest valid anchor:" << trailing;
  }
}

}  // namespace b2b::test
