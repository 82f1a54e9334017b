// The adversarial auditee: a SegmentSource view an equivocating,
// rewinding or omitting machine would *serve* to its auditor (§2.2's
// threat model — the auditee controls its own log bytes; only the hash
// chain, the authenticators and replay constrain what it can get away
// with). Generalizes the bespoke tampered-source test doubles into a
// plan-driven component: chaos plans schedule kAvmmEquivocate /
// kAvmmRewind / kAvmmOmit events and ApplyDue() turns them into log
// mutations, so compositions (crash *then* equivocate, rewind *during*
// a partition) are one declarative schedule.
//
// Every mutation keeps the served log self-consistent under the hash
// rule (rechained), so detection must come from the protocol itself:
// authenticators held by peers, checkpoints, or replay divergence —
// exactly the paper's argument, and what chaos_test asserts.
#ifndef SRC_CHAOS_ADVERSARY_H_
#define SRC_CHAOS_ADVERSARY_H_

#include <vector>

#include "src/chaos/fault_plan.h"
#include "src/tel/log.h"
#include "src/tel/segment_source.h"

namespace avm {
namespace chaos {

class AdversarialSource final : public SegmentSource {
 public:
  // Snapshots `honest` (entries 1..LastSeq) as the starting point; with
  // no mutations applied the served log is bit-for-bit the honest one.
  explicit AdversarialSource(const SegmentSource& honest);

  // Flip entry `seq`'s content and rechain from there: a self-
  // consistent fork of the log (equivocation). Detected by any peer
  // authenticator at or after `seq`, or by replay.
  void Equivocate(uint64_t seq);
  // Serve only the prefix 1..seq (the log "shrank": what a rewinding
  // machine presents). An online session that already audited past seq
  // surfaces this as kTargetRewound; a full audit fails it when an
  // authenticator commits past the new end.
  void RewindTo(uint64_t seq);
  // Drop entry `seq` entirely, resequence and rechain the tail: the
  // tampered continuation a machine hiding one event would serve.
  void Omit(uint64_t seq);

  // Consumes the due kAvmmEquivocate/kAvmmRewind/kAvmmOmit events for
  // this node from the plan and applies them (events with seq == 0 pick
  // a target seq from the event's derived rng via the injector's plan
  // seed — here simply mid-log). Returns how many were applied.
  size_t ApplyDue(FaultInjector& injector, SimTime now);

  // SegmentSource. LastSeq shrinks after RewindTo/Omit — deliberately:
  // a registered online session sees the same object mutate.
  const NodeId& node() const override { return node_; }
  uint64_t LastSeq() const override { return entries_.size(); }
  LogSegment Extract(uint64_t from_seq, uint64_t to_seq) const override;
  void Scan(uint64_t from_seq, uint64_t to_seq, const EntryVisitor& visit) const override;

 private:
  void RechainFrom(uint64_t seq);

  NodeId node_;
  std::vector<LogEntry> entries_;
};

}  // namespace chaos
}  // namespace avm

#endif  // SRC_CHAOS_ADVERSARY_H_
