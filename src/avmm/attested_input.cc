#include "src/avmm/attested_input.h"

#include "src/util/serde.h"
#include "src/vm/isa.h"
#include "src/vm/trace.h"

namespace avm {

NodeId InputDeviceId(const NodeId& node) {
  return node + "/input";
}

bool InputAttestationRequired(const NodeId& node, const KeyRegistry& registry) {
  return registry.Knows(InputDeviceId(node));
}

Bytes AttestedInputEvent::SignedPayload(const NodeId& device, uint64_t index, uint32_t code) {
  Writer w;
  w.Str(device);
  w.U64(index);
  w.U32(code);
  return w.Take();
}

Bytes AttestedInputEvent::Serialize() const {
  Writer w;
  w.Str(device);
  w.U64(index);
  w.U32(code);
  w.Blob(signature);
  return w.Take();
}

AttestedInputEvent AttestedInputEvent::Deserialize(ByteView data) {
  Reader r(data);
  AttestedInputEvent e;
  e.device = r.Str();
  e.index = r.U64();
  e.code = r.U32();
  e.signature = r.Blob();
  r.ExpectEnd();
  return e;
}

bool AttestedInputEvent::Verify(const KeyRegistry& registry) const {
  return registry.Verify(device, SignedPayload(device, index, code), signature);
}

AttestedInputScanner::AttestedInputScanner(const NodeId& node, const KeyRegistry& registry)
    : device_(InputDeviceId(node)), registry_(registry), device_known_(registry.Knows(device_)) {}

CheckResult AttestedInputScanner::Feed(const LogEntry& e) {
  if (!device_known_) {
    return CheckResult::Fail("node declares attested input but no device key is registered");
  }
  if (e.type != EntryType::kTraceOther) {
    return CheckResult::Ok();
  }
  TraceEvent ev;
  try {
    ev = TraceEvent::Deserialize(e.content);
  } catch (const SerdeError&) {
    return CheckResult::Fail("malformed trace entry", e.seq);
  }
  if (ev.kind != TraceKind::kPortIn || ev.port != kPortInput || ev.value == 0) {
    return CheckResult::Ok();  // Not a consumed input event.
  }
  // The attestation rides in the event's data field.
  AttestedInputEvent att;
  try {
    att = AttestedInputEvent::Deserialize(ev.data);
  } catch (const SerdeError&) {
    return CheckResult::Fail("consumed input event carries no attestation", e.seq);
  }
  if (att.device != device_) {
    return CheckResult::Fail("input attested by a foreign device", e.seq);
  }
  if (att.code != ev.value) {
    return CheckResult::Fail("attestation covers a different input code", e.seq);
  }
  if (saw_any_ && att.index <= last_index_) {
    return CheckResult::Fail("input attestation replayed (non-increasing index)", e.seq);
  }
  if (!att.Verify(registry_)) {
    return CheckResult::Fail("input attestation signature invalid", e.seq);
  }
  last_index_ = att.index;
  saw_any_ = true;
  return CheckResult::Ok();
}

void AttestedInputScanner::SerializeState(Writer& w) const {
  w.U64(last_index_);
  w.U8(saw_any_ ? 1 : 0);
}

void AttestedInputScanner::RestoreState(Reader& r) {
  last_index_ = r.U64();
  saw_any_ = r.U8() != 0;
}

CheckResult VerifyAttestedInputs(const LogSegment& segment, const KeyRegistry& registry) {
  AttestedInputScanner scanner(segment.node, registry);
  for (const LogEntry& e : segment.entries) {
    CheckResult r = scanner.Feed(e);
    if (!r.ok) {
      return r;
    }
  }
  return CheckResult::Ok();
}

}  // namespace avm
