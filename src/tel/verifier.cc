#include "src/tel/verifier.h"

#include <algorithm>

#include "src/tel/batch.h"

namespace avm {

CheckResult CheckChainLink(const Hash256& prev, uint64_t expect_seq, const LogEntry& e) {
  if (e.seq != expect_seq) {
    return CheckResult::Fail("non-consecutive sequence numbers", e.seq);
  }
  if (ChainHash(prev, e.seq, e.type, e.content) != e.hash) {
    return CheckResult::Fail("hash chain broken", e.seq);
  }
  return CheckResult::Ok();
}

void CheckChainLinks(std::span<const LogEntry> entries, size_t begin, size_t end, int8_t* links,
                     bool stop_at_failure) {
  constexpr size_t kGroup = 4;
  for (size_t i = begin; i < end; i += kGroup) {
    const size_t m = std::min(kGroup, end - i);
    ByteView contents[kGroup];
    Hash256 content_hashes[kGroup];
    for (size_t k = 0; k < m; k++) {
      contents[k] = entries[i + k].content;
    }
    Sha256::DigestMany(std::span(contents, m), std::span(content_hashes, m));
    uint8_t messages[kGroup][kChainLinkSize];
    ByteView message_views[kGroup];
    Hash256 hashes[kGroup];
    for (size_t k = 0; k < m; k++) {
      const LogEntry& e = entries[i + k];
      EncodeChainLink(entries[i + k - 1].hash, e.seq, e.type, content_hashes[k], messages[k]);
      message_views[k] = ByteView(messages[k], kChainLinkSize);
    }
    Sha256::DigestMany(std::span(message_views, m), std::span(hashes, m));
    bool group_ok = true;
    for (size_t k = 0; k < m; k++) {
      const LogEntry& e = entries[i + k];
      const bool ok = e.seq == entries[i + k - 1].seq + 1 && hashes[k] == e.hash;
      links[i + k] = ok ? 1 : 0;
      group_ok = group_ok && ok;
    }
    if (!group_ok && stop_at_failure) {
      return;
    }
  }
}

CheckResult VerifyChain(const LogSegment& segment) {
  if (segment.entries.empty()) {
    return CheckResult::Fail("empty segment");
  }
  uint64_t first_seq = segment.entries.front().seq;
  if (first_seq == 0) {
    return CheckResult::Fail("sequence numbers are 1-based", 0);
  }
  if (first_seq == 1 && !segment.prior_hash.IsZero()) {
    return CheckResult::Fail("segment starts at seq 1 but prior hash is nonzero", 1);
  }
  Hash256 prev = segment.prior_hash;
  uint64_t expect_seq = first_seq;
  for (const LogEntry& e : segment.entries) {
    CheckResult r = CheckChainLink(prev, expect_seq++, e);
    if (!r.ok) {
      return r;
    }
    prev = e.hash;
  }
  return CheckResult::Ok();
}

CheckResult VerifyAgainstAuthenticators(const LogSegment& segment,
                                        std::span<const Authenticator> auths,
                                        const KeyRegistry& registry) {
  CheckResult chain = VerifyChain(segment);
  if (!chain.ok) {
    return chain;
  }
  uint64_t first = segment.FirstSeq();
  uint64_t last = segment.LastSeq();
  bool covered = false;
  for (const Authenticator& a : auths) {
    if (a.node != segment.node || a.seq < first || a.seq > last) {
      continue;
    }
    covered = true;
    if (!a.VerifySignature(registry)) {
      return CheckResult::Fail("authenticator signature invalid", a.seq);
    }
    const LogEntry& e = segment.entries[a.seq - first];
    if (e.hash != a.hash) {
      return CheckResult::Fail("log does not match issued authenticator (tamper or fork)", a.seq);
    }
  }
  if (!covered) {
    return CheckResult::Fail("no authenticator covers the segment; cannot establish authenticity");
  }
  return CheckResult::Ok();
}

bool IsForkProof(const Authenticator& a, const Authenticator& b, const KeyRegistry& registry) {
  return a.node == b.node && a.seq == b.seq && a.hash != b.hash &&
         a.VerifySignature(registry) && b.VerifySignature(registry);
}

bool AuthenticatorStore::Add(const Authenticator& a, const KeyRegistry& registry) {
  if (!a.VerifySignature(registry)) {
    return false;
  }
  auto& m = by_node_[a.node];
  auto it = m.find(a.seq);
  if (it != m.end()) {
    if (it->second.hash != a.hash) {
      fork_proofs_.emplace_back(it->second, a);
    }
    return true;
  }
  m.emplace(a.seq, a);
  return true;
}

bool AuthenticatorStore::AddBatch(const BatchAuthenticator& batch, const KeyRegistry& registry) {
  // Verify() already checks the commitment's signature, so reuse Add's
  // dedup/fork bookkeeping only after the walk established that the
  // signed hash seals exactly these links.
  if (!batch.Verify(registry).ok) {
    return false;
  }
  return Add(batch.commit, registry);
}

std::vector<Authenticator> AuthenticatorStore::InRange(const NodeId& node, uint64_t from,
                                                       uint64_t to) const {
  std::vector<Authenticator> out;
  auto it = by_node_.find(node);
  if (it == by_node_.end()) {
    return out;
  }
  for (auto i = it->second.lower_bound(from); i != it->second.end() && i->first <= to; ++i) {
    out.push_back(i->second);
  }
  return out;
}

std::vector<Authenticator> AuthenticatorStore::AllFor(const NodeId& node) const {
  return InRange(node, 0, UINT64_MAX);
}

const Authenticator* AuthenticatorStore::Latest(const NodeId& node) const {
  auto it = by_node_.find(node);
  if (it == by_node_.end() || it->second.empty()) {
    return nullptr;
  }
  return &it->second.rbegin()->second;
}

size_t AuthenticatorStore::CountFor(const NodeId& node) const {
  auto it = by_node_.find(node);
  return it == by_node_.end() ? 0 : it->second.size();
}

}  // namespace avm
