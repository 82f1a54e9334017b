#include "src/audit/message_check.h"

#include <algorithm>
#include <functional>

#include "src/avmm/snapshot.h"
#include "src/tel/batch.h"
#include "src/util/serde.h"
#include "src/vm/trace.h"

namespace avm {

std::vector<MessageSigJob> CollectMessageSigJobs(const NodeId& node,
                                                std::span<const LogEntry> entries) {
  std::vector<MessageSigJob> jobs;
  for (size_t i = 0; i < entries.size(); i++) {
    const LogEntry& e = entries[i];
    switch (e.type) {
      case EntryType::kSend:
      case EntryType::kRecv: {
        MessageSigJob job{i, false, {}, {}, {}};
        if (ParseMessageEntry(e, &job.msg, &job.sig) &&
            (e.type == EntryType::kSend ? job.msg.src : job.msg.dst) == node &&
            !job.sig.empty()) {
          jobs.push_back(std::move(job));
        }
        break;
      }
      case EntryType::kAck: {
        try {
          AckFrame ack = AckFrame::Deserialize(e.content);
          if (ack.orig_src == node && !ack.auth.signature.empty()) {
            jobs.push_back({i, true, {}, {}, std::move(ack.auth)});
          }
        } catch (const SerdeError&) {
        }
        break;
      }
      default:
        break;
    }
  }
  return jobs;
}

bool MessageSigJob::Verify(const KeyRegistry& registry) const {
  return is_ack ? ack_auth.VerifySignature(registry)
                : registry.Verify(msg.src, msg.Serialize(), sig);
}

bool ParseMessageEntry(const LogEntry& e, MessageRecord* msg, Bytes* sig) {
  try {
    Reader r(e.content);
    *msg = MessageRecord::Deserialize(r.Blob());
    *sig = r.Blob();
    r.ExpectEnd();
    return true;
  } catch (const SerdeError&) {
    return false;
  }
}

CheckResult MessageCheckState::Feed(const LogEntry& e, int8_t sig_verdict) {
  auto sig_ok = [&](const std::function<bool()>& verify_inline) {
    return sig_verdict >= 0 ? sig_verdict == 1 : verify_inline();
  };
  switch (e.type) {
    case EntryType::kSend: {
      MessageRecord msg;
      Bytes sig;
      if (!ParseMessageEntry(e, &msg, &sig)) {
        return CheckResult::Fail("malformed SEND entry", e.seq);
      }
      if (msg.src != node_) {
        return CheckResult::Fail("SEND entry with foreign source", e.seq);
      }
      if (sig.empty() && registry_.RequiresSignature(msg.src)) {
        // Batched mode: our own SEND needs no per-message signature —
        // the hash chain plus this node's windowed authenticators
        // commit it, and that is what the segment was verified against.
      } else if (!sig_ok([&] { return registry_.Verify(msg.src, msg.Serialize(), sig); })) {
        return CheckResult::Fail("SEND payload signature invalid", e.seq);
      }
      // Cross-reference: the sent payload must be derived from the most
      // recent packet the guest actually transmitted ([src_idx] + tail).
      if (msg.payload.size() < 4 ||
          (strict_ && (!have_tx_ || !BytesEqual(ByteView(msg.payload).subspan(4), current_tx_tail_)))) {
        return CheckResult::Fail("SEND does not correspond to a guest transmission", e.seq);
      }
      sent_ids_[{msg.dst, msg.msg_id}] = true;
      break;
    }
    case EntryType::kRecv: {
      MessageRecord msg;
      Bytes sig;
      if (!ParseMessageEntry(e, &msg, &sig)) {
        return CheckResult::Fail("malformed RECV entry", e.seq);
      }
      if (msg.dst != node_) {
        return CheckResult::Fail("RECV entry with foreign destination", e.seq);
      }
      if (sig.empty() && registry_.RequiresSignature(msg.src)) {
        // Batched mode: authenticity comes from the sender's signed
        // chain containing SEND with this very content (sender and
        // receiver log identical content bytes).
        Hash256 ch = Sha256::Digest(e.content);
        PeerProof& proof = peer_proofs_[msg.src];
        if (proof.send_contents.count(ch) == 0) {
          pending_recvs_.push_back({e.seq, msg.src, ch});
        }
      } else if (!sig_ok([&] { return registry_.Verify(msg.src, msg.Serialize(), sig); })) {
        return CheckResult::Fail("RECV payload signature invalid", e.seq);
      }
      recv_queue_.push_back(msg.payload);
      break;
    }
    case EntryType::kAck: {
      AckFrame ack;
      try {
        ack = AckFrame::Deserialize(e.content);
      } catch (const SerdeError&) {
        return CheckResult::Fail("malformed ACK entry", e.seq);
      }
      if (ack.orig_src != node_) {
        return CheckResult::Fail("ACK entry for a foreign message", e.seq);
      }
      if (strict_ && sent_ids_.find({ack.acker, ack.msg_id}) == sent_ids_.end()) {
        return CheckResult::Fail("ACK for a message never sent", e.seq);
      }
      if (ack.auth.signature.empty() && registry_.RequiresSignature(ack.auth.node)) {
        // Batched mode: the acker's windowed commitment must cover
        // (seq, hash) of its RECV entry.
        if (ack.auth.node != ack.acker) {
          return CheckResult::Fail("ACK authenticator names a third party", e.seq);
        }
        PeerProof& proof = peer_proofs_[ack.auth.node];
        auto it = proof.chain.find(ack.auth.seq);
        if (it == proof.chain.end() || it->second != ack.auth.hash) {
          pending_acks_.push_back({e.seq, ack.auth});
        }
      } else if (!sig_ok([&] { return ack.auth.VerifySignature(registry_); })) {
        return CheckResult::Fail("ACK carries an invalid authenticator", e.seq);
      }
      break;
    }
    case EntryType::kTraceTime:
    case EntryType::kTraceMac:
    case EntryType::kTraceOther: {
      TraceEvent ev;
      try {
        ev = TraceEvent::Deserialize(e.content);
      } catch (const SerdeError&) {
        return CheckResult::Fail("malformed trace entry", e.seq);
      }
      if (ClassifyTraceEvent(ev) != e.type) {
        return CheckResult::Fail("trace entry filed under the wrong stream", e.seq);
      }
      if (ev.kind == TraceKind::kOutPacket) {
        if (ev.data.size() < 4) {
          return CheckResult::Fail("guest TX packet shorter than its header", e.seq);
        }
        current_tx_tail_.assign(ev.data.begin() + 4, ev.data.end());
        have_tx_ = true;
      } else if (ev.kind == TraceKind::kDmaPacket) {
        // Every packet delivered into the AVM must be one the machine
        // actually received (in order).
        if (recv_queue_.empty()) {
          if (strict_) {
            return CheckResult::Fail("packet delivered into AVM without matching RECV", e.seq);
          }
        } else if (BytesEqual(recv_queue_.front(), ev.data)) {
          recv_queue_.pop_front();
        } else if (strict_) {
          return CheckResult::Fail("delivered packet differs from received message", e.seq);
        }
      }
      break;
    }
    case EntryType::kSnapshot: {
      try {
        SnapshotMeta::Deserialize(e.content);
      } catch (const SerdeError&) {
        return CheckResult::Fail("malformed snapshot entry", e.seq);
      }
      break;
    }
    case EntryType::kInfo:
      if (PeerCommitRecord::IsPeerCommit(e.content)) {
        return FeedPeerCommit(e);
      }
      break;
  }
  return CheckResult::Ok();
}

CheckResult MessageCheckState::Finalize() const {
  if (!strict_) {
    // Spot-check windows can end mid-window; the commitment proving
    // their tail lives outside the segment, so pending entries are
    // tolerated here. The audit cannot know the log's sign mode, so
    // this leniency extends to signature-less entries a sync-mode
    // cheater might plant -- consistent with the window's other
    // relaxations (ack pairing, mid-queue crossref), spot checks
    // trade that coverage for cost; the strict full audit is the
    // authoritative verdict and fails any unproven entry.
    return CheckResult::Ok();
  }
  uint64_t first_bad = UINT64_MAX;
  for (const PendingRecv& p : pending_recvs_) {
    first_bad = std::min(first_bad, p.seq);
  }
  for (const PendingAck& p : pending_acks_) {
    first_bad = std::min(first_bad, p.seq);
  }
  if (first_bad != UINT64_MAX) {
    return CheckResult::Fail("entry not covered by the peer's signed batch commitment", first_bad);
  }
  return CheckResult::Ok();
}

void MessageCheckState::SerializeState(Writer& w) const {
  w.U32(static_cast<uint32_t>(recv_queue_.size()));
  for (const Bytes& b : recv_queue_) {
    w.Blob(b);
  }
  w.Blob(current_tx_tail_);
  w.U8(have_tx_ ? 1 : 0);
  w.U32(static_cast<uint32_t>(sent_ids_.size()));
  for (const auto& [key, acked] : sent_ids_) {
    w.Str(key.first);
    w.U64(key.second);
    w.U8(acked ? 1 : 0);
  }
  w.U32(static_cast<uint32_t>(peer_proofs_.size()));
  for (const auto& [peer, proof] : peer_proofs_) {
    w.Str(peer);
    w.U8(proof.seen ? 1 : 0);
    w.U64(proof.commit_seq);
    w.Raw(proof.commit_hash.view());
    w.U32(static_cast<uint32_t>(proof.send_contents.size()));
    for (const Hash256& h : proof.send_contents) {
      w.Raw(h.view());
    }
    w.U32(static_cast<uint32_t>(proof.chain.size()));
    for (const auto& [seq, h] : proof.chain) {
      w.U64(seq);
      w.Raw(h.view());
    }
  }
  w.U32(static_cast<uint32_t>(pending_recvs_.size()));
  for (const PendingRecv& p : pending_recvs_) {
    w.U64(p.seq);
    w.Str(p.src);
    w.Raw(p.content_hash.view());
  }
  w.U32(static_cast<uint32_t>(pending_acks_.size()));
  for (const PendingAck& p : pending_acks_) {
    w.U64(p.seq);
    w.Blob(p.auth.Serialize());
  }
}

void MessageCheckState::RestoreState(Reader& r) {
  recv_queue_.clear();
  sent_ids_.clear();
  peer_proofs_.clear();
  pending_recvs_.clear();
  pending_acks_.clear();
  uint32_t n = r.U32();
  for (uint32_t i = 0; i < n; i++) {
    recv_queue_.push_back(r.Blob());
  }
  current_tx_tail_ = r.Blob();
  have_tx_ = r.U8() != 0;
  n = r.U32();
  for (uint32_t i = 0; i < n; i++) {
    NodeId dst = r.Str();
    uint64_t msg_id = r.U64();
    bool acked = r.U8() != 0;
    sent_ids_[{std::move(dst), msg_id}] = acked;
  }
  n = r.U32();
  for (uint32_t i = 0; i < n; i++) {
    NodeId peer = r.Str();
    PeerProof proof;
    proof.seen = r.U8() != 0;
    proof.commit_seq = r.U64();
    proof.commit_hash = Hash256::FromBytes(r.Raw(32));
    uint32_t m = r.U32();
    for (uint32_t j = 0; j < m; j++) {
      proof.send_contents.insert(Hash256::FromBytes(r.Raw(32)));
    }
    m = r.U32();
    for (uint32_t j = 0; j < m; j++) {
      uint64_t seq = r.U64();
      proof.chain[seq] = Hash256::FromBytes(r.Raw(32));
    }
    peer_proofs_[std::move(peer)] = std::move(proof);
  }
  n = r.U32();
  for (uint32_t i = 0; i < n; i++) {
    PendingRecv p;
    p.seq = r.U64();
    p.src = r.Str();
    p.content_hash = Hash256::FromBytes(r.Raw(32));
    pending_recvs_.push_back(std::move(p));
  }
  n = r.U32();
  for (uint32_t i = 0; i < n; i++) {
    PendingAck p;
    p.seq = r.U64();
    Bytes auth = r.Blob();
    p.auth = Authenticator::Deserialize(auth);
    pending_acks_.push_back(std::move(p));
  }
}

CheckResult MessageCheckState::FeedPeerCommit(const LogEntry& e) {
  PeerCommitRecord rec;
  try {
    rec = PeerCommitRecord::Deserialize(e.content);
  } catch (const SerdeError&) {
    return CheckResult::Fail("malformed peer-commit entry", e.seq);
  }
  if (rec.batch.commit.node != rec.peer) {
    return CheckResult::Fail("peer-commit names the wrong node", e.seq);
  }
  PeerProof& proof = peer_proofs_[rec.peer];
  if (proof.seen) {
    // Each record extends the previous one: the walk start must be the
    // last commitment, so the proofs form one connected chain.
    if (rec.batch.prior_seq != proof.commit_seq || rec.batch.prior_hash != proof.commit_hash) {
      return CheckResult::Fail("peer-commit does not extend the previous commitment", e.seq);
    }
  } else if (strict_ && (rec.batch.prior_seq != 0 || !rec.batch.prior_hash.IsZero())) {
    // A full log's first proof for a peer must anchor at the peer's
    // log head; spot-check windows may start mid-history.
    return CheckResult::Fail("peer-commit does not anchor at the peer's log head", e.seq);
  }
  CheckResult ok = rec.batch.Verify(registry_);  // Walk + one RSA check.
  if (!ok.ok) {
    return CheckResult::Fail("peer-commit invalid: " + ok.reason, e.seq);
  }
  Hash256 h = rec.batch.prior_hash;
  for (const ChainLink& l : rec.batch.links) {
    h = ApplyChainLink(h, l);
    proof.chain[l.seq] = h;
    if (l.type == EntryType::kSend) {
      proof.send_contents.insert(l.content_hash);
    }
  }
  proof.seen = true;
  proof.commit_seq = rec.batch.commit.seq;
  proof.commit_hash = rec.batch.commit.hash;

  // Resolve anything this window proves (proof may arrive before or
  // after the entry it covers; both orders are legitimate).
  std::erase_if(pending_recvs_, [&](const PendingRecv& p) {
    return p.src == rec.peer && proof.send_contents.count(p.content_hash) > 0;
  });
  std::erase_if(pending_acks_, [&](const PendingAck& p) {
    if (p.auth.node != rec.peer) {
      return false;
    }
    auto it = proof.chain.find(p.auth.seq);
    return it != proof.chain.end() && it->second == p.auth.hash;
  });
  return CheckResult::Ok();
}

}  // namespace avm
