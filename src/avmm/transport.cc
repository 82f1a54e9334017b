#include "src/avmm/transport.h"

#include <algorithm>

#include "src/obs/trace.h"
#include "src/util/serde.h"

namespace avm {

Transport::Transport(NodeId id, const RunConfig* cfg, TamperEvidentLog* log, const Signer* signer,
                     SimNetwork* net, const KeyRegistry* registry, AuthenticatorStore* auth_store)
    : id_(std::move(id)),
      cfg_(cfg),
      log_(log),
      signer_(signer),
      net_(net),
      registry_(registry),
      auth_store_(auth_store) {
  if (cfg_->BatchedSigning() && cfg_->sign_mode == SignMode::kAsync && signer_ != nullptr) {
    sign_pipeline_ = std::make_unique<AsyncSignPipeline>(id_, signer_);
  }
  RegisterObsMetrics();
}

void Transport::RegisterObsMetrics() {
  auto& reg = obs::Registry::Global();
  const obs::Labels ls{{"node", std::string(id_)}};
  auto pub = [&](const char* name, const uint64_t* field) {
    obs_handles_.push_back(
        reg.RegisterCallbackGauge(name, ls, [field] { return static_cast<int64_t>(*field); }));
  };
  pub("transport_packets_sent", &stats_.packets_sent);
  pub("transport_packets_received", &stats_.packets_received);
  pub("transport_acks_sent", &stats_.acks_sent);
  pub("transport_acks_received", &stats_.acks_received);
  pub("transport_retransmits", &stats_.retransmits);
  pub("transport_duplicates", &stats_.duplicates);
  pub("transport_verify_failures", &stats_.verify_failures);
  pub("transport_dropped_suspended", &stats_.dropped_suspended);
  pub("transport_batch_commits_signed", &stats_.batch_commits_signed);
  pub("transport_peer_commits_verified", &stats_.peer_commits_verified);
  pub("transport_frames_deferred", &stats_.frames_deferred);
  pub("transport_durable_deferred_frames", &stats_.durable_deferred_frames);
  pub("transport_durable_deferred_commits", &stats_.durable_deferred_commits);
  pub("transport_durable_forced_flushes", &stats_.durable_forced_flushes);
  pub("transport_max_released_auth_seq", &stats_.max_released_auth_seq);
  pub("transport_durable_gate_violations", &stats_.durable_gate_violations);
  obs_handles_.push_back(reg.RegisterCallbackGauge("transport_crypto_ms", ls, [this] {
    return static_cast<int64_t>(crypto_seconds_ * 1e3);
  }));
  obs_handles_.push_back(reg.RegisterCallbackGauge("transport_logging_ms", ls, [this] {
    return static_cast<int64_t>(logging_seconds_ * 1e3);
  }));
}

template <typename F>
auto Transport::Crypto(F&& f) {
  WallTimer timer;
  auto r = f();
  crypto_seconds_ += timer.ElapsedSeconds();
  return r;
}

void Transport::Violation(const std::string& what) {
  stats_.verify_failures++;
  violations_.push_back(what);
}

void Transport::SendPacket(SimTime now, const NodeId& dst, Bytes payload) {
  if (suspended_.count(dst) > 0) {
    stats_.dropped_suspended++;
    return;
  }
  stats_.packets_sent++;

  MessageRecord rec{id_, dst, ++send_counter_, std::move(payload)};
  if (!cfg_->TamperEvident()) {
    net_->SendFrame(now, id_, dst, WrapFrame(FrameType::kPlainData, rec.Serialize()));
    return;
  }

  // kSync signs the message itself (§4.3); batched modes leave SEND(m)
  // to the hash chain and the next windowed signature.
  const bool batched = cfg_->BatchedSigning();
  Bytes payload_sig;
  if (!batched) {
    Bytes rec_bytes = rec.Serialize();
    payload_sig = Crypto([&] { return signer_->Sign(rec_bytes); });
  }
  Bytes content = MessageEntryContent(rec, payload_sig);
  Hash256 prev = Log(EntryType::kSend, content);
  Authenticator auth = CommitToTip(batched);
  uint64_t release_seq = batched ? 0 : auth.seq;

  uint64_t msg_id = rec.msg_id;
  Bytes wire;
  if (batched) {
    BatchDataFrame f{std::move(rec), BuildTailFor(dst, /*advance=*/true)};
    wire = WrapFrame(FrameType::kBatchData, f.Serialize());
  } else {
    DataFrame f{std::move(rec), std::move(payload_sig), prev, std::move(auth)};
    wire = WrapFrame(FrameType::kData, f.Serialize());
  }
  Release(now, {dst, msg_id, std::move(wire), std::move(content), release_seq});
}

void Transport::Tick(SimTime now) {
  CloseDueWindows();
  ReleaseAndRetransmit(now);
}

void Transport::CloseDueWindows() {
  if (cfg_->BatchedSigning()) {
    // Trace entries appended since the last message may have filled the
    // window; close it so the unsigned tail stays bounded.
    MaybeCloseWindow();
    PumpAsync();
  }
}

void Transport::ReleaseAndRetransmit(SimTime now) {
  ReleaseDurable(now);
  for (auto it = unacked_.begin(); it != unacked_.end();) {
    PendingSend& p = it->second;
    if (now - p.last_sent >= cfg_->retransmit_timeout) {
      if (p.retransmits >= cfg_->max_retransmits) {
        // §4.3: if acknowledgments never arrive, the sender can only
        // suspect the peer has failed.
        suspected_.insert(p.dst);
        it = unacked_.erase(it);
        continue;
      }
      net_->SendFrame(now, id_, p.dst, p.frame);
      p.last_sent = now;
      p.retransmits++;
      stats_.retransmits++;
    }
    ++it;
  }
}

namespace {

// Names of the frames that carry a commitment, as violation messages
// spell them; nullptr for frames that carry none.
const char* CommitmentFrameName(FrameType type) {
  switch (type) {
    case FrameType::kData:
      return "data";
    case FrameType::kAck:
      return "ack";
    case FrameType::kBatchData:
      return "batch data";
    case FrameType::kBatchAck:
      return "batch ack";
    case FrameType::kCommit:
      return "commit";
    default:
      return nullptr;
  }
}

// "sender <by> does not commit to SEND(m)" / "ack <by> ... RECV(m)".
std::string NotCommitted(EntryType type, const char* by, const NodeId& src) {
  const bool send = type == EntryType::kSend;
  return std::string(send ? "sender " : "ack ") + by + " does not commit to " +
         (send ? "SEND(m)" : "RECV(m)") + " from " + src;
}

}  // namespace

void Transport::OnFrame(SimTime now, const NodeId& src, ByteView frame) {
  FrameType type;
  Bytes body;
  try {
    type = PeekFrameType(frame);
    body = UnwrapFrame(frame);
  } catch (const SerdeError& e) {
    Violation(std::string("malformed frame from ") + src + ": " + e.what());
    return;
  }
  // Suspension (§4.6) blocks application traffic, but challenge traffic
  // must still flow: answering the challenge is how a suspended-but-
  // correct node clears itself.
  if (suspended_.count(src) > 0 && type != FrameType::kChallenge &&
      type != FrameType::kChallengeResponse) {
    stats_.dropped_suspended++;
    return;
  }
  // Without a tamper-evident log there is nothing to log a commitment
  // in and no signer to answer it with.
  const char* commitment_frame = CommitmentFrameName(type);
  if (commitment_frame != nullptr && !cfg_->TamperEvident()) {
    Violation(std::string(commitment_frame) + " frame in a non-accountable configuration from " +
              src);
    return;
  }
  try {
    switch (type) {
      case FrameType::kData:
      case FrameType::kBatchData:
        HandleData(now, src, type, body);
        break;
      case FrameType::kAck:
      case FrameType::kBatchAck:
        HandleAck(src, type, body);
        break;
      case FrameType::kCommit:
        HandleCommit(src, body);
        break;
      case FrameType::kPlainData:
        HandlePlain(now, src, body);
        break;
      case FrameType::kChallenge:
        HandleChallenge(now, src, body);
        break;
      case FrameType::kChallengeResponse:
        HandleChallengeResponse(now, src, body);
        break;
    }
  } catch (const SerdeError& e) {
    Violation(std::string("malformed ") + std::to_string(static_cast<int>(type)) + " frame from " +
              src + ": " + e.what());
  }
}

void Transport::HandlePlain(SimTime now, const NodeId& src, ByteView body) {
  MessageRecord rec = MessageRecord::Deserialize(body);
  if (rec.dst != id_) {
    Violation("plain frame addressed to " + rec.dst);
    return;
  }
  stats_.packets_received++;
  if (packet_handler_) {
    packet_handler_(now, src, rec.payload);
  }
}

void Transport::HandleData(SimTime now, const NodeId& src, FrameType type, ByteView body) {
  const bool batched = type == FrameType::kBatchData;
  DataFrame f;        // kData
  BatchDataFrame bf;  // kBatchData
  if (batched) {
    bf = BatchDataFrame::Deserialize(body);
  } else {
    f = DataFrame::Deserialize(body);
  }
  const MessageRecord& msg = batched ? bf.msg : f.msg;
  if (msg.dst != id_ || msg.src != src || (!batched && f.auth.node != src)) {
    Violation(std::string(CommitmentFrameName(type)) + " frame with inconsistent addressing from " +
              src);
    return;
  }

  // Does src's commitment cover SEND(m)? (f.payload_sig is empty for
  // kBatchData: the chain, not a signature, vouches for the message.)
  Bytes content = MessageEntryContent(msg, f.payload_sig);
  if (batched) {
    // The tail's last link must be SEND(m).
    if (bf.tail.links.empty()) {
      Violation("batch data frame without chain links from " + src);
      return;
    }
    if (!ChainCovers(src, EntryType::kSend, Sha256::Digest(content), &bf.tail.links.back(),
                     bf.tail, nullptr)) {
      return;
    }
  } else {
    // The payload signature proves the message originated at src
    // (detects forged messages injected by an intermediary).
    Bytes rec_bytes = msg.Serialize();
    if (!Crypto([&] { return registry_->Verify(src, rec_bytes, f.payload_sig); })) {
      Violation("payload signature invalid from " + src);
      return;
    }
    if (!SignatureCovers(src, EntryType::kSend, content, f.prev_hash, f.auth)) {
      return;
    }
  }

  // Duplicate (retransmitted) data: re-send the identical ack, do not log
  // a second RECV. A still-parked ack must not be pushed past the
  // durability gate by a retransmitted data frame; Release sends it.
  auto key = std::make_pair(src, msg.msg_id);
  if (auto dup = acks_sent_.find(key); dup != acks_sent_.end()) {
    stats_.duplicates++;
    if (dup->second.released) {
      net_->SendFrame(now, id_, src, dup->second.wire);
    }
    return;
  }

  // Log RECV(m) (in kSync with the payload signature, §4.3) and
  // acknowledge with our own commitment so the sender can verify we
  // logged it.
  Hash256 prev = Log(EntryType::kRecv, content);
  Authenticator auth = CommitToTip(batched);
  uint64_t release_seq = batched ? 0 : auth.seq;
  AckFrame ack{id_, src, msg.msg_id, Sha256::Digest(content), prev, std::move(auth)};
  Bytes wire;
  if (batched) {
    BatchAckFrame baf{std::move(ack), BuildTailFor(src, /*advance=*/true)};
    wire = WrapFrame(FrameType::kBatchAck, baf.Serialize());
  } else {
    wire = WrapFrame(FrameType::kAck, ack.Serialize());
  }
  acks_sent_[key] = {wire, /*released=*/false};
  stats_.packets_received++;
  Release(now, {src, msg.msg_id, std::move(wire), Bytes(), release_seq});

  if (packet_handler_) {
    packet_handler_(now, src, msg.payload);
  }
}

void Transport::HandleAck(const NodeId& src, FrameType type, ByteView body) {
  const bool batched = type == FrameType::kBatchAck;
  BatchAckFrame f;  // A kAck frame fills only f.ack.
  if (batched) {
    f = BatchAckFrame::Deserialize(body);
  } else {
    f.ack = AckFrame::Deserialize(body);
  }
  const AckFrame& ack = f.ack;
  if (ack.acker != src || ack.orig_src != id_ || ack.auth.node != src) {
    Violation(std::string(CommitmentFrameName(type)) + " frame with inconsistent addressing from " +
              src);
    return;
  }
  auto it = unacked_.find({src, ack.msg_id});
  if (it == unacked_.end()) {
    // Ack for something already acked (duplicate); harmless.
    return;
  }
  const Bytes& content = it->second.entry_content;
  if (ack.content_hash != Sha256::Digest(content)) {
    Violation("ack content hash mismatch from " + src);
    return;
  }

  // Does the acker's commitment cover RECV(m)?
  if (batched) {
    // The tail sent at ack time always includes the acked seq.
    const ChainLink* recv_link = nullptr;
    for (const ChainLink& l : f.tail.links) {
      if (l.seq == ack.auth.seq) {
        recv_link = &l;
        break;
      }
    }
    if (!ChainCovers(src, EntryType::kRecv, ack.content_hash, recv_link, f.tail, &ack.auth)) {
      return;  // On a gap, the data retransmit re-triggers the stored ack.
    }
  } else if (!SignatureCovers(src, EntryType::kRecv, content, ack.prev_hash, ack.auth)) {
    return;
  }

  Log(EntryType::kAck, ack.Serialize());
  if (batched) {
    MaybeCloseWindow();
    PumpAsync();
  }
  stats_.acks_received++;
  unacked_.erase(it);
}

bool Transport::SignatureCovers(const NodeId& src, EntryType type, const Bytes& content,
                                const Hash256& prev, const Authenticator& auth) {
  // h_i = H(h_{i-1} || s_i || t_i || H(content)) must be what was signed.
  if (ChainHash(prev, auth.seq, type, content) != auth.hash) {
    Violation(NotCommitted(type, "authenticator", src));
    return false;
  }
  // Add verifies the signature and stores nothing if it fails, so it is
  // the one signature check.
  if (!Crypto([&] { return auth_store_->Add(auth, *registry_); })) {
    Violation(std::string(type == EntryType::kSend ? "sender" : "ack") +
              " authenticator signature invalid from " + src);
    return false;
  }
  return true;
}

bool Transport::ChainCovers(const NodeId& src, EntryType type, const Hash256& content_hash,
                            const ChainLink* link, const ChainTail& tail,
                            const Authenticator* ack_auth) {
  if (link == nullptr || link->type != type || link->content_hash != content_hash) {
    Violation(NotCommitted(type, "chain", src));
    return false;
  }
  uint64_t want_seq = ack_auth != nullptr ? ack_auth->seq : 0;
  Hash256 derived;
  if (!ApplyChainTail(src, tail, want_seq, &derived)) {
    return false;
  }
  if (ack_auth != nullptr && derived != ack_auth->hash) {
    Violation("ack authenticator does not match the acker's chain from " + src);
    return false;
  }
  return true;
}

void Transport::Release(SimTime now, PendingSend p) {
  if (!DurableFor(p.release_seq)) {
    // The commitment covers entries a crash could still lose; hold the
    // frame until the group commit catches up (ReleaseDurable).
    stats_.durable_deferred_frames++;
    parked_.push_back(std::move(p));
    return;
  }
  NoteAuthRelease(p.release_seq);
  net_->SendFrame(now, id_, p.dst, p.frame);
  auto key = std::make_pair(p.dst, p.msg_id);
  FrameType type = PeekFrameType(p.frame);
  if (type == FrameType::kAck || type == FrameType::kBatchAck) {
    if (auto it = acks_sent_.find(key); it != acks_sent_.end()) {
      it->second.released = true;
    }
    stats_.acks_sent++;
    return;
  }
  p.first_sent = now;
  p.last_sent = now;
  unacked_[key] = std::move(p);
}

Hash256 Transport::Log(EntryType type, ByteView content) {
  WallTimer log_timer;
  Hash256 prev = log_->LastHash();
  log_->Append(type, content);
  logging_seconds_ += log_timer.ElapsedSeconds();
  return prev;
}

Authenticator Transport::CommitToTip(bool batched) {
  if (!batched) {
    return Crypto([&] { return log_->Authenticate(*signer_); });
  }
  // The appended entry may have filled the signature window.
  MaybeCloseWindow();
  PumpAsync();
  Authenticator a;
  a.node = id_;
  a.seq = log_->LastSeq();
  a.hash = log_->LastHash();
  return a;
}

// ----------------------------------------------------- batched signing ----

void Transport::IntegrateCommit(Authenticator a) {
  if (cfg_->durable_commit && a.seq > log_->DurableSeq()) {
    // Signed but not yet durable: park it. ReleaseDurable promotes it to
    // latest_commit_ once the group commit catches up, so frames never
    // carry a commitment a crash could orphan.
    stats_.durable_deferred_commits++;
    pending_commits_.push_back(std::move(a));
    return;
  }
  if (a.seq > latest_commit_.seq) {
    latest_commit_ = std::move(a);
  }
}

bool Transport::DurableFor(uint64_t seq) const {
  return !cfg_->durable_commit || log_->DurableSeq() >= seq;
}

void Transport::NoteAuthRelease(uint64_t seq) {
  stats_.max_released_auth_seq = std::max(stats_.max_released_auth_seq, seq);
  if (cfg_->durable_commit && seq > log_->DurableSeq()) {
    stats_.durable_gate_violations++;
  }
}

uint64_t Transport::DurableNeed() const {
  uint64_t need = 0;
  for (const Authenticator& a : pending_commits_) {
    need = std::max(need, a.seq);
  }
  // Parked frames are in log order, so the back of the deque bounds
  // the front.
  if (!parked_.empty()) {
    need = std::max(need, parked_.back().release_seq);
  }
  return need;
}

bool Transport::DurableCommitDue() const {
  return cfg_->durable_commit && log_->DurableSeq() < DurableNeed();
}

void Transport::ForceDurableCommit() {
  // One group commit covers everything parked.
  obs::Span span(obs::kPhaseTransportDurableWait, "transport");
  log_->FlushSink();
  stats_.durable_forced_flushes++;
}

void Transport::ReleaseDurable(SimTime now) {
  if (!cfg_->durable_commit || (parked_.empty() && pending_commits_.empty())) {
    return;
  }
  if (DurableCommitDue()) {
    ForceDurableCommit();
  }
  uint64_t wm = log_->DurableSeq();
  for (auto it = pending_commits_.begin(); it != pending_commits_.end();) {
    if (it->seq <= wm) {
      if (it->seq > latest_commit_.seq) {
        latest_commit_ = std::move(*it);
      }
      it = pending_commits_.erase(it);
    } else {
      ++it;
    }
  }
  while (!parked_.empty() && parked_.front().release_seq <= wm) {
    PendingSend p = std::move(parked_.front());
    parked_.pop_front();
    Release(now, std::move(p));
  }
}

void Transport::PumpAsync() {
  if (sign_pipeline_ == nullptr) {
    return;
  }
  for (Authenticator& a : sign_pipeline_->Drain()) {
    stats_.batch_commits_signed++;
    IntegrateCommit(std::move(a));
  }
}

void Transport::RequestCommit(uint64_t seq) {
  if (seq == 0 || seq <= last_commit_request_seq_ || signer_ == nullptr) {
    return;
  }
  last_commit_request_seq_ = seq;
  if (sign_pipeline_ != nullptr) {
    sign_pipeline_->Enqueue(seq, log_->HashAt(seq));
    return;
  }
  Authenticator a = Crypto([&] { return log_->AuthenticateAt(*signer_, seq); });
  stats_.batch_commits_signed++;
  IntegrateCommit(std::move(a));
}

void Transport::MaybeCloseWindow() {
  uint64_t tip = log_->LastSeq();
  if (tip > last_commit_request_seq_ &&
      tip - last_commit_request_seq_ >= cfg_->sign_batch_entries) {
    RequestCommit(tip);
  }
}

ChainTail Transport::BuildTailFor(const NodeId& dst, bool advance) {
  uint64_t known = peer_known_seq_[dst];
  uint64_t tip = log_->LastSeq();
  ChainTail t;
  t.from_seq = known + 1;
  t.prior_hash = log_->HashAt(known);
  t.links.reserve(static_cast<size_t>(tip - known));
  log_->AppendLinks(known + 1, tip, &t.links);
  t.commit = latest_commit_;
  if (t.commit.seq != 0) {
    NoteAuthRelease(t.commit.seq);
  }
  if (advance) {
    peer_known_seq_[dst] = tip;
  }
  return t;
}

bool Transport::ApplyChainTail(const NodeId& src, const ChainTail& tail, uint64_t want_seq,
                               Hash256* want_hash) {
  PeerChainView& v = peer_chains_[src];
  // A tail that starts beyond our view leaves a hole we cannot walk
  // across; wait for the retransmission that carries the missing links.
  if (tail.from_seq > v.tip_seq + 1) {
    stats_.frames_deferred++;
    return false;
  }
  // The stated prior must match what we already derived for that seq
  // (verified history below the prune line is anchored at verified_hash).
  if (tail.from_seq == 1) {
    if (!tail.prior_hash.IsZero()) {
      Violation("chain tail from " + src + " fakes a nonzero log head");
      return false;
    }
  } else {
    uint64_t p = tail.from_seq - 1;
    const Hash256* known = nullptr;
    if (p == v.verified_seq) {
      known = &v.verified_hash;
    } else if (auto it = v.hashes.find(p); it != v.hashes.end()) {
      known = &it->second;
    } else if (p == v.tip_seq) {
      known = &v.tip_hash;
    }
    if (known == nullptr) {
      // Prior below the prune line with no record: only reachable for
      // seqs already sealed by a verified commitment; trust the walk —
      // any fork is caught at the first overlap with stored state or at
      // the next signed commitment.
      if (p > v.verified_seq) {
        stats_.frames_deferred++;
        return false;
      }
    } else if (*known != tail.prior_hash) {
      Violation("chain tail from " + src + " contradicts its earlier chain");
      return false;
    }
  }
  // Walk every link first (no mutation yet): overlapping seqs must
  // reproduce the stored hashes, new seqs extend the view.
  Hash256 h = tail.prior_hash;
  uint64_t expect = tail.from_seq;
  std::vector<Hash256> walk;
  walk.reserve(tail.links.size());
  for (const ChainLink& l : tail.links) {
    if (l.seq != expect) {
      Violation("chain tail from " + src + " has non-consecutive links");
      return false;
    }
    h = ApplyChainLink(h, l);
    if (l.seq <= v.tip_seq) {
      const Hash256* stored = nullptr;
      if (auto it = v.hashes.find(l.seq); it != v.hashes.end()) {
        stored = &it->second;
      } else if (l.seq == v.tip_seq) {
        stored = &v.tip_hash;
      } else if (l.seq == v.verified_seq) {
        stored = &v.verified_hash;
      }
      if (stored != nullptr && *stored != h) {
        Violation("chain tail from " + src + " rewrites announced entry " +
                  std::to_string(l.seq));
        return false;
      }
    }
    walk.push_back(h);
    expect++;
  }
  // Commit sanity before mutating: a commitment must sit on chain state
  // we can check.
  uint64_t new_tip = tail.links.empty() ? v.tip_seq : tail.links.back().seq;
  uint64_t tip_after = std::max(v.tip_seq, new_tip);
  if (tail.commit.seq > tip_after) {
    Violation("commitment from " + src + " covers entries it never announced");
    return false;
  }

  // Mutate: record the extension.
  for (size_t i = 0; i < tail.links.size(); i++) {
    const ChainLink& l = tail.links[i];
    if (l.seq > v.tip_seq) {
      v.hashes[l.seq] = walk[i];
      v.links[l.seq] = l;
    }
  }
  if (new_tip > v.tip_seq) {
    v.tip_seq = new_tip;
    v.tip_hash = walk.back();
  }
  if (want_hash != nullptr && want_seq != 0) {
    if (auto it = v.hashes.find(want_seq); it != v.hashes.end()) {
      *want_hash = it->second;
    } else {
      // Covered by an already-verified window; report the walk's value.
      for (size_t i = 0; i < tail.links.size(); i++) {
        if (tail.links[i].seq == want_seq) {
          *want_hash = walk[i];
          break;
        }
      }
    }
  }

  // Process the commitment: one RSA verify seals the whole window and
  // produces the auditable PeerCommitRecord.
  if (tail.commit.seq != 0 && tail.commit.seq > v.verified_seq && cfg_->TamperEvident()) {
    if (tail.commit.node != src) {
      Violation("commitment relayed from " + src + " names another node");
      return false;
    }
    auto hit = v.hashes.find(tail.commit.seq);
    if (hit == v.hashes.end() || hit->second != tail.commit.hash) {
      // The signed commitment disagrees with the chain the peer
      // announced to us: equivocation inside the window.
      Violation("signed commitment from " + src + " contradicts its announced chain at seq " +
                std::to_string(tail.commit.seq));
      return false;
    }
    if (!Crypto([&] { return auth_store_->Add(tail.commit, *registry_); })) {
      Violation("batch commitment signature invalid from " + src);
      return false;
    }
    stats_.peer_commits_verified++;

    // Log the proof for later audits of *our* log: the batch walking
    // from our previous verified point to the new commitment.
    PeerCommitRecord rec;
    rec.peer = src;
    rec.batch.prior_seq = v.verified_seq;
    rec.batch.prior_hash = v.verified_hash;
    for (auto it = v.links.upper_bound(v.verified_seq);
         it != v.links.end() && it->first <= tail.commit.seq; ++it) {
      rec.batch.links.push_back(it->second);
    }
    rec.batch.commit = tail.commit;
    Log(EntryType::kInfo, rec.Serialize());

    v.verified_seq = tail.commit.seq;
    v.verified_hash = tail.commit.hash;
    v.hashes.erase(v.hashes.begin(), v.hashes.upper_bound(v.verified_seq));
    v.links.erase(v.links.begin(), v.links.upper_bound(v.verified_seq));
    MaybeCloseWindow();
  }
  return true;
}

void Transport::HandleCommit(const NodeId& src, ByteView body) {
  CommitFrame f = CommitFrame::Deserialize(body);
  ApplyChainTail(src, f.tail);
}

void Transport::Flush(SimTime now) {
  if (cfg_->BatchedSigning()) {
    RequestCommit(log_->LastSeq());
    if (sign_pipeline_ != nullptr) {
      sign_pipeline_->Barrier();
    }
    PumpAsync();
  }
  // Everything signed is now in hand; make it durable and release it
  // (parked kSync frames and parked window commitments alike).
  ReleaseDurable(now);
  if (!cfg_->BatchedSigning()) {
    return;
  }
  // Push the sealed window to every peer we have chain state with, so
  // their pending entries (and the auditors behind them) are covered.
  // kCommit tails do not advance peer_known_seq_: losing one cannot
  // leave a gap in the links a later frame assumes were delivered.
  for (const auto& [peer, known] : peer_known_seq_) {
    if (peer == id_ || known == 0) {
      continue;
    }
    CommitFrame cf{BuildTailFor(peer, /*advance=*/false)};
    net_->SendFrame(now, id_, peer, WrapFrame(FrameType::kCommit, cf.Serialize()));
  }
}

void Transport::SendChallenge(SimTime now, const NodeId& witness, const ChallengeFrame& challenge) {
  net_->SendFrame(now, id_, witness, WrapFrame(FrameType::kChallenge, challenge.Serialize()));
}

void Transport::HandleChallenge(SimTime now, const NodeId& src, ByteView body) {
  ChallengeFrame c = ChallengeFrame::Deserialize(body);
  if (c.accused == id_) {
    // We are being challenged: answer immediately (a correct node always
    // can; §4.6).
    ChallengeResponseFrame resp;
    resp.responder = id_;
    resp.challenge_id = c.challenge_id;
    resp.body = challenge_handler_ ? challenge_handler_(c) : Bytes();
    net_->SendFrame(now, id_, src, WrapFrame(FrameType::kChallengeResponse, resp.Serialize()));
    return;
  }
  // A peer relayed someone else's challenge: stop communicating with the
  // accused until it responds, and relay the challenge to it.
  Suspend(c.accused);
  net_->SendFrame(now, id_, c.accused, WrapFrame(FrameType::kChallenge, c.Serialize()));
}

void Transport::HandleChallengeResponse(SimTime now, const NodeId& src, ByteView body) {
  (void)now;
  ChallengeResponseFrame r = ChallengeResponseFrame::Deserialize(body);
  if (r.responder != src) {
    Violation("challenge response with inconsistent responder from " + src);
    return;
  }
  Resume(src);
  if (challenge_response_handler_) {
    challenge_response_handler_(r);
  }
}

}  // namespace avm
