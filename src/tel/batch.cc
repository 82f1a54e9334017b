#include "src/tel/batch.h"

#include <algorithm>
#include <stdexcept>

#include "src/crypto/keys.h"
#include "src/util/serde.h"

namespace avm {

namespace {

constexpr char kPeerCommitMagic[8] = {'A', 'V', 'M', 'P', 'C', 'M', 'T', '1'};

}  // namespace

void WriteChainLinks(Writer& w, const std::vector<ChainLink>& links) {
  w.U32(static_cast<uint32_t>(links.size()));
  for (const ChainLink& l : links) {
    w.U64(l.seq);
    w.U8(static_cast<uint8_t>(l.type));
    w.Raw(l.content_hash.view());
  }
}

std::vector<ChainLink> ReadChainLinks(Reader& r) {
  uint32_t n = r.U32();
  std::vector<ChainLink> links;
  // n is untrusted; each link consumes 41 bytes, so clamp the
  // reservation like LogSegment::Deserialize does.
  links.reserve(std::min<size_t>(n, r.remaining() / 41 + 1));
  for (uint32_t i = 0; i < n; i++) {
    ChainLink l;
    l.seq = r.U64();
    uint8_t t = r.U8();
    if (t < 1 || t > 8) {
      throw SerdeError("ChainLink: bad entry type");
    }
    l.type = static_cast<EntryType>(t);
    l.content_hash = Hash256::FromBytes(r.Raw(32));
    links.push_back(l);
  }
  return links;
}

CheckResult BatchAuthenticator::Verify(const KeyRegistry& registry) const {
  if (links.empty()) {
    return CheckResult::Fail("batch authenticator has no links");
  }
  if (prior_seq == 0 && !prior_hash.IsZero()) {
    return CheckResult::Fail("batch starts at the log head but prior hash is nonzero",
                             FirstSeq());
  }
  Hash256 h = prior_hash;
  uint64_t expect = FirstSeq();
  for (const ChainLink& l : links) {
    if (l.seq != expect) {
      return CheckResult::Fail("batch links are not consecutive", l.seq);
    }
    h = ApplyChainLink(h, l);
    expect++;
  }
  if (commit.seq != links.back().seq) {
    return CheckResult::Fail("batch commitment does not sit on the last link", commit.seq);
  }
  if (commit.hash != h) {
    return CheckResult::Fail("batch links do not walk to the signed commitment", commit.seq);
  }
  if (!commit.VerifySignature(registry)) {
    return CheckResult::Fail("batch commitment signature invalid", commit.seq);
  }
  return CheckResult::Ok();
}

Hash256 BatchAuthenticator::HashAt(uint64_t seq) const {
  if (!Covers(seq) || links.empty()) {
    throw std::out_of_range("BatchAuthenticator::HashAt: seq " + std::to_string(seq) +
                            " outside window");
  }
  Hash256 h = prior_hash;
  for (const ChainLink& l : links) {
    h = ApplyChainLink(h, l);
    if (l.seq == seq) {
      return h;
    }
  }
  throw std::out_of_range("BatchAuthenticator::HashAt: seq not in links");
}

BatchAuthenticator BatchAuthenticator::FromLog(const TamperEvidentLog& log, const Signer& signer,
                                               uint64_t from_seq, uint64_t to_seq) {
  if (from_seq == 0 || from_seq > to_seq || to_seq > log.LastSeq()) {
    throw std::out_of_range("BatchAuthenticator::FromLog: bad range");
  }
  BatchAuthenticator b;
  b.prior_seq = from_seq - 1;
  b.prior_hash = log.HashAt(b.prior_seq);
  log.AppendLinks(from_seq, to_seq, &b.links);
  b.commit = log.AuthenticateAt(signer, to_seq);
  return b;
}

Bytes BatchAuthenticator::Serialize() const {
  Writer w;
  w.U64(prior_seq);
  w.Raw(prior_hash.view());
  WriteChainLinks(w, links);
  w.Blob(commit.Serialize());
  return w.Take();
}

BatchAuthenticator BatchAuthenticator::Deserialize(ByteView data) {
  Reader r(data);
  BatchAuthenticator b;
  b.prior_seq = r.U64();
  b.prior_hash = Hash256::FromBytes(r.Raw(32));
  b.links = ReadChainLinks(r);
  b.commit = Authenticator::Deserialize(r.Blob());
  r.ExpectEnd();
  return b;
}

Bytes PeerCommitRecord::Serialize() const {
  Writer w;
  w.Raw(ByteView(reinterpret_cast<const uint8_t*>(kPeerCommitMagic), sizeof(kPeerCommitMagic)));
  w.Str(peer);
  w.Blob(batch.Serialize());
  return w.Take();
}

bool PeerCommitRecord::IsPeerCommit(ByteView content) {
  return content.size() >= sizeof(kPeerCommitMagic) &&
         std::equal(kPeerCommitMagic, kPeerCommitMagic + sizeof(kPeerCommitMagic),
                    reinterpret_cast<const char*>(content.data()));
}

PeerCommitRecord PeerCommitRecord::Deserialize(ByteView content) {
  if (!IsPeerCommit(content)) {
    throw SerdeError("PeerCommitRecord: bad magic");
  }
  Reader r(content.subspan(sizeof(kPeerCommitMagic)));
  PeerCommitRecord rec;
  rec.peer = r.Str();
  rec.batch = BatchAuthenticator::Deserialize(r.Blob());
  r.ExpectEnd();
  return rec;
}

}  // namespace avm
