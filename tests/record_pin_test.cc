// Pins the record path: for fixed-seed game and kv runs in every
// deterministic sign mode, with and without durable commit, each node's
// final log (last seq and head hash) and the transport counters that
// describe how frames were committed, gated and released. The expected
// values are constants, so any change to the send/receive/ack pipeline
// that alters a log byte, a signature or a release decision shows up
// here as a diff.
//
// Durable runs spill every node to a LogStore whose group commit has no
// timer (max_delay_ms = 0): the watermark moves only on the entry
// threshold and explicit flushes, so release decisions are
// deterministic. Async signing is left out on purpose: when the signer
// thread finishes a window depends on the host, so its logs are not
// reproducible run to run (batch_sign_test covers its verdicts).
//
// The lossy cases run the same scenarios over a network that drops and
// duplicates frames (a seeded chaos plan, so still deterministic),
// which drives the retransmit, duplicate re-ack and chain-gap paths.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/chaos/fault_plan.h"
#include "src/sim/scenario.h"
#include "src/store/log_store.h"

namespace fs = std::filesystem;

namespace avm {
namespace {

struct PinCase {
  const char* name;
  bool kv;  // false: game (2 players + server), true: kv server + client.
  SignMode mode;
  bool durable;
  bool lossy;
  uint64_t seed;
  const char* expect;  // One line per node, see Describe().
};

std::string Describe(Avmm& node) {
  const Transport::Stats& s = node.transport().stats();
  std::ostringstream o;
  o << node.id() << " seq=" << node.log().LastSeq() << " head=" << node.log().LastHash().Hex()
    << " acks_sent=" << s.acks_sent << " retransmits=" << s.retransmits
    << " duplicates=" << s.duplicates << " frames_deferred=" << s.frames_deferred
    << " batch_commits_signed=" << s.batch_commits_signed
    << " peer_commits_verified=" << s.peer_commits_verified
    << " durable_deferred_frames=" << s.durable_deferred_frames
    << " durable_deferred_commits=" << s.durable_deferred_commits
    << " durable_forced_flushes=" << s.durable_forced_flushes << "\n";
  return o.str();
}

RunConfig PinRunConfig(const PinCase& c) {
  RunConfig run = c.kv ? RunConfig::AvmmNoSig() : RunConfig::AvmmRsa768();
  run.sign_mode = c.mode;
  run.sign_batch_entries = 8;
  run.durable_commit = c.durable;
  return run;
}

// Runs the case and returns its per-node description.
std::string Record(const PinCase& c) {
  std::string base = (fs::path(::testing::TempDir()) / (std::string("avm_pin_") + c.name)).string();
  fs::remove_all(base);
  std::vector<std::unique_ptr<LogStore>> stores;
  LogStoreOptions opts;
  opts.sync = false;
  opts.sealer_threads = 0;
  opts.group_commit.max_entries = 32;
  opts.group_commit.max_delay_ms = 0;
  std::vector<Avmm*> nodes;
  chaos::FaultPlan plan;
  plan.seed = chaos::DeriveSeed(c.seed, "record-pin");
  if (c.lossy) {
    chaos::FaultEvent drop;
    drop.type = chaos::FaultType::kNetDrop;
    drop.when.probability = 0.05;
    drop.when.before_us = 1500 * kMicrosPerMilli;  // Let Finish() settle cleanly.
    plan.Add(drop);
    chaos::FaultEvent dup;
    dup.type = chaos::FaultType::kNetDuplicate;
    dup.when.probability = 0.05;
    dup.when.before_us = 1500 * kMicrosPerMilli;
    plan.Add(dup);
  }
  chaos::FaultInjector injector(plan);
  auto spill = [&](Avmm& node) {
    nodes.push_back(&node);
    if (c.durable) {
      stores.push_back(
          LogStore::Open((fs::path(base) / node.id()).string(), node.id(), opts));
      node.SpillTo(stores.back().get());
    }
  };

  std::unique_ptr<KvScenario> kv;
  std::unique_ptr<GameScenario> game;
  if (c.kv) {
    KvScenarioConfig cfg;
    cfg.run = PinRunConfig(c);
    cfg.seed = c.seed;
    cfg.chaos = &injector;
    kv = std::make_unique<KvScenario>(cfg);
    kv->Start();
    spill(kv->server());
    spill(kv->client());
    kv->RunFor(2 * kMicrosPerSecond);
    kv->Finish();
  } else {
    GameScenarioConfig cfg;
    cfg.run = PinRunConfig(c);
    cfg.num_players = 2;
    cfg.seed = c.seed;
    cfg.client.render_iters = 300;
    cfg.chaos = &injector;
    game = std::make_unique<GameScenario>(cfg);
    game->Start();
    spill(game->server());
    for (int i = 0; i < game->num_players(); i++) {
      spill(game->player(i));
    }
    game->RunFor(2 * kMicrosPerSecond);
    game->Finish();
  }
  std::string out;
  for (Avmm* n : nodes) {
    out += Describe(*n);
    n->log().SetSink(nullptr);
  }
  stores.clear();
  fs::remove_all(base);
  return out;
}

const PinCase kCases[] = {
    {"game_sync_s3", false, SignMode::kSync, false, false, 3,
     "server seq=28052 head=2f6b0db9f92aec5c4d34dceeddd7d24e52e1300d3a637a7ed5009e7ab7261713 acks_sent=656 retransmits=0 duplicates=0 frames_deferred=0 batch_commits_signed=0 peer_commits_verified=0 durable_deferred_frames=0 durable_deferred_commits=0 durable_forced_flushes=0\n"
     "player1 seq=40573 head=976465c8206824d75e52377042a907d427684a4e6f4439b0f13ab9461a3c8c61 acks_sent=51 retransmits=0 duplicates=0 frames_deferred=0 batch_commits_signed=0 peer_commits_verified=0 durable_deferred_frames=0 durable_deferred_commits=0 durable_forced_flushes=0\n"
     "player2 seq=40570 head=ab12595640ebcf16a4e1ee8b8b1885356c826c0799529b6ac061d35510551858 acks_sent=51 retransmits=0 duplicates=0 frames_deferred=0 batch_commits_signed=0 peer_commits_verified=0 durable_deferred_frames=0 durable_deferred_commits=0 durable_forced_flushes=0\n"},
    {"game_sync_s11", false, SignMode::kSync, false, false, 11,
     "server seq=28052 head=1e2a543e872f054af2d03f8ff9247c333b38b79e94051e49ad4d772accb56b13 acks_sent=656 retransmits=0 duplicates=0 frames_deferred=0 batch_commits_signed=0 peer_commits_verified=0 durable_deferred_frames=0 durable_deferred_commits=0 durable_forced_flushes=0\n"
     "player1 seq=40572 head=2826cfd23d22f0418da4f42646dd0af8df58a5a55183e8f42a351848e265c22c acks_sent=51 retransmits=0 duplicates=0 frames_deferred=0 batch_commits_signed=0 peer_commits_verified=0 durable_deferred_frames=0 durable_deferred_commits=0 durable_forced_flushes=0\n"
     "player2 seq=40569 head=2484582b157e4c3d421ccbc079866f5636a070f46c6fc3e36cc7eff6dab91179 acks_sent=51 retransmits=0 duplicates=0 frames_deferred=0 batch_commits_signed=0 peer_commits_verified=0 durable_deferred_frames=0 durable_deferred_commits=0 durable_forced_flushes=0\n"},
    {"game_sync_durable_s3", false, SignMode::kSync, true, false, 3,
     "server seq=28052 head=e1a452e8e0728ed5be5a6a59dc4ef7c625e2819f6a7b0b52eb694533dde451aa acks_sent=656 retransmits=0 duplicates=0 frames_deferred=0 batch_commits_signed=0 peer_commits_verified=0 durable_deferred_frames=754 durable_deferred_commits=0 durable_forced_flushes=314\n"
     "player1 seq=40573 head=120f9b325fe5cf6bd70565ca572a0bfe978210af2eea9190a02c863477335644 acks_sent=51 retransmits=0 duplicates=0 frames_deferred=0 batch_commits_signed=0 peer_commits_verified=0 durable_deferred_frames=378 durable_deferred_commits=0 durable_forced_flushes=257\n"
     "player2 seq=40570 head=da4466b5aa7bc126d81eff04f589f872d3fdb00f4a698025863592fcbb6f1022 acks_sent=51 retransmits=0 duplicates=0 frames_deferred=0 batch_commits_signed=0 peer_commits_verified=0 durable_deferred_frames=378 durable_deferred_commits=0 durable_forced_flushes=260\n"},
    {"game_sync_durable_s11", false, SignMode::kSync, true, false, 11,
     "server seq=28052 head=35785575d5e43a8e6cea39eab509aab0e1f07c29766a92aac2b1c37eb6a92079 acks_sent=656 retransmits=0 duplicates=0 frames_deferred=0 batch_commits_signed=0 peer_commits_verified=0 durable_deferred_frames=755 durable_deferred_commits=0 durable_forced_flushes=317\n"
     "player1 seq=40572 head=6973a906eef3a0441d95a7d233f3bfdc0e5fd43b523bbcccb2c7d979ecb70929 acks_sent=51 retransmits=0 duplicates=0 frames_deferred=0 batch_commits_signed=0 peer_commits_verified=0 durable_deferred_frames=378 durable_deferred_commits=0 durable_forced_flushes=252\n"
     "player2 seq=40569 head=ee0191b6efe174ff8dda1bc4f7c61caa9e2c3b76f1e36437fb4e849a6a9c041c acks_sent=51 retransmits=0 duplicates=0 frames_deferred=0 batch_commits_signed=0 peer_commits_verified=0 durable_deferred_frames=378 durable_deferred_commits=0 durable_forced_flushes=259\n"},
    {"game_batched_s3", false, SignMode::kBatched, false, false, 3,
     "server seq=28808 head=6a40a49065f6c19e2600bb5c417ad676ce9f863cd84262751b3a708ef89a4e3a acks_sent=656 retransmits=0 duplicates=0 frames_deferred=0 batch_commits_signed=2029 peer_commits_verified=756 durable_deferred_frames=0 durable_deferred_commits=0 durable_forced_flushes=0\n"
     "player1 seq=40951 head=e80dc5f4cf8f4a6930caae3e7f9f43a42b544a8eca3425c41731fae9333cb146 acks_sent=51 retransmits=0 duplicates=0 frames_deferred=0 batch_commits_signed=2130 peer_commits_verified=378 durable_deferred_frames=0 durable_deferred_commits=0 durable_forced_flushes=0\n"
     "player2 seq=40949 head=c56193a6a807fefe1e470269e2b98e17343d7c64164b21e2d742ae015f9c73d4 acks_sent=51 retransmits=0 duplicates=0 frames_deferred=0 batch_commits_signed=2133 peer_commits_verified=379 durable_deferred_frames=0 durable_deferred_commits=0 durable_forced_flushes=0\n"},
    {"game_batched_s11", false, SignMode::kBatched, false, false, 11,
     "server seq=28808 head=8437b00385bac89e558433dbf15812c9eab1e9a4c3824b85fb276a75b34cb34b acks_sent=656 retransmits=0 duplicates=0 frames_deferred=0 batch_commits_signed=2029 peer_commits_verified=756 durable_deferred_frames=0 durable_deferred_commits=0 durable_forced_flushes=0\n"
     "player1 seq=40950 head=4ec37e8ca0165bd7f78c1e005950caafb76c9426aae75783dd0d5ce19a5b116a acks_sent=51 retransmits=0 duplicates=0 frames_deferred=0 batch_commits_signed=2133 peer_commits_verified=378 durable_deferred_frames=0 durable_deferred_commits=0 durable_forced_flushes=0\n"
     "player2 seq=40948 head=790e81101270a54893bb8bf097a8524cbc06a7cc2824013b2c84ac108158182c acks_sent=51 retransmits=0 duplicates=0 frames_deferred=0 batch_commits_signed=2131 peer_commits_verified=379 durable_deferred_frames=0 durable_deferred_commits=0 durable_forced_flushes=0\n"},
    {"game_batched_durable_s3", false, SignMode::kBatched, true, false, 3,
     "server seq=28797 head=82a9c9ccc08ffea10ab0ce66cf59056f73e3d68cd4735881f105bfc0b27a402d acks_sent=656 retransmits=0 duplicates=0 frames_deferred=0 batch_commits_signed=2030 peer_commits_verified=745 durable_deferred_frames=0 durable_deferred_commits=2030 durable_forced_flushes=2002\n"
     "player1 seq=40947 head=04eac016771fc2c2cbe4024016ff153df14e3072124bae92609593aafa235463 acks_sent=51 retransmits=0 duplicates=0 frames_deferred=0 batch_commits_signed=2131 peer_commits_verified=374 durable_deferred_frames=0 durable_deferred_commits=2131 durable_forced_flushes=2002\n"
     "player2 seq=40944 head=2351e0740658f42fe578067e434e2a67f467c54d2ade7b0d70f3a65cf1751de1 acks_sent=51 retransmits=0 duplicates=0 frames_deferred=0 batch_commits_signed=2133 peer_commits_verified=374 durable_deferred_frames=0 durable_deferred_commits=2133 durable_forced_flushes=2002\n"},
    {"game_batched_durable_s11", false, SignMode::kBatched, true, false, 11,
     "server seq=28798 head=6e0a052d34e0407a605d20b68abc419726ba9fb9facd4061c3645beca9a9bd7a acks_sent=656 retransmits=0 duplicates=0 frames_deferred=0 batch_commits_signed=2030 peer_commits_verified=746 durable_deferred_frames=0 durable_deferred_commits=2030 durable_forced_flushes=2002\n"
     "player1 seq=40946 head=55277224203089f2ae4635328b05576f22bb861938f40526ebb05cbc94d94f95 acks_sent=51 retransmits=0 duplicates=0 frames_deferred=0 batch_commits_signed=2134 peer_commits_verified=374 durable_deferred_frames=0 durable_deferred_commits=2134 durable_forced_flushes=2002\n"
     "player2 seq=40943 head=792061b99607c09ec892000a09f7c80590eb7cdb0baf849034422a79e2dbf021 acks_sent=51 retransmits=0 duplicates=0 frames_deferred=0 batch_commits_signed=2131 peer_commits_verified=374 durable_deferred_frames=0 durable_deferred_commits=2131 durable_forced_flushes=2002\n"},
    {"kv_nosig_s5", true, SignMode::kSync, false, false, 5,
     "kvserver seq=5997 head=16cafdb6b3b6a4b1eb2c1587e313673eb96d93ff218bc41632fffc5df3cf1473 acks_sent=999 retransmits=0 duplicates=0 frames_deferred=0 batch_commits_signed=0 peer_commits_verified=0 durable_deferred_frames=0 durable_deferred_commits=0 durable_forced_flushes=0\n"
     "kvclient seq=71601 head=ace0abd9822e39cc8ea7f99e846939422c408015dbab52ca419f24c5367acac2 acks_sent=999 retransmits=0 duplicates=0 frames_deferred=0 batch_commits_signed=0 peer_commits_verified=0 durable_deferred_frames=0 durable_deferred_commits=0 durable_forced_flushes=0\n"},
    {"kv_nosig_s9", true, SignMode::kSync, false, false, 9,
     "kvserver seq=5997 head=366bccaa30b720324f35fe1469e116c927570079f25ec7abdefcff73b96095e7 acks_sent=999 retransmits=0 duplicates=0 frames_deferred=0 batch_commits_signed=0 peer_commits_verified=0 durable_deferred_frames=0 durable_deferred_commits=0 durable_forced_flushes=0\n"
     "kvclient seq=71601 head=16071c8fc22ad29e261d506a5e98b1aa01a8ab6af6731fecddc9051ea8af8365 acks_sent=999 retransmits=0 duplicates=0 frames_deferred=0 batch_commits_signed=0 peer_commits_verified=0 durable_deferred_frames=0 durable_deferred_commits=0 durable_forced_flushes=0\n"},
    {"kv_nosig_durable_s5", true, SignMode::kSync, true, false, 5,
     "kvserver seq=5992 head=a1995d3fc5b0e6255160e92e6ef08b96218b71e9f58b99df7d90d3854a99310e acks_sent=999 retransmits=0 duplicates=0 frames_deferred=0 batch_commits_signed=0 peer_commits_verified=0 durable_deferred_frames=1997 durable_deferred_commits=0 durable_forced_flushes=999\n"
     "kvclient seq=71599 head=d1f601e98c0506929de99e06611c08f6059b759de20a5b651d3a93b8635c9c09 acks_sent=998 retransmits=0 duplicates=0 frames_deferred=0 batch_commits_signed=0 peer_commits_verified=0 durable_deferred_frames=1936 durable_deferred_commits=0 durable_forced_flushes=1\n"},
    {"kv_nosig_durable_s9", true, SignMode::kSync, true, false, 9,
     "kvserver seq=5992 head=f0606294a7bad891f3e865b55e86c5db9cd4fc09c6db373c69c901fa54b58810 acks_sent=999 retransmits=0 duplicates=0 frames_deferred=0 batch_commits_signed=0 peer_commits_verified=0 durable_deferred_frames=1997 durable_deferred_commits=0 durable_forced_flushes=999\n"
     "kvclient seq=71599 head=0cde6b01c07a1c72b8b9ecbdd6082cf0ddf1b71e3b93a5aced7bf866706089ff acks_sent=998 retransmits=0 duplicates=0 frames_deferred=0 batch_commits_signed=0 peer_commits_verified=0 durable_deferred_frames=1936 durable_deferred_commits=0 durable_forced_flushes=1\n"},
    {"lossy_game_sync_durable_s3", false, SignMode::kSync, true, true, 3,
     "server seq=28052 head=e423725dc7de0faa7e409eb1b8095cb4e838bbd207feac51a8919e2d56b4d32e acks_sent=656 retransmits=9 duplicates=53 frames_deferred=0 batch_commits_signed=0 peer_commits_verified=0 durable_deferred_frames=756 durable_deferred_commits=0 durable_forced_flushes=328\n"
     "player1 seq=40573 head=97da49ed186b88996c3e2e3ef10d1cc418feceaea527b7d39ad494b86391d8f8 acks_sent=51 retransmits=24 duplicates=2 frames_deferred=0 batch_commits_signed=0 peer_commits_verified=0 durable_deferred_frames=378 durable_deferred_commits=0 durable_forced_flushes=261\n"
     "player2 seq=40570 head=3aec431307c555e9bc11d8c06aada0d3bf0d7b2e9464c28e7cca295f38842b8e acks_sent=51 retransmits=36 duplicates=9 frames_deferred=0 batch_commits_signed=0 peer_commits_verified=0 durable_deferred_frames=378 durable_deferred_commits=0 durable_forced_flushes=263\n"},
    {"lossy_game_sync_durable_s11", false, SignMode::kSync, true, true, 11,
     "server seq=28052 head=d31c34265ba05f2d50e9a32e33a40aa3f6c9681f850485b8c01336a607e75c33 acks_sent=656 retransmits=9 duplicates=49 frames_deferred=0 batch_commits_signed=0 peer_commits_verified=0 durable_deferred_frames=755 durable_deferred_commits=0 durable_forced_flushes=329\n"
     "player1 seq=40572 head=de71a70e2ec3b17838cd40cd2411746e952a2f8e8b7562d94c0409d89f19612e acks_sent=51 retransmits=31 duplicates=2 frames_deferred=0 batch_commits_signed=0 peer_commits_verified=0 durable_deferred_frames=377 durable_deferred_commits=0 durable_forced_flushes=254\n"
     "player2 seq=40569 head=124dc2fc1d8539c809775ff6a0cc838494889723e6e3ded9d8638299348f2a90 acks_sent=51 retransmits=28 duplicates=7 frames_deferred=0 batch_commits_signed=0 peer_commits_verified=0 durable_deferred_frames=379 durable_deferred_commits=0 durable_forced_flushes=267\n"},
    {"lossy_game_batched_s3", false, SignMode::kBatched, false, true, 3,
     "server seq=27314 head=d20a1e7103d8f49bce90dbc5b74c40869391e2594f34e6159bd6e9ed2bad50dc acks_sent=210 retransmits=803 duplicates=931 frames_deferred=4657 batch_commits_signed=2010 peer_commits_verified=227 durable_deferred_frames=0 durable_deferred_commits=0 durable_forced_flushes=0\n"
     "player1 seq=40379 head=0ec62d8905bde26f8ee0adbd81255bd58d1120fca25d5bb9d0978589054db74f acks_sent=20 retransmits=2387 duplicates=52 frames_deferred=898 batch_commits_signed=2084 peer_commits_verified=108 durable_deferred_frames=0 durable_deferred_commits=0 durable_forced_flushes=0\n"
     "player2 seq=40317 head=db5e08575f54f4d8db16193903773a596a56fb25edc36f41d47aac2a97d51958 acks_sent=15 retransmits=2646 duplicates=51 frames_deferred=849 batch_commits_signed=2085 peer_commits_verified=79 durable_deferred_frames=0 durable_deferred_commits=0 durable_forced_flushes=0\n"},
    {"lossy_game_batched_s11", false, SignMode::kBatched, false, true, 11,
     "server seq=27445 head=b2e041fd3ccfaec25ed540ac2b2ef7eae67a652571baee0baaaa184771166217 acks_sent=251 retransmits=800 duplicates=1262 frames_deferred=4433 batch_commits_signed=2007 peer_commits_verified=272 durable_deferred_frames=0 durable_deferred_commits=0 durable_forced_flushes=0\n"
     "player1 seq=40299 head=4c16be50f20a57f029543668405f2d4e4625b0da6da9615ec9d6ccb6703aa96e acks_sent=14 retransmits=2678 duplicates=47 frames_deferred=907 batch_commits_signed=2088 peer_commits_verified=70 durable_deferred_frames=0 durable_deferred_commits=0 durable_forced_flushes=0\n"
     "player2 seq=40337 head=e4ccc4ea93c14ac376e61d46576adfbc1491cdabc236e224c9b4d2fad318ab54 acks_sent=15 retransmits=2539 duplicates=44 frames_deferred=1250 batch_commits_signed=2088 peer_commits_verified=90 durable_deferred_frames=0 durable_deferred_commits=0 durable_forced_flushes=0\n"},
    {"lossy_game_batched_durable_s3", false, SignMode::kBatched, true, true, 3,
     "server seq=27311 head=b107008ce87d29adae7bc8e43bcb99db0ea9c97dbbdbd072e94930fb2ab1956c acks_sent=210 retransmits=803 duplicates=931 frames_deferred=4657 batch_commits_signed=2010 peer_commits_verified=224 durable_deferred_frames=0 durable_deferred_commits=2010 durable_forced_flushes=2001\n"
     "player1 seq=40377 head=4dffe69dfe479683bda05f26bf48dccb6e7b94aad5b55aef0568347e85be50fb acks_sent=20 retransmits=2387 duplicates=52 frames_deferred=898 batch_commits_signed=2084 peer_commits_verified=106 durable_deferred_frames=0 durable_deferred_commits=2083 durable_forced_flushes=2000\n"
     "player2 seq=40317 head=48ae279889c707ebadbbab9e939ea25381777d80e97d46541b4edb54defbf999 acks_sent=15 retransmits=2646 duplicates=51 frames_deferred=849 batch_commits_signed=2085 peer_commits_verified=79 durable_deferred_frames=0 durable_deferred_commits=2085 durable_forced_flushes=2001\n"},
    {"lossy_game_batched_durable_s11", false, SignMode::kBatched, true, true, 11,
     "server seq=27443 head=4d493ad5d9d452609fb4eb2d4a0ef6debebbfb94e62556f316e6485cd318a188 acks_sent=251 retransmits=800 duplicates=1262 frames_deferred=4433 batch_commits_signed=2007 peer_commits_verified=270 durable_deferred_frames=0 durable_deferred_commits=2007 durable_forced_flushes=2001\n"
     "player1 seq=40299 head=bcbd2c0964a0e3db68906db2013b5885f3225d719f0e1e03dc7b1252aa5ef7d2 acks_sent=14 retransmits=2678 duplicates=47 frames_deferred=907 batch_commits_signed=2088 peer_commits_verified=70 durable_deferred_frames=0 durable_deferred_commits=2088 durable_forced_flushes=2001\n"
     "player2 seq=40333 head=609467a5c8670acd1bb99e9e48582794603cede9f68c3a160314f1f9686d9407 acks_sent=15 retransmits=2539 duplicates=44 frames_deferred=1250 batch_commits_signed=2088 peer_commits_verified=86 durable_deferred_frames=0 durable_deferred_commits=2088 durable_forced_flushes=2001\n"},
    {"lossy_kv_nosig_durable_s5", true, SignMode::kSync, true, true, 5,
     "kvserver seq=5992 head=673e98afd363dc70faafffcc158c9ab8def9ad86a10550c78235725a6fb31780 acks_sent=999 retransmits=79 duplicates=101 frames_deferred=0 batch_commits_signed=0 peer_commits_verified=0 durable_deferred_frames=1997 durable_deferred_commits=0 durable_forced_flushes=968\n"
     "kvclient seq=71599 head=fa14aea6046ae483e00a78a060c7bb6709604af8ced0939439ca80dba30505bf acks_sent=998 retransmits=89 duplicates=83 frames_deferred=0 batch_commits_signed=0 peer_commits_verified=0 durable_deferred_frames=1927 durable_deferred_commits=0 durable_forced_flushes=1\n"},
    {"lossy_kv_nosig_durable_s9", true, SignMode::kSync, true, true, 9,
     "kvserver seq=5992 head=90b31800af016130655aa1b55ec039af035979804d881a695da5742dab692aa1 acks_sent=999 retransmits=79 duplicates=68 frames_deferred=0 batch_commits_signed=0 peer_commits_verified=0 durable_deferred_frames=1997 durable_deferred_commits=0 durable_forced_flushes=962\n"
     "kvclient seq=71599 head=302cb8d0196d3e42bb7883cebd4506b32cbd34f4e6a1aeee42bd6bc1b9d94e85 acks_sent=998 retransmits=77 duplicates=82 frames_deferred=0 batch_commits_signed=0 peer_commits_verified=0 durable_deferred_frames=1926 durable_deferred_commits=0 durable_forced_flushes=1\n"},
};

class RecordPin : public ::testing::TestWithParam<PinCase> {};

TEST_P(RecordPin, LogsAndTransportStatsMatchRecorded) {
  const PinCase& c = GetParam();
  EXPECT_EQ(Record(c), c.expect) << c.name;
}

INSTANTIATE_TEST_SUITE_P(Runs, RecordPin, ::testing::ValuesIn(kCases),
                         [](const ::testing::TestParamInfo<PinCase>& tpi) {
                           return std::string(tpi.param.name);
                         });

// The fleet walks every world's nodes for SpillLogsTo, RunFor, Finish
// and Auditees(): 2 games x 2 players + 1 kv pair, no signatures, fixed
// seed. Each auditee line adds its global name, reference-image digest,
// spilled store's last seq, and a digest of what collect_auths returns;
// the kv clients are not auditees but are pinned too.
std::string RecordFleet() {
  std::string base = (fs::path(::testing::TempDir()) / "avm_pin_fleet").string();
  fs::remove_all(base);
  std::string out;
  {
    FleetScenarioConfig cfg;
    cfg.run = RunConfig::AvmmNoSig();
    cfg.num_games = 2;
    cfg.players_per_game = 2;
    cfg.num_kv = 1;
    cfg.seed = 13;
    cfg.game.client.render_iters = 300;
    FleetScenario fleet(cfg);
    fleet.Start();
    fleet.SpillLogsTo(base);
    fleet.RunFor(kMicrosPerSecond);
    fleet.Finish();
    for (int i = 0; i < fleet.num_games(); i++) {
      out += Describe(fleet.game(i).server());
      for (int p = 0; p < fleet.game(i).num_players(); p++) {
        out += Describe(fleet.game(i).player(p));
      }
    }
    for (int i = 0; i < fleet.num_kv(); i++) {
      out += Describe(fleet.kv(i).server());
      out += Describe(fleet.kv(i).client());
    }
    for (FleetScenario::AuditeeRef& a : fleet.Auditees()) {
      Sha256 auths;
      size_t n = 0;
      for (const Authenticator& au : a.collect_auths()) {
        auths.Update(au.Serialize());
        n++;
      }
      out += a.global_name + " local=" + a.local_name + " seq=" +
             std::to_string(a.avmm->log().LastSeq()) +
             " image=" + Sha256::Digest(*a.reference_image).ShortHex() +
             " store_seq=" + std::to_string(a.store->LastSeq()) + " auths=" + std::to_string(n) +
             ":" + auths.Finish().ShortHex() + "\n";
    }
  }
  fs::remove_all(base);
  return out;
}

const char kFleetExpect[] =
    "server seq=14026 head=be6a949313f4fbc9dc6956e1400101139f5c36a1084bd7e2ba896b70b988c80e acks_sent=328 retransmits=0 duplicates=0 frames_deferred=0 batch_commits_signed=0 peer_commits_verified=0 durable_deferred_frames=0 durable_deferred_commits=0 durable_forced_flushes=0\n"
    "player1 seq=20286 head=da0073b07dd0f845ac19646fa1a96b5613440433fccbe9d12be906b991b72502 acks_sent=25 retransmits=0 duplicates=0 frames_deferred=0 batch_commits_signed=0 peer_commits_verified=0 durable_deferred_frames=0 durable_deferred_commits=0 durable_forced_flushes=0\n"
    "player2 seq=20286 head=47190d329c9b452dab0284004d8a7464d408b704cb118be17efe3e54f7ed85ca acks_sent=25 retransmits=0 duplicates=0 frames_deferred=0 batch_commits_signed=0 peer_commits_verified=0 durable_deferred_frames=0 durable_deferred_commits=0 durable_forced_flushes=0\n"
    "server seq=14026 head=69528feb4b50a54c49631a7edc59fe5e171f7ffadac7409f297670fb641817c9 acks_sent=328 retransmits=0 duplicates=0 frames_deferred=0 batch_commits_signed=0 peer_commits_verified=0 durable_deferred_frames=0 durable_deferred_commits=0 durable_forced_flushes=0\n"
    "player1 seq=20285 head=4b355896f74d260dd86e38bd85faac8fc0701bc35e9d40789f5f02f8625b3d51 acks_sent=25 retransmits=0 duplicates=0 frames_deferred=0 batch_commits_signed=0 peer_commits_verified=0 durable_deferred_frames=0 durable_deferred_commits=0 durable_forced_flushes=0\n"
    "player2 seq=20286 head=6d8e9b88f0c4deba59cf5077374d6efa4a39c24bf543cddf1d07429e688b576a acks_sent=25 retransmits=0 duplicates=0 frames_deferred=0 batch_commits_signed=0 peer_commits_verified=0 durable_deferred_frames=0 durable_deferred_commits=0 durable_forced_flushes=0\n"
    "kvserver seq=2997 head=1d6d731bffe93033b3e9be4e1ca4db3c5baca1e40ac62cb3e14fda9af1b51eb3 acks_sent=499 retransmits=0 duplicates=0 frames_deferred=0 batch_commits_signed=0 peer_commits_verified=0 durable_deferred_frames=0 durable_deferred_commits=0 durable_forced_flushes=0\n"
    "kvclient seq=35799 head=3fddd21a7cd29bdfe873a2ef80c0cbfe6fdb31904ffdebae3ebbd3e935d9a95a acks_sent=499 retransmits=0 duplicates=0 frames_deferred=0 batch_commits_signed=0 peer_commits_verified=0 durable_deferred_frames=0 durable_deferred_commits=0 durable_forced_flushes=0\n"
    "g0/server local=server seq=14026 image=84af87ba store_seq=14026 auths=379:9c45d746\n"
    "g0/player1 local=player1 seq=20286 image=3ac390d0 store_seq=20286 auths=190:0a5db630\n"
    "g0/player2 local=player2 seq=20286 image=3ac390d0 store_seq=20286 auths=190:13c8ecee\n"
    "g1/server local=server seq=14026 image=84af87ba store_seq=14026 auths=379:186c19ea\n"
    "g1/player1 local=player1 seq=20285 image=3ac390d0 store_seq=20285 auths=190:9f510f82\n"
    "g1/player2 local=player2 seq=20286 image=3ac390d0 store_seq=20286 auths=190:12852365\n"
    "kv0/kvserver local=kvserver seq=2997 image=634d264e store_seq=2997 auths=999:2973623f\n";

TEST(RecordPinFleet, LogsAuthsAndStoresMatchRecorded) {
  EXPECT_EQ(RecordFleet(), kFleetExpect);
}

}  // namespace
}  // namespace avm
