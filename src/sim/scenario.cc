#include "src/sim/scenario.h"

#include <filesystem>
#include <stdexcept>

#include "src/chaos/fault_plan.h"
#include "src/store/log_store.h"

namespace avm {

GameScenario::GameScenario(GameScenarioConfig cfg)
    : cfg_(std::move(cfg)), rng_(cfg_.seed),
      net_(chaos::DeriveSeed(cfg_.seed, "game-net")) {
  // One root seed: the network's loss stream and every chaos RNG derive
  // from cfg.seed, so a failing run reproduces from that one number.
  net_.SetFaultInjector(cfg_.chaos);
}

GameScenario::~GameScenario() = default;

NodeId GameScenario::player_id(int index) const {
  return "player" + std::to_string(index + 1);
}

void GameScenario::SetCheat(int player_index, RunnableCheat cheat) {
  if (started_) {
    throw std::logic_error("GameScenario::SetCheat: scenario already started");
  }
  cheats_[player_index] = cheat;
}

void GameScenario::Start() {
  if (started_) {
    throw std::logic_error("GameScenario::Start: already started");
  }
  started_ = true;

  reference_client_image_ = BuildGameClientImage(cfg_.client);
  reference_server_image_ = BuildGameServerImage(cfg_.server);

  // Peer order (defines guest-visible indices): server, player1, ...
  std::vector<NodeId> order;
  order.push_back("server");
  for (int i = 0; i < cfg_.num_players; i++) {
    order.push_back(player_id(i));
  }

  // Keys: every party has a certified keypair (§4.1 assumption 3).
  for (const NodeId& id : order) {
    signers_.push_back(std::make_unique<Signer>(id, cfg_.run.scheme, rng_));
    registry_.RegisterSigner(*signers_.back());
  }

  auto make_node = [&](const NodeId& id, ByteView image, const Signer* signer,
                       uint64_t seed) -> std::unique_ptr<Avmm> {
    auto node = std::make_unique<Avmm>(id, cfg_.run, image, signer, &net_, &registry_, seed);
    for (const NodeId& p : order) {
      node->AddPeer(p);
    }
    return node;
  };

  server_ = make_node("server", reference_server_image_, signers_[0].get(), cfg_.seed * 131 + 1);

  input_state_.resize(static_cast<size_t>(cfg_.num_players));
  for (int i = 0; i < cfg_.num_players; i++) {
    Bytes image = reference_client_image_;
    auto cheat_it = cheats_.find(i);
    RunnableCheat cheat = cheat_it == cheats_.end() ? RunnableCheat::kNone : cheat_it->second;
    if (auto variant = CheatImageVariant(cheat)) {
      // The cheater installs a modified image (§5.2's forbidden act).
      GameClientParams p = cfg_.client;
      p.variant = *variant;
      image = BuildGameClientImage(p);
    }
    auto node = make_node(player_id(i), image, signers_[static_cast<size_t>(i) + 1].get(),
                          cfg_.seed * 131 + 7 + static_cast<uint64_t>(i));
    if (auto hook = MakeCheatHook(cheat)) {
      node->SetCheatHook(*hook);
    }
    InputState& is = input_state_[static_cast<size_t>(i)];
    is.rng = Prng(cfg_.seed * 977 + static_cast<uint64_t>(i));
    is.next_at = is.rng.Range(1, cfg_.input_mean_gap_us);
    is.forged_autofire = (cheat == RunnableCheat::kForgedInputAimbot);
    if (cfg_.attested_input) {
      // The keyboard's keypair lives with the (trusted) device, not the
      // machine; its public key is certified in the registry.
      is.attestor = std::make_unique<InputAttestor>(player_id(i), cfg_.run.scheme, rng_);
      registry_.RegisterSigner(is.attestor->signer());
    }

    // The guest learns its peer index through the (recorded) input stream.
    uint32_t id_code = static_cast<uint32_t>(i + 1);
    if (is.attestor) {
      node->PushInput(id_code, is.attestor->Attest(id_code).Serialize());
    } else {
      node->PushInput(id_code);
    }
    players_.push_back(std::move(node));
  }
}

void GameScenario::PumpInputs(SimTime upto) {
  for (int i = 0; i < cfg_.num_players; i++) {
    InputState& is = input_state_[static_cast<size_t>(i)];
    while (is.next_at <= upto) {
      uint32_t code;
      if (is.forged_autofire) {
        // §5.4's re-engineered aimbot: a program outside the AVM feeds
        // synthesized FIRE events through the legitimate input channel.
        code = kInputFire;
      } else {
        code = is.rng.Chance(cfg_.fire_fraction)
                   ? kInputFire
                   : static_cast<uint32_t>(is.rng.Range(kInputUp, kInputRight));
      }
      if (is.attestor && !is.forged_autofire) {
        players_[static_cast<size_t>(i)]->PushInput(code, is.attestor->Attest(code).Serialize());
      } else {
        // Forged inputs come from a program outside the AVM: it has no
        // access to the device's signing key (§7.2's threat model).
        players_[static_cast<size_t>(i)]->PushInput(code);
      }
      SimTime gap = is.rng.Range(cfg_.input_mean_gap_us / 2, cfg_.input_mean_gap_us * 3 / 2);
      if (is.forged_autofire) {
        gap /= 8;  // Inhumanly fast trigger.
      }
      is.next_at += gap > 0 ? gap : 1;
    }
  }
}

void GameScenario::RunFor(SimTime duration) {
  if (!started_) {
    throw std::logic_error("GameScenario::RunFor: call Start() first");
  }
  SimTime end = now_ + duration;
  while (now_ < end) {
    net_.DeliverUntil(now_);
    PumpInputs(now_);
    server_->RunQuantum(now_, cfg_.quantum_us);
    for (auto& p : players_) {
      p->RunQuantum(now_, cfg_.quantum_us);
    }
    now_ += cfg_.quantum_us;
  }
}

void GameScenario::Finish() {
  net_.DeliverUntil(now_);
  if (cfg_.run.TamperEvident()) {
    server_->Finish(now_);
    for (auto& p : players_) {
      p->Finish(now_);
    }
    if (cfg_.run.BatchedSigning() || cfg_.run.durable_commit) {
      // Deliver the final kCommit frames (and any durably deferred
      // data/acks) so every node's pending RECV/ACK entries are sealed
      // (and logged as PeerCommitRecords) before anyone is audited.
      // The plain sync path is untouched.
      net_.DeliverUntil(now_ + kMicrosPerSecond);
      // Frames delivered during the settle appended entries and may
      // have enqueued fresh sign work past Finish()'s barrier; drain
      // before anyone Seal()s a store underneath a busy signer.
      server_->DrainPending(now_ + kMicrosPerSecond);
      for (auto& p : players_) {
        p->DrainPending(now_ + kMicrosPerSecond);
      }
      net_.DeliverUntil(now_ + 2 * kMicrosPerSecond);
      server_->log().FlushSink();
      for (auto& p : players_) {
        p->log().FlushSink();
      }
    }
  }
}

Avmm& GameScenario::NodeById(const NodeId& id) const {
  if (server_->id() == id) {
    return *server_;
  }
  for (const auto& p : players_) {
    if (p->id() == id) {
      return *p;
    }
  }
  throw std::out_of_range("GameScenario: unknown node " + id);
}

std::vector<Authenticator> GameScenario::CollectAuths(const NodeId& target) const {
  std::vector<Authenticator> out;
  auto gather = [&](const Avmm& node) {
    if (node.id() == target) {
      return;
    }
    for (const Authenticator& a : node.auth_store().AllFor(target)) {
      out.push_back(a);
    }
  };
  gather(*server_);
  for (const auto& p : players_) {
    gather(*p);
  }
  // Ask the target to commit to its current log end (covers the tail).
  out.push_back(NodeById(target).CommitLog());
  return out;
}

AuditOutcome GameScenario::AuditPlayer(int player_index) {
  const Avmm& target = player(player_index);
  std::vector<Authenticator> auths = CollectAuths(target.id());
  AuditConfig acfg;
  acfg.mem_size = cfg_.run.mem_size;
  Auditor auditor("auditor", &registry_, acfg);
  return auditor.AuditFull(target, InMemorySegmentSource(target.log()), reference_client_image_,
                           auths);
}

// ---------------------------------------------------------------- KV ----

KvScenario::KvScenario(KvScenarioConfig cfg)
    : cfg_(std::move(cfg)), rng_(cfg_.seed),
      net_(chaos::DeriveSeed(cfg_.seed, "kv-net")) {
  net_.SetFaultInjector(cfg_.chaos);
}

KvScenario::~KvScenario() = default;

void KvScenario::Start() {
  if (started_) {
    throw std::logic_error("KvScenario::Start: already started");
  }
  started_ = true;
  reference_server_image_ = BuildKvServerImage(cfg_.server);
  Bytes client_image = BuildKvClientImage(cfg_.client);

  std::vector<NodeId> order = {"kvserver", "kvclient"};
  for (const NodeId& id : order) {
    signers_.push_back(std::make_unique<Signer>(id, cfg_.run.scheme, rng_));
    registry_.RegisterSigner(*signers_.back());
  }

  RunConfig server_cfg = cfg_.run;
  server_cfg.rx_irq = true;  // The server is interrupt-driven.
  server_cfg.snapshot_interval = cfg_.snapshot_interval;
  server_ = std::make_unique<Avmm>("kvserver", server_cfg, reference_server_image_,
                                   signers_[0].get(), &net_, &registry_, cfg_.seed * 31 + 1);

  RunConfig client_cfg = cfg_.run;
  client_cfg.rx_irq = false;
  client_ = std::make_unique<Avmm>("kvclient", client_cfg, client_image, signers_[1].get(), &net_,
                                   &registry_, cfg_.seed * 31 + 2);

  for (const NodeId& p : order) {
    server_->AddPeer(p);
    client_->AddPeer(p);
  }
  client_->PushInput(1);  // The client's peer index.
}

void KvScenario::RunFor(SimTime duration) {
  if (!started_) {
    throw std::logic_error("KvScenario::RunFor: call Start() first");
  }
  SimTime end = now_ + duration;
  while (now_ < end) {
    net_.DeliverUntil(now_);
    server_->RunQuantum(now_, cfg_.quantum_us);
    client_->RunQuantum(now_, cfg_.quantum_us);
    now_ += cfg_.quantum_us;
  }
}

void KvScenario::Finish() {
  net_.DeliverUntil(now_);
  if (cfg_.run.TamperEvident()) {
    server_->Finish(now_);
    client_->Finish(now_);
    if (cfg_.run.BatchedSigning() || cfg_.run.durable_commit) {
      net_.DeliverUntil(now_ + kMicrosPerSecond);
      // Same post-settle barrier as GameScenario::Finish: drain sign
      // work enqueued by the settled frames, then flush the sinks past
      // the entries those deliveries appended.
      server_->DrainPending(now_ + kMicrosPerSecond);
      client_->DrainPending(now_ + kMicrosPerSecond);
      net_.DeliverUntil(now_ + 2 * kMicrosPerSecond);
      server_->log().FlushSink();
      client_->log().FlushSink();
    }
  }
}

std::vector<Authenticator> KvScenario::CollectAuthsForServer() const {
  return CollectAuths("kvserver");
}

std::vector<Authenticator> KvScenario::CollectAuths(const NodeId& target) const {
  const Avmm& accused = target == server_->id() ? *server_ : *client_;
  const Avmm& other = target == server_->id() ? *client_ : *server_;
  std::vector<Authenticator> out = other.auth_store().AllFor(target);
  out.push_back(accused.CommitLog());
  return out;
}

// ------------------------------------------------------------- Fleet ----

FleetScenario::FleetScenario(FleetScenarioConfig cfg) : cfg_(std::move(cfg)) {}

FleetScenario::~FleetScenario() = default;

void FleetScenario::Start() {
  if (started_) {
    throw std::logic_error("FleetScenario::Start: already started");
  }
  started_ = true;
  for (int i = 0; i < cfg_.num_games; i++) {
    GameScenarioConfig gc = cfg_.game;
    gc.run = cfg_.run;
    gc.num_players = cfg_.players_per_game;
    gc.seed = cfg_.seed * 7919 + static_cast<uint64_t>(i) + 1;
    gc.chaos = cfg_.chaos;
    auto game = std::make_unique<GameScenario>(gc);
    for (const auto& [where, cheat] : cfg_.cheats) {
      if (where.first == i) {
        game->SetCheat(where.second, cheat);
      }
    }
    game->Start();
    games_.push_back(std::move(game));
  }
  for (int i = 0; i < cfg_.num_kv; i++) {
    KvScenarioConfig kc = cfg_.kv;
    kc.run = cfg_.run;
    kc.seed = cfg_.seed * 104729 + static_cast<uint64_t>(i) + 1;
    kc.chaos = cfg_.chaos;
    auto kv = std::make_unique<KvScenario>(kc);
    kv->Start();
    kvs_.push_back(std::move(kv));
  }
}

void FleetScenario::SpillLogsTo(const std::string& base_dir) {
  if (!started_) {
    throw std::logic_error("FleetScenario::SpillLogsTo: call Start() first");
  }
  auto spill = [&](const NodeId& global, Avmm& node) {
    std::string dir = (std::filesystem::path(base_dir) / global).string();
    LogStoreOptions opts;
    if (cfg_.chaos != nullptr) {
      // Store faults are keyed on the *global* name, so a plan can break
      // one auditee's store without touching its world siblings.
      opts.fault_hook = cfg_.chaos->StoreHook(global);
    }
    auto store = LogStore::Open(dir, node.id(), opts);
    node.SpillTo(store.get());
    store_by_name_[global] = store.get();
    stores_.push_back(std::move(store));
  };
  for (int i = 0; i < cfg_.num_games; i++) {
    GameScenario& g = *games_[static_cast<size_t>(i)];
    std::string prefix = "g" + std::to_string(i) + "/";
    spill(prefix + "server", g.server());
    for (int p = 0; p < cfg_.players_per_game; p++) {
      spill(prefix + g.player_id(p), g.player(p));
    }
  }
  for (int i = 0; i < cfg_.num_kv; i++) {
    spill("kv" + std::to_string(i) + "/kvserver", kvs_[static_cast<size_t>(i)]->server());
  }
}

void FleetScenario::RunFor(SimTime duration) {
  for (auto& g : games_) {
    g->RunFor(duration);
  }
  for (auto& kv : kvs_) {
    kv->RunFor(duration);
  }
}

void FleetScenario::Finish() {
  for (auto& g : games_) {
    g->Finish();
  }
  for (auto& kv : kvs_) {
    kv->Finish();
  }
  for (auto& store : stores_) {
    store->Flush();
  }
}

std::vector<FleetScenario::AuditeeRef> FleetScenario::Auditees() {
  std::vector<AuditeeRef> out;
  auto store_for = [&](const NodeId& global) -> LogStore* {
    auto it = store_by_name_.find(global);
    return it == store_by_name_.end() ? nullptr : it->second;
  };
  for (int i = 0; i < cfg_.num_games; i++) {
    GameScenario* g = games_[static_cast<size_t>(i)].get();
    std::string prefix = "g" + std::to_string(i) + "/";
    AuditeeRef server;
    server.global_name = prefix + "server";
    server.local_name = "server";
    server.avmm = &g->server();
    server.registry = &g->registry();
    server.reference_image = &g->reference_server_image();
    server.store = store_for(server.global_name);
    server.collect_auths = [g] { return g->CollectAuths("server"); };
    out.push_back(std::move(server));
    for (int p = 0; p < cfg_.players_per_game; p++) {
      AuditeeRef player;
      player.global_name = prefix + g->player_id(p);
      player.local_name = g->player_id(p);
      player.avmm = &g->player(p);
      player.registry = &g->registry();
      player.reference_image = &g->reference_client_image();
      player.store = store_for(player.global_name);
      NodeId local = player.local_name;
      player.collect_auths = [g, local] { return g->CollectAuths(local); };
      out.push_back(std::move(player));
    }
  }
  for (int i = 0; i < cfg_.num_kv; i++) {
    KvScenario* kv = kvs_[static_cast<size_t>(i)].get();
    AuditeeRef server;
    server.global_name = "kv" + std::to_string(i) + "/kvserver";
    server.local_name = "kvserver";
    server.avmm = &kv->server();
    server.registry = &kv->registry();
    server.reference_image = &kv->reference_server_image();
    server.store = store_for(server.global_name);
    server.collect_auths = [kv] { return kv->CollectAuthsForServer(); };
    out.push_back(std::move(server));
  }
  return out;
}

}  // namespace avm
