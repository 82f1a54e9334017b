#include "src/sim/scenario.h"

#include <filesystem>
#include <stdexcept>

#include "src/chaos/fault_plan.h"
#include "src/store/log_store.h"

namespace avm {

ScenarioWorld::ScenarioWorld(const RunConfig& run, uint64_t seed, const char* net_stream,
                             SimTime quantum_us, chaos::FaultInjector* chaos)
    : run_(run), quantum_us_(quantum_us), rng_(seed), net_(chaos::DeriveSeed(seed, net_stream)) {
  // One root seed: the network's loss stream and every chaos RNG derive
  // from it, so a failing run reproduces from that one number.
  net_.SetFaultInjector(chaos);
}

void ScenarioWorld::Start(std::vector<NodeId> peer_order) {
  if (started()) {
    throw std::logic_error("ScenarioWorld::Start: already started");
  }
  peer_order_ = std::move(peer_order);
  // Keys: every party has a certified keypair (§4.1 assumption 3).
  for (const NodeId& id : peer_order_) {
    signers_.push_back(std::make_unique<Signer>(id, run_.scheme, rng_));
    registry_.RegisterSigner(*signers_.back());
  }
}

Avmm& ScenarioWorld::AddNode(const RunConfig& run, ByteView image, uint64_t rng_seed,
                             const Bytes& reference_image, bool auditable) {
  size_t index = nodes_.size();
  auto node = std::make_unique<Avmm>(peer_order_.at(index), run, image, signers_[index].get(),
                                     &net_, &registry_, rng_seed);
  for (const NodeId& p : peer_order_) {
    node->AddPeer(p);
  }
  nodes_.push_back({std::move(node), &reference_image, auditable});
  return *nodes_.back().avmm;
}

void ScenarioWorld::RunFor(SimTime duration) {
  if (!started()) {
    throw std::logic_error("ScenarioWorld::RunFor: call Start() first");
  }
  SimTime end = now_ + duration;
  while (now_ < end) {
    net_.DeliverUntil(now_);
    if (turn_hook_) {
      turn_hook_(now_);
    }
    net_.Hold();
    try {
      for (Node& n : nodes_) {
        n.avmm->BeginQuantum(now_, quantum_us_);
      }
      CommitDue();
      for (Node& n : nodes_) {
        n.avmm->EndQuantum(now_ + quantum_us_);
      }
    } catch (...) {
      net_.SendHeld(peer_order_);
      throw;
    }
    net_.SendHeld(peer_order_);
    now_ += quantum_us_;
  }
}

void ScenarioWorld::CommitDue() {
  std::vector<Transport*> due;
  for (Node& n : nodes_) {
    if (n.avmm->transport().DurableCommitDue()) {
      due.push_back(&n.avmm->transport());
    }
  }
  if (due.size() < 2) {
    for (Transport* t : due) {
      t->ForceDurableCommit();
    }
    return;
  }
  if (pool_ == nullptr || pool_->thread_count() < due.size()) {
    pool_ = std::make_unique<ThreadPool>(static_cast<unsigned>(due.size()));
  }
  pool_->ParallelFor(due.size(), [&due](size_t i) { due[i]->ForceDurableCommit(); });
}

void ScenarioWorld::Finish() {
  net_.DeliverUntil(now_);
  if (!run_.TamperEvident()) {
    return;
  }
  for (Node& n : nodes_) {
    n.avmm->Finish(now_);
  }
  if (run_.BatchedSigning() || run_.durable_commit) {
    // Deliver the final kCommit frames (and any durably deferred
    // data/acks) so every node's pending RECV/ACK entries are sealed
    // (and logged as PeerCommitRecords) before anyone is audited.
    // The plain sync path is untouched.
    net_.DeliverUntil(now_ + kMicrosPerSecond);
    // Frames delivered during the settle appended entries and may
    // have enqueued fresh sign work past Finish()'s barrier; drain
    // before anyone Seal()s a store underneath a busy signer.
    for (Node& n : nodes_) {
      n.avmm->DrainPending(now_ + kMicrosPerSecond);
    }
    net_.DeliverUntil(now_ + 2 * kMicrosPerSecond);
    for (Node& n : nodes_) {
      n.avmm->log().FlushSink();
    }
  }
}

std::vector<Authenticator> ScenarioWorld::CollectAuths(const NodeId& target) const {
  const Avmm& accused = node(target);
  std::vector<Authenticator> out;
  for (const Node& n : nodes_) {
    if (n.avmm.get() != &accused) {
      const auto& held = n.avmm->auth_store().AllFor(target);
      out.insert(out.end(), held.begin(), held.end());
    }
  }
  // Ask the target to commit to its current log end (covers the tail).
  out.push_back(accused.CommitLog());
  return out;
}

Avmm& ScenarioWorld::node(const NodeId& id) const {
  for (const Node& n : nodes_) {
    if (n.avmm->id() == id) {
      return *n.avmm;
    }
  }
  throw std::out_of_range("ScenarioWorld: unknown node " + id);
}

// -------------------------------------------------------------- Game ----

GameScenario::GameScenario(GameScenarioConfig cfg)
    : cfg_(std::move(cfg)),
      world_(cfg_.run, cfg_.seed, "game-net", cfg_.quantum_us, cfg_.chaos) {}

NodeId GameScenario::player_id(int index) const {
  return "player" + std::to_string(index + 1);
}

void GameScenario::SetCheat(int player_index, RunnableCheat cheat) {
  if (world_.started()) {
    throw std::logic_error("GameScenario::SetCheat: scenario already started");
  }
  cheats_[player_index] = cheat;
}

void GameScenario::Start() {
  reference_client_image_ = BuildGameClientImage(cfg_.client);
  reference_server_image_ = BuildGameServerImage(cfg_.server);

  // Peer order (defines guest-visible indices): server, player1, ...
  std::vector<NodeId> order = {"server"};
  for (int i = 0; i < cfg_.num_players; i++) {
    order.push_back(player_id(i));
  }
  world_.Start(std::move(order));
  world_.AddNode(cfg_.run, reference_server_image_, cfg_.seed * 131 + 1, reference_server_image_,
                 true);

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
    Avmm& node = world_.AddNode(cfg_.run, image, cfg_.seed * 131 + 7 + static_cast<uint64_t>(i),
                                reference_client_image_, true);
    if (auto hook = MakeCheatHook(cheat)) {
      node.SetCheatHook(*hook);
    }
    InputState& is = input_state_[static_cast<size_t>(i)];
    is.rng = Prng(cfg_.seed * 977 + static_cast<uint64_t>(i));
    is.next_at = is.rng.Range(1, cfg_.input_mean_gap_us);
    is.forged_autofire = (cheat == RunnableCheat::kForgedInputAimbot);
    if (cfg_.attested_input) {
      // The keyboard's keypair lives with the (trusted) device, not the
      // machine; its public key is certified in the registry.
      is.attestor = std::make_unique<InputAttestor>(player_id(i), cfg_.run.scheme, world_.rng());
      world_.registry().RegisterSigner(is.attestor->signer());
    }

    // The guest learns its peer index through the (recorded) input stream.
    uint32_t id_code = static_cast<uint32_t>(i + 1);
    if (is.attestor) {
      node.PushInput(id_code, is.attestor->Attest(id_code).Serialize());
    } else {
      node.PushInput(id_code);
    }
  }
  world_.SetTurnHook([this](SimTime now) { PumpInputs(now); });
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
        player(i).PushInput(code, is.attestor->Attest(code).Serialize());
      } else {
        // Forged inputs come from a program outside the AVM: it has no
        // access to the device's signing key (§7.2's threat model).
        player(i).PushInput(code);
      }
      SimTime gap = is.rng.Range(cfg_.input_mean_gap_us / 2, cfg_.input_mean_gap_us * 3 / 2);
      if (is.forged_autofire) {
        gap /= 8;  // Inhumanly fast trigger.
      }
      is.next_at += gap > 0 ? gap : 1;
    }
  }
}

AuditOutcome GameScenario::AuditPlayer(int player_index) {
  const Avmm& target = player(player_index);
  std::vector<Authenticator> auths = CollectAuths(target.id());
  AuditConfig acfg;
  acfg.mem_size = cfg_.run.mem_size;
  Auditor auditor("auditor", &world_.registry(), acfg);
  return auditor.AuditFull(target, InMemorySegmentSource(target.log()), reference_client_image_,
                           auths);
}

// ---------------------------------------------------------------- KV ----

KvScenario::KvScenario(KvScenarioConfig cfg)
    : cfg_(std::move(cfg)), world_(cfg_.run, cfg_.seed, "kv-net", cfg_.quantum_us, cfg_.chaos) {}

void KvScenario::Start() {
  reference_server_image_ = BuildKvServerImage(cfg_.server);
  client_image_ = BuildKvClientImage(cfg_.client);
  world_.Start({"kvserver", "kvclient"});

  RunConfig server_cfg = cfg_.run;
  server_cfg.rx_irq = true;  // The server is interrupt-driven.
  server_cfg.snapshot_interval = cfg_.snapshot_interval;
  world_.AddNode(server_cfg, reference_server_image_, cfg_.seed * 31 + 1, reference_server_image_,
                 true);

  // The client is a load generator, not an audit target.
  RunConfig client_cfg = cfg_.run;
  client_cfg.rx_irq = false;
  Avmm& client =
      world_.AddNode(client_cfg, client_image_, cfg_.seed * 31 + 2, client_image_, false);
  client.PushInput(1);  // The client's peer index.
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
    worlds_.emplace_back("g" + std::to_string(i).append("/"), &game->world_);
    games_.push_back(std::move(game));
  }
  for (int i = 0; i < cfg_.num_kv; i++) {
    KvScenarioConfig kc = cfg_.kv;
    kc.run = cfg_.run;
    kc.seed = cfg_.seed * 104729 + static_cast<uint64_t>(i) + 1;
    kc.chaos = cfg_.chaos;
    auto kv = std::make_unique<KvScenario>(kc);
    kv->Start();
    worlds_.emplace_back("kv" + std::to_string(i).append("/"), &kv->world_);
    kvs_.push_back(std::move(kv));
  }
}

void FleetScenario::SpillLogsTo(const std::string& base_dir) {
  if (!started_) {
    throw std::logic_error("FleetScenario::SpillLogsTo: call Start() first");
  }
  for (const auto& [prefix, world] : worlds_) {
    for (const ScenarioWorld::Node& n : world->nodes()) {
      if (!n.auditable) {
        continue;
      }
      NodeId global = prefix + n.avmm->id();
      LogStoreOptions opts;
      if (cfg_.chaos != nullptr) {
        // Store faults are keyed on the *global* name, so a plan can break
        // one auditee's store without touching its world siblings.
        opts.fault_hook = cfg_.chaos->StoreHook(global);
      }
      auto store = LogStore::Open((std::filesystem::path(base_dir) / global).string(),
                                  n.avmm->id(), opts);
      n.avmm->SpillTo(store.get());
      store_by_name_[global] = store.get();
      stores_.push_back(std::move(store));
    }
  }
}

void FleetScenario::RunFor(SimTime duration) {
  for (const auto& [prefix, world] : worlds_) {
    world->RunFor(duration);
  }
}

void FleetScenario::Finish() {
  for (const auto& [prefix, world] : worlds_) {
    world->Finish();
  }
  for (auto& store : stores_) {
    store->Flush();
  }
}

std::vector<FleetScenario::AuditeeRef> FleetScenario::Auditees() {
  std::vector<AuditeeRef> out;
  for (const auto& [prefix, world] : worlds_) {
    for (const ScenarioWorld::Node& n : world->nodes()) {
      if (!n.auditable) {
        continue;
      }
      AuditeeRef a;
      a.global_name = prefix + n.avmm->id();
      a.local_name = n.avmm->id();
      a.avmm = n.avmm.get();
      a.registry = &world->registry();
      a.reference_image = n.reference_image;
      auto it = store_by_name_.find(a.global_name);
      a.store = it == store_by_name_.end() ? nullptr : it->second;
      a.collect_auths = [w = world, local = a.local_name] { return w->CollectAuths(local); };
      out.push_back(std::move(a));
    }
  }
  return out;
}

}  // namespace avm
