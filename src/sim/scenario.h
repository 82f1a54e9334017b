// Multi-host scenario drivers: wire guest images, AVMMs, the simulated
// network, input scripts and cheats into runnable experiments. These are
// the symmetric multi-party setup of Figure 2(a) (the game), the
// client/server setup of §6.12 (the key-value store), and the
// multi-auditee fleet of §6.11/§8 (many independent worlds whose
// machines are all audited by one service).
#ifndef SRC_SIM_SCENARIO_H_
#define SRC_SIM_SCENARIO_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/apps/cheats.h"
#include "src/avmm/attested_input.h"
#include "src/apps/game.h"
#include "src/apps/kvstore.h"
#include "src/audit/auditor.h"
#include "src/avmm/recorder.h"
#include "src/net/network.h"
#include "src/util/threadpool.h"

namespace avm {

namespace chaos {
class FaultInjector;  // src/chaos/fault_plan.h
}

// The node set every scenario drives: one network, one key registry,
// one signer per node, and the nodes in peer order (the order defines
// guest-visible peer indices, signer creation and turn order). Internal
// to src/sim: GameScenario and KvScenario configure one each, and
// FleetScenario walks them all.
class ScenarioWorld {
 public:
  // `run` is the scenario's RunConfig: it picks the signature scheme and
  // whether Finish() settles the network. The network's loss stream
  // derives from (seed, net_stream), as do the chaos RNGs.
  ScenarioWorld(const RunConfig& run, uint64_t seed, const char* net_stream, SimTime quantum_us,
                chaos::FaultInjector* chaos);
  // The nodes hold the network's, the registry's and their signers'
  // addresses, and the network holds the nodes'.
  ScenarioWorld(const ScenarioWorld&) = delete;
  ScenarioWorld& operator=(const ScenarioWorld&) = delete;

  // Creates and registers one signer per node, in peer order.
  void Start(std::vector<NodeId> peer_order);
  // Builds the next node in peer order, running `image`, with every node
  // as its peer. `reference_image` (the agreed-upon image an audit
  // replays, kept alive by the caller) differs from `image` when a
  // cheater installs a modified one.
  Avmm& AddNode(const RunConfig& run, ByteView image, uint64_t rng_seed,
                const Bytes& reference_image, bool auditable);
  // Called at the start of every turn, after delivery, before the nodes
  // run (the game pumps player inputs here).
  void SetTurnHook(std::function<void(SimTime)> hook) { turn_hook_ = std::move(hook); }

  // Each turn: deliver due frames, run the turn hook, then one quantum
  // on every node in three steps. Every node's BeginQuantum runs in
  // peer order; then the forced durable group commits that are due
  // (RunConfig::durable_commit) run at one barrier, together on a pool
  // when two or more are due; then every node's EndQuantum releases
  // what those commits made durable, in peer order. The network holds
  // the turn's frames and sends them grouped by node in peer order, so
  // frames reach SimNetwork::SendFrame's draws in the order a
  // node-by-node turn sends them. A failed commit throws the earliest
  // failing node's error, after every node's BeginQuantum of that turn.
  void RunFor(SimTime duration);
  // Final snapshots + END markers, then (batched or durable commit) a
  // settle that delivers the last commitments before anyone is audited.
  void Finish();

  // Every authenticator the other nodes hold about `target`, in peer
  // order, plus a fresh end-of-log commitment from the target (what an
  // auditor would collect in §4.6).
  std::vector<Authenticator> CollectAuths(const NodeId& target) const;
  // Throws std::out_of_range for an id not in the world.
  Avmm& node(const NodeId& id) const;
  Avmm& node(size_t index) const { return *nodes_.at(index).avmm; }

  struct Node {
    std::unique_ptr<Avmm> avmm;
    const Bytes* reference_image = nullptr;
    bool auditable = false;  // False for load generators (the kv client).
  };
  const std::vector<Node>& nodes() const { return nodes_; }

  bool started() const { return !peer_order_.empty(); }
  SimTime now() const { return now_; }
  Prng& rng() { return rng_; }
  SimNetwork& network() { return net_; }
  KeyRegistry& registry() { return registry_; }
  const KeyRegistry& registry() const { return registry_; }

 private:
  // Runs every node's due forced group commit: inline when at most one
  // is due, else on pool_, created the first time two are due and
  // grown to the largest number due at once.
  void CommitDue();

  RunConfig run_;
  SimTime quantum_us_;
  Prng rng_;
  SimNetwork net_;
  KeyRegistry registry_;
  std::vector<NodeId> peer_order_;
  std::vector<std::unique_ptr<Signer>> signers_;
  std::vector<Node> nodes_;
  std::function<void(SimTime)> turn_hook_;
  std::unique_ptr<ThreadPool> pool_;
  SimTime now_ = 0;
};

struct GameScenarioConfig {
  RunConfig run = RunConfig::AvmmRsa768();
  int num_players = 3;  // Plus one dedicated server node.
  uint64_t seed = 1;
  SimTime quantum_us = 1000;
  GameClientParams client;
  GameServerParams server;
  // Player input script: mean microseconds between input events, and the
  // fraction of events that are FIRE.
  SimTime input_mean_gap_us = 100 * kMicrosPerMilli;
  double fire_fraction = 0.4;
  // §7.2 extension: every player's keyboard signs its events and the
  // registry certifies its key ("<player>/input"), so audits verify the
  // attestations, which catches the forged-input aimbot.
  bool attested_input = false;
  // Chaos seam, wired into the scenario's SimNetwork. The injector's
  // own RNG streams derive from its plan seed; a scenario under an
  // empty plan is bit-identical to one with chaos == nullptr.
  chaos::FaultInjector* chaos = nullptr;
};

// A running game: one server node ("server") plus players "player1"...
// Drives everything in lockstep quanta; all nondeterminism derives from
// the config seed, so runs are exactly reproducible.
class GameScenario {
 public:
  explicit GameScenario(GameScenarioConfig cfg);
  // The world's turn hook holds this scenario's address.
  GameScenario(const GameScenario&) = delete;
  GameScenario& operator=(const GameScenario&) = delete;

  // Installs a cheat for one player (0-based). Must precede Start().
  void SetCheat(int player_index, RunnableCheat cheat);

  // Generates keys, builds images, constructs AVMMs.
  void Start();

  // Advances the simulation. Callable repeatedly.
  void RunFor(SimTime duration) { world_.RunFor(duration); }

  // Final snapshots + END markers.
  void Finish() { world_.Finish(); }

  SimTime now() const { return world_.now(); }
  int num_players() const { return cfg_.num_players; }
  Avmm& server() { return world_.node(0); }
  Avmm& player(int index) { return world_.node(player_id(index)); }
  const Avmm& player(int index) const { return world_.node(player_id(index)); }
  NodeId player_id(int index) const;

  const Bytes& reference_client_image() const { return reference_client_image_; }
  const Bytes& reference_server_image() const { return reference_server_image_; }
  const KeyRegistry& registry() const { return world_.registry(); }
  SimNetwork& network() { return world_.network(); }
  const GameScenarioConfig& config() const { return cfg_; }

  // Gathers all authenticators every *other* node collected about
  // `target`, plus a fresh end-of-log commitment from the target itself
  // (what an auditor would collect in §4.6).
  std::vector<Authenticator> CollectAuths(const NodeId& target) const {
    return world_.CollectAuths(target);
  }

  // Convenience: full audit of one player by another party.
  AuditOutcome AuditPlayer(int player_index);

 private:
  friend class FleetScenario;
  void PumpInputs(SimTime upto);

  GameScenarioConfig cfg_;
  Bytes reference_client_image_;
  Bytes reference_server_image_;
  ScenarioWorld world_;
  std::map<int, RunnableCheat> cheats_;

  struct InputState {
    SimTime next_at = 0;
    Prng rng{0};
    bool forged_autofire = false;
    std::unique_ptr<InputAttestor> attestor;  // Set in attested-input mode.
  };
  std::vector<InputState> input_state_;
};

struct KvScenarioConfig {
  RunConfig run = RunConfig::AvmmRsa768();
  uint64_t seed = 7;
  SimTime quantum_us = 1000;
  SimTime snapshot_interval = 5 * kMicrosPerMinute;  // §6.12: every 5 min.
  KvServerParams server;
  KvClientParams client;
  // Chaos seam (see GameScenarioConfig::chaos).
  chaos::FaultInjector* chaos = nullptr;
};

// Server ("kvserver", IRQ-driven) + load client ("kvclient").
class KvScenario {
 public:
  explicit KvScenario(KvScenarioConfig cfg);

  void Start();
  void RunFor(SimTime duration) { world_.RunFor(duration); }
  void Finish() { world_.Finish(); }

  SimTime now() const { return world_.now(); }
  Avmm& server() { return world_.node(0); }
  Avmm& client() { return world_.node(1); }
  const Bytes& reference_server_image() const { return reference_server_image_; }
  const KeyRegistry& registry() const { return world_.registry(); }

  std::vector<Authenticator> CollectAuthsForServer() const { return CollectAuths("kvserver"); }
  // Throws std::out_of_range for an id other than "kvserver"/"kvclient".
  std::vector<Authenticator> CollectAuths(const NodeId& target) const {
    return world_.CollectAuths(target);
  }

 private:
  friend class FleetScenario;

  KvScenarioConfig cfg_;
  Bytes reference_server_image_;
  Bytes client_image_;
  ScenarioWorld world_;
};

// ------------------------------------------------------------- Fleet ----

class LogStore;  // src/store; owned here when logs are spilled to disk.

struct FleetScenarioConfig {
  RunConfig run = RunConfig::AvmmNoSig();
  int num_games = 2;         // K independent game worlds (1 server + players each).
  int players_per_game = 2;
  int num_kv = 1;            // M key-value client/server pairs.
  uint64_t seed = 1;
  GameScenarioConfig game;   // Template; run/num_players/seed set per world.
  KvScenarioConfig kv;       // Template; run/seed set per world.
  // (game index, player index) -> cheat installed in that world.
  std::map<std::pair<int, int>, RunnableCheat> cheats;
  // Chaos seam, propagated to every world's network and (via
  // SpillLogsTo) every auditee store's fault hook. The same injector —
  // and therefore one root plan seed — covers the whole fleet.
  chaos::FaultInjector* chaos = nullptr;
};

// The §6.11/§8 deployment shape: many independent accountable worlds —
// K game servers (each with its own players) and M key-value stores —
// whose machines are all auditable by one FleetAuditService. Each world
// keeps its own network and key registry (an auditee registration
// carries its registry), and node names are globalized as
// "g<i>/<node>" / "kv<i>/<node>" so the fleet key space never collides.
class FleetScenario {
 public:
  explicit FleetScenario(FleetScenarioConfig cfg);
  ~FleetScenario();

  void Start();
  // Spills every auditable machine's log into a store::LogStore under
  // `base_dir`/<global name>/ (creating the stores; call after Start()
  // and before RunFor()). The stores persist checkpoints and let the
  // audit service read logs without touching the auditees' heaps.
  void SpillLogsTo(const std::string& base_dir);
  void RunFor(SimTime duration);
  void Finish();

  int num_games() const { return cfg_.num_games; }
  int num_kv() const { return cfg_.num_kv; }
  GameScenario& game(int i) { return *games_.at(static_cast<size_t>(i)); }
  KvScenario& kv(int i) { return *kvs_.at(static_cast<size_t>(i)); }

  // One auditable machine of the fleet, with everything a
  // FleetAuditService registration needs.
  struct AuditeeRef {
    NodeId global_name;  // "g0/player1", "kv1/kvserver", ...
    NodeId local_name;   // Name inside its world's registry/log.
    const Avmm* avmm = nullptr;
    const KeyRegistry* registry = nullptr;
    const Bytes* reference_image = nullptr;
    LogStore* store = nullptr;  // Null until SpillLogsTo().
    // Gathers the authenticators the world's other nodes hold about
    // this machine plus a fresh end-of-log commitment.
    std::function<std::vector<Authenticator>()> collect_auths;
  };
  // Every game server, game player and kv server (kv clients are load
  // generators, not audit targets).
  std::vector<AuditeeRef> Auditees();

 private:
  FleetScenarioConfig cfg_;
  std::vector<std::unique_ptr<GameScenario>> games_;
  std::vector<std::unique_ptr<KvScenario>> kvs_;
  // Every world with the prefix of its global names ("g0/", "kv1/"):
  // the games, then the kv pairs.
  std::vector<std::pair<std::string, ScenarioWorld*>> worlds_;
  std::vector<std::unique_ptr<LogStore>> stores_;
  std::map<NodeId, LogStore*> store_by_name_;
  bool started_ = false;
};

}  // namespace avm

#endif  // SRC_SIM_SCENARIO_H_
