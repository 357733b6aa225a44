// An active wire-level intruder: in-process man-in-the-middle proxy for
// the socket runtime (DESIGN.md §11).
//
// The paper argues its safety properties — no invalid state installed,
// non-repudiable evidence, honest parties unblamed — against a protocol-
// level adversary; the simulator's Dolev–Yao intruder exercises them on
// message *content*. This proxy brings the same adversary down to the
// byte stream the reactor runtime actually speaks: it terminates
// both legs of every connection to an interposed party, re-parses the
// `[len][crc32]` frame protocol (frame.hpp), and applies a scripted or
// seeded-random schedule of attacks per frame — delay, drop, duplicate,
// reorder, replay recorded frames (same and cross incarnation, i.e.
// spliced across connections), truncate mid-frame, and byte-mutate the
// *unsigned* regions (length prefixes, CRCs, hello fields, data/ack
// incarnations, ack sequence numbers) with the CRC recomputed so the
// corruption survives the checksum layer.
//
// Wire v3 widened the arsenal. Rewriting a live frame's seq or payload,
// forging acks, stripping the auth fields from a hello, and splicing a
// recorded frame across connections used to be out of scope — on a
// CRC-only wire they are indistinguishable from the honest sender. With
// per-connection session MACs (wire_auth.hpp) every one of them must now
// die at the receiving transport as `frames_rejected_auth`, so the proxy
// plays them too: kRewrite, kForgeAck, kDowngrade, kSplice. The random
// schedule only draws them when `auth_arsenal` is set (i.e. when the
// interposed federation actually authenticates its wire — against an
// unauthenticated wire they would be silent corruption no honest
// transport can detect, which is precisely the boundary v3 closed).
// Still out of scope: forging RSA signatures and stealing session keys.
//
// The mutation schedule is coverage-guided: actions are biased toward
// frames whose protocol-state transition (previous frame type → current
// frame type per stream direction, data frames refined by the embedded
// b2b message type) has rarely been seen, so a campaign spends its
// adversarial budget on the corners of the protocol state machine
// rather than re-corrupting the steady state.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "crypto/chacha20.hpp"
#include "net/frame.hpp"
#include "net/peer_directory.hpp"
#include "net/socket.hpp"

namespace b2b::net {

/// One adversarial decision for one relayed frame.
enum class IntruderAction : std::uint8_t {
  kForward = 0,   // relay untouched
  kDrop,          // never delivered (retransmission must recover)
  kDelay,         // held back a bounded random time, then relayed
  kDuplicate,     // relayed twice (dedup window must suppress)
  kReorder,       // held until the next frame on this leg passes first
  kReplay,        // relayed, then a recorded frame from this flow injected
  kTruncate,      // a prefix of the frame written, then the pair reset
  kMutate,        // unsigned region rewritten, CRC recomputed, relayed
  // Wire v3 arsenal: MAC-detectable forgeries (see header comment).
  kRewrite,       // live data seq/payload rewritten, CRC fresh, MAC stale
  kForgeAck,      // fabricated ack injected without the session key
  kDowngrade,     // hello auth fields stripped, flag forced to kAuthNone
  kSplice,        // recorded frame from a *different* flow injected
};

/// What the proxy knows about a frame when choosing an action.
struct FrameInfo {
  std::string client;        // the non-interposed end ("?" until its hello)
  std::string victim;        // the interposed party
  bool to_victim = true;     // leg: true = client→victim
  std::uint8_t frame_type = 0xFF;  // frame::kData/kAck/kHello, 0xFF unknown
  std::uint8_t msg_type = 0;       // Envelope type byte for data frames
  std::uint64_t seq = 0;           // data/ack frames
  std::uint64_t incarnation = 0;   // data/ack frames and hellos
};

struct IntruderStats {
  std::uint64_t parties_interposed = 0;
  std::uint64_t connections_intercepted = 0;
  std::uint64_t frames_seen = 0;
  std::uint64_t forwarded = 0;
  std::uint64_t dropped = 0;
  std::uint64_t delayed = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t reordered = 0;
  std::uint64_t replayed = 0;
  /// Replays whose recorded frame came from a different incarnation of
  /// the sender than the leg currently carries (cross-restart splices).
  std::uint64_t replayed_cross_incarnation = 0;
  std::uint64_t truncated = 0;
  std::uint64_t mutated = 0;
  /// Wire v3 arsenal (each one must land as frames_rejected_auth on an
  /// authenticated wire — zero of them may reach an application).
  std::uint64_t rewritten = 0;
  std::uint64_t acks_forged = 0;
  std::uint64_t downgraded = 0;
  std::uint64_t spliced = 0;
  /// Frames arriving at the proxy itself with a hostile length prefix
  /// (the proxy enforces frame::decode_header like the runtimes do).
  std::uint64_t hostile_lengths_rejected = 0;
};

/// Seeded, coverage-guided action source. Thread-safe.
class MutationSchedule {
 public:
  struct Config {
    /// Campaign seed (B2B_INTRUDER_SEED in the test harness).
    std::uint64_t seed = 11;
    /// Baseline per-frame probability of an adversarial action.
    double action_probability = 0.08;
    /// Probability while a transition is still novel (first few sightings).
    double novel_boost = 0.5;
    /// Upper bound for kDelay holds.
    std::uint32_t max_delay_millis = 25;
    /// Budget: after this many adversarial actions the schedule only
    /// forwards (a campaign's built-in passivation).
    std::size_t max_actions = static_cast<std::size_t>(-1);
    /// Draw the wire v3 attacks (kRewrite/kForgeAck/kDowngrade/kSplice)
    /// in the random arsenal. Enable ONLY against a session-authenticated
    /// federation: on a MAC-less wire these are silent corruption no
    /// transport can detect (scripted games may still force them).
    bool auth_arsenal = false;
  };

  explicit MutationSchedule(const Config& config)
      : config_(config), rng_(config.seed) {}

  IntruderAction next_action(const FrameInfo& info);

  /// Protocol-state transitions observed so far ("hello>data:propose",
  /// "data:decide>ack", ...) — the campaign's coverage report.
  std::vector<std::string> transitions_covered() const;
  std::size_t actions_taken() const;
  std::uint32_t max_delay_millis() const { return config_.max_delay_millis; }

  /// Draw from the schedule's rng (mutation variants, delays, replay
  /// picks share the seed so a failing schedule replays exactly).
  std::uint64_t next_below(std::uint64_t bound);

 private:
  mutable std::mutex mutex_;
  Config config_;
  crypto::ChaCha20Rng rng_;
  std::map<std::string, std::uint64_t> transitions_;  // transition → count
  std::map<std::string, std::string> prev_label_;     // stream dir → label
  std::size_t actions_ = 0;
};

/// The man-in-the-middle itself. Interpose a party *after* its transport
/// has bound (its real address is in the directory) and *before* peers
/// dial it: the proxy re-points the directory entry at its own listener,
/// and every connection to the victim from then on is terminated,
/// parsed, attacked and re-originated.
class IntruderProxy {
 public:
  /// Scripted override, consulted while active before the randomised
  /// schedule: return an action to force it, nullopt to fall through.
  using Script = std::function<std::optional<IntruderAction>(const FrameInfo&)>;

  struct Config {
    MutationSchedule::Config schedule{};
    Script script;
    /// Start passive (pure relay)? Campaigns measure clean-run overhead
    /// and post-attack convergence through a passive proxy.
    bool active = true;
    /// The proxy vets length prefixes like the runtimes (satellite of
    /// the §11 threat model: no endpoint allocates a hostile length).
    std::size_t max_frame_bytes = frame::kMaxFrameLen;
    std::uint64_t dial_timeout_micros = 2'000'000;
    /// Per-flow recording cap for the replay arsenal.
    std::size_t max_recorded_per_flow = 256;
  };

  IntruderProxy(std::shared_ptr<PeerDirectory> directory, Config config);
  ~IntruderProxy();

  IntruderProxy(const IntruderProxy&) = delete;
  IntruderProxy& operator=(const IntruderProxy&) = delete;

  /// Redirect all traffic *to* `victim` through this proxy. Throws
  /// b2b::Error if the directory has no address for it yet.
  void interpose(const PartyId& victim);

  /// Active = attacking; passive = byte-transparent relay. Liveness
  /// claims are asserted after set_active(false).
  void set_active(bool active);
  bool active() const { return active_.load(); }

  IntruderStats stats() const;
  std::vector<std::string> transitions_covered() const {
    return schedule_.transitions_covered();
  }
  std::size_t actions_taken() const { return schedule_.actions_taken(); }

  /// Stop listeners and relay threads, close every intercepted
  /// connection and restore the victims' real directory entries
  /// (idempotent; the destructor calls it).
  void shutdown();

 private:
  struct Tap {
    PartyId victim;
    PeerAddress real;
    Listener listener;
    std::thread acceptor;
  };
  /// One intercepted connection: the accepted client leg, the dialed
  /// victim leg, and one relay thread per direction.
  struct Pair {
    PartyId victim;
    Socket client_sock;
    Socket victim_sock;
    std::thread c2v;
    std::thread v2c;
    std::mutex name_mutex;
    std::string client_name = "?";
    /// Sender incarnation per leg (from the hello each leg carried),
    /// guarded by name_mutex. [0] = client→victim, [1] = victim→client.
    std::uint64_t leg_incarnation[2] = {0, 0};
    std::atomic<bool> dead{false};
  };
  using PairPtr = std::shared_ptr<Pair>;

  void accept_loop(Tap& tap);
  void relay(const PairPtr& pair, bool to_victim);
  void kill_pair(const PairPtr& pair);
  IntruderAction decide(const FrameInfo& info);
  /// Apply `action` to one parsed frame; returns false when the pair
  /// must die (truncation). `out` is the leg's destination socket,
  /// `held` the leg's reorder slot.
  bool apply(const PairPtr& pair, bool to_victim, Socket& out,
             const FrameInfo& info, const Bytes& payload,
             std::optional<Bytes>& held);
  bool write_framed(Socket& out, const Bytes& framed,
                    std::optional<Bytes>& held);
  void record(const std::string& flow, Bytes framed, std::uint64_t inc);
  /// Field-level mutation with the CRC recomputed (kMutate variant 3).
  Bytes mutated_field_payload(const Bytes& payload);

  std::shared_ptr<PeerDirectory> directory_;
  Config config_;
  MutationSchedule schedule_;
  std::atomic<bool> active_;

  mutable std::mutex mutex_;  // stats_, recorded_, pairs_, stopping_
  IntruderStats stats_;
  struct Recorded {
    Bytes framed;
    std::uint64_t incarnation = 0;
  };
  std::map<std::string, std::vector<Recorded>> recorded_;  // flow → frames
  std::size_t replay_cursor_ = 0;  // under mutex_; cycles the arsenal
  std::vector<PairPtr> pairs_;
  bool stopping_ = false;

  std::vector<std::unique_ptr<Tap>> taps_;  // appended under mutex_
};

}  // namespace b2b::net
