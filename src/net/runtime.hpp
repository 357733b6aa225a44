// Runtime seam: the abstract substrate the protocol core runs on.
//
// The paper's protocols (state coordination §4.3, connection/disconnection
// §4.5, TTP termination §7) are defined purely over message content plus
// the §4.2 assumption of eventual, once-only delivery — nothing in their
// correctness argument depends on *how* messages move or what drives the
// clock. This header captures exactly that contract as four small
// interfaces, so the protocol layer (b2b/, baseline/) compiles against an
// abstract runtime:
//
//  * Transport — eventual once-only unicast between named parties, plus a
//    quiescence probe (unacked) used by deployment harnesses.
//  * Clock     — monotonic microseconds and one-shot timers (evidence
//    time-stamps, §7 termination deadlines).
//  * Rng       — the randomness source for authenticators and nonces.
//  * Executor  — "make progress until P holds": how a caller blocks on a
//    coordination run without knowing whether progress means pumping a
//    discrete-event queue or merely waiting for worker threads.
//
// Two implementations exist: sim_runtime.hpp adapts the deterministic
// discrete-event stack (ReliableEndpoint / EventScheduler), preserving
// seeded reproducibility bit-for-bit; reactor_runtime.hpp runs parties
// on real OS threads over kernel sockets with the same delivery
// semantics.
//
// Thread-safety contract: Transport::send and Clock::schedule_after may be
// called from any thread; a Transport delivers to its handler from at most
// one thread at a time but that thread is implementation-defined, so
// handler state needs its own synchronisation (Coordinator serialises with
// an internal mutex). Sim implementations are single-threaded and add no
// locking.
#pragma once

#include <cstdint>
#include <functional>

#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "crypto/chacha20.hpp"

namespace b2b::net {

/// Eventual once-only delivery between named parties (§4.2's assumed
/// communications infrastructure, whatever masks it underneath).
class Transport {
 public:
  using Handler =
      std::function<void(const PartyId& from, const Bytes& payload)>;

  /// Delivery/retransmission counters, comparable across implementations.
  struct Stats {
    std::uint64_t app_sent = 0;
    std::uint64_t app_delivered = 0;
    std::uint64_t retransmissions = 0;
    std::uint64_t duplicates_suppressed = 0;
    std::uint64_t acks_sent = 0;
    /// Wire-level totals (frame bytes incl. transport headers), so
    /// E-series benches can compare wire overhead across transports.
    std::uint64_t bytes_sent = 0;
    std::uint64_t bytes_received = 0;
    /// Connection-oriented counters; always 0 on the sim's datagram
    /// transport, which has no connections to lose.
    std::uint64_t connects = 0;
    std::uint64_t reconnects = 0;
    std::uint64_t frames_dropped_crc = 0;
    /// Adversarial-pressure counters (DESIGN.md §11 wire threat model);
    /// always 0 on the sim. `frames_rejected_auth` counts frames
    /// that failed pre-delivery vetting — hostile length prefixes,
    /// bad magic/version, misdirected or out-of-order handshakes,
    /// unknown types, malformed encodings. `replays_suppressed` counts
    /// data/ack frames whose incarnation proves them replayed or
    /// spliced from another transport lifetime (distinct from
    /// `duplicates_suppressed`, the same-incarnation dedup window).
    std::uint64_t frames_rejected_auth = 0;
    std::uint64_t replays_suppressed = 0;
    /// Event-loop scheduling counters (reactor runtime); always 0 on
    /// the sim, which has no loop, wheel, or shared pool.
    /// Reported per bundle (every transport of one reactor sees the
    /// same loop), so benches read them from any single transport.
    std::uint64_t epoll_wakeups = 0;
    std::uint64_t timers_fired = 0;
    std::uint64_t executor_queue_peak = 0;
  };

  virtual ~Transport() = default;

  /// Queue `payload` for eventual once-only delivery to `to`.
  virtual void send(const PartyId& to, Bytes payload) = 0;

  /// Sink for application payloads (each delivered exactly once).
  /// Replaces any previous handler.
  virtual void set_handler(Handler handler) = 0;

  /// Replace the handler and do not return while an invocation of the
  /// *previous* handler is still in flight on a transport thread. Needed
  /// before tearing down the handler's target (crash injection /
  /// recovery); equivalent to set_handler on single-threaded transports.
  virtual void set_handler_sync(Handler handler) {
    set_handler(std::move(handler));
  }

  /// Sink invoked when the transport permanently gives up delivering a
  /// message to a peer (retransmission budget exhausted) — the signal a
  /// coordinator uses to mark the peer suspect instead of blocking a run
  /// forever. Like Handler, it may be invoked from an implementation-
  /// defined thread. Default: failures stay silent (seed behaviour).
  using DeliveryFailureHandler = std::function<void(const PartyId& to)>;
  virtual void set_delivery_failure_handler(DeliveryFailureHandler handler) {
    (void)handler;
  }

  /// The party this transport speaks for.
  virtual const PartyId& self() const = 0;

  /// Messages queued but not yet acknowledged (any destination) — the
  /// quiescence probe deployment harnesses poll to detect settling.
  virtual std::size_t unacked() const = 0;

  virtual Stats stats() const = 0;
};

/// Time as the protocol layer sees it: monotonic microseconds (virtual in
/// the simulator, real otherwise) and one-shot timers.
class Clock {
 public:
  virtual ~Clock() = default;

  virtual std::uint64_t now_micros() const = 0;

  /// Run `fn` once, `delay_micros` from now. `fn` may be invoked from an
  /// implementation-defined thread; it must synchronise its own state.
  virtual void schedule_after(std::uint64_t delay_micros,
                              std::function<void()> fn) = 0;
};

/// Randomness seam for authenticators and nonces. Deterministic (seeded)
/// in simulation; any CSPRNG in deployment.
class Rng {
 public:
  virtual ~Rng() = default;

  virtual void fill(std::uint8_t* out, std::size_t len) = 0;

  Bytes bytes(std::size_t len) {
    Bytes out(len);
    if (len != 0) fill(out.data(), len);
    return out;
  }

  std::uint64_t next_u64() {
    std::uint8_t buf[8];
    fill(buf, sizeof buf);
    std::uint64_t v = 0;
    for (std::uint8_t b : buf) v = (v << 8) | b;
    return v;
  }
};

/// Seeded deterministic Rng (ChaCha20 keystream) — the default for both
/// runtimes; protocol randomness stays reproducible even over threads
/// because each coordinator draws from its own stream under its own lock.
class DeterministicRng final : public Rng {
 public:
  explicit DeterministicRng(std::uint64_t seed) : rng_(seed) {}
  explicit DeterministicRng(BytesView seed) : rng_(seed) {}

  void fill(std::uint8_t* out, std::size_t len) override {
    rng_.fill(out, len);
  }

 private:
  crypto::ChaCha20Rng rng_;
};

/// Drives (or awaits) protocol progress. The simulator implementation
/// pumps the event queue; the socket implementation just waits while
/// loop and pool threads do the work.
class Executor {
 public:
  virtual ~Executor() = default;

  /// Make progress until `predicate()` holds. Returns false if the
  /// progress budget (event budget / real-time timeout) was exhausted or
  /// no further progress is possible while the predicate is still false.
  virtual bool run_until(const std::function<bool()>& predicate) = 0;

  /// Make progress until the deployment is quiescent (no pending events /
  /// all transports drained and idle).
  virtual void settle() = 0;
};

/// A bundled runtime: one clock, one executor, and a transport factory.
/// Deployment harnesses (Federation) assemble parties against this, so
/// the protocol layer never constructs a concrete substrate itself. The
/// bundle owns every transport it hands out; destroying it stops all
/// runtime threads, so harnesses must destroy the bundle *before* the
/// message handlers its transports deliver into.
class Runtime {
 public:
  virtual ~Runtime() = default;

  /// Create (and own) the transport for one more party.
  virtual Transport& add_party(const PartyId& id) = 0;

  virtual Clock& clock() = 0;
  virtual Executor& executor() = 0;
};

}  // namespace b2b::net
