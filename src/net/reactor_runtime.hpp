// Event-driven (epoll) implementation of the runtime seam: the socket
// runtime, whose parties can live in separate OS processes and hosts.
//
// ReactorRuntime hosts every local party on ONE epoll loop: all sockets
// are non-blocking, partial frames are reassembled in per-connection
// stream buffers, and retransmission is one timer per transport on a
// hierarchical timer wheel (timer_wheel.hpp) that also backs the
// Clock::schedule seam. Handler deliveries — which block on RSA and the
// journal — run on a small fixed TaskPool, serialised per transport by
// a Strand, so the loop thread never blocks. Thread count is therefore
// flat: 1 loop + K workers, independent of parties, objects and
// connections (DESIGN.md §10).
//
// Connections are dialled lazily on first send and re-dialled with
// capped exponential backoff after loss. Every message travels as a
// length-prefixed, CRC-framed frame (frame.hpp); the first frame in each
// direction of a connection is a hello naming the sender and its
// *incarnation* (a fresh random value per transport instance).
//
// §4.2 layering over a fair-lossy byte stream: TCP alone is not the
// paper's "eventual, once-only delivery" — a connection can die with
// data unflushed, and a retransmit after a reset can deliver twice. So
// positive acknowledgement with retransmission gives *eventual*
// delivery across resets and process crashes, and per-sender sequence
// dedup (DedupWindow) gives *once-only* delivery. The incarnation scopes
// dedup state to one transport lifetime: a restarted process announces
// a new incarnation, the receiver drops the old window, and
// cross-restart duplicate suppression is the coordinator journal's job
// (DESIGN.md §7).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "crypto/chacha20.hpp"
#include "net/dedup.hpp"
#include "net/peer_directory.hpp"
#include "net/reactor.hpp"
#include "net/runtime.hpp"
#include "net/socket.hpp"
#include "net/wire_auth.hpp"

namespace b2b::net {

/// Send-side fault injection: each frame write (initial or retransmit)
/// may be dropped or duplicated, sampled from a seeded generator. The
/// bytes genuinely never hit (or hit twice) the socket, so the §4.2
/// masking layer is exercised over a real stream.
struct TcpFaults {
  double drop_probability = 0.0;
  double duplicate_probability = 0.0;
};

/// Injected-fault counters (fabric-level, distinct from Transport::Stats).
struct TcpFabricStats {
  std::uint64_t frames_dropped_injected = 0;
  std::uint64_t frames_duplicated_injected = 0;
};

/// Eventual once-only delivery over non-blocking TCP on a shared epoll
/// loop. All connection state lives on the loop thread (no lock);
/// protocol bookkeeping (outgoing queue, dedup windows, stats) is under
/// one mutex so send()/stats()/quiescent() stay thread-safe.
class ReactorTransport final : public Transport {
 public:
  struct Config {
    /// Retransmission cadence for un-acked messages; also how often
    /// missing connections are redialled. One wheel timer per
    /// transport, not one thread per party.
    std::uint64_t retransmit_interval_micros = 20'000;
    /// Give-up bound so a dead peer cannot pin quiescence forever.
    std::size_t max_retransmits = 10'000;
    /// Reconnect backoff: first retry after the min, doubling up to the cap.
    std::uint64_t reconnect_backoff_min_micros = 20'000;
    std::uint64_t reconnect_backoff_max_micros = 1'000'000;
    /// Bound on one non-blocking connect attempt.
    std::uint64_t connect_timeout_micros = 2'000'000;
    /// An accepted connection that never sends its hello is dropped.
    std::uint64_t handshake_timeout_micros = 5'000'000;
    /// Frames larger than this are treated as stream corruption.
    std::size_t max_frame_bytes = 16u << 20;
    /// Write-side backpressure: once a connection's send buffer holds
    /// this much, further DATA frames are not buffered — the
    /// retransmit timer re-offers them once the buffer drains on
    /// EPOLLOUT. Acks and handshakes always queue.
    std::size_t max_send_buffer_bytes = 4u << 20;
    /// Seed for the injected-fault generator.
    std::uint64_t fault_seed = 1;
    TcpFaults faults{};
    /// Wire v3 session authentication (wire_auth.hpp): per-connection
    /// HMAC keys negotiated at the hello, every data/ack frame MAC'd.
    WireAuth auth{};
  };

  /// Binds host:port (port 0 = ephemeral, see port()) and registers
  /// with `reactor`'s loop. `reactor` and `pool` must outlive this
  /// transport (ReactorRuntime guarantees it).
  ReactorTransport(PartyId self, const std::string& host, std::uint16_t port,
                   std::shared_ptr<PeerDirectory> directory, Config config,
                   Reactor& reactor, std::shared_ptr<TaskPool> pool);
  ~ReactorTransport() override;

  ReactorTransport(const ReactorTransport&) = delete;
  ReactorTransport& operator=(const ReactorTransport&) = delete;

  // Transport interface — all entry points are thread-safe.
  void send(const PartyId& to, Bytes payload) override;
  void set_handler(Handler handler) override;
  void set_handler_sync(Handler handler) override;
  void set_delivery_failure_handler(DeliveryFailureHandler handler) override;
  const PartyId& self() const override { return self_; }
  std::size_t unacked() const override;
  Stats stats() const override;

  /// The port actually bound (resolves port 0).
  std::uint16_t port() const { return port_; }

  /// This transport instance's incarnation (fresh random per instance).
  std::uint64_t incarnation() const { return incarnation_; }

  /// Crash-model switch, as SimNetwork::set_alive: while dead,
  /// outgoing writes are suppressed (but stay queued; §4.2 persistent
  /// storage) and incoming frames are dropped un-acked, so peers keep
  /// retransmitting into the downtime and delivery resumes on recovery.
  void set_alive(bool alive);

  /// Nothing un-acked and no delivery in flight or queued.
  bool quiescent() const;

  TcpFabricStats fabric_stats() const;

  /// Close the listener and every connection and stop the delivery
  /// strand (idempotent; the destructor calls it). Runs the teardown on
  /// the loop thread while the reactor is live, directly otherwise.
  void shutdown();

 private:
  /// One non-blocking connection (either direction), loop-thread only.
  struct StreamBuf {
    Bytes buf;
    std::size_t head = 0;
    std::size_t size() const { return buf.size() - head; }
    const std::uint8_t* data() const { return buf.data() + head; }
    bool empty() const { return size() == 0; }
    void append(const std::uint8_t* p, std::size_t n) {
      if (head > 4096 && head >= buf.size() - head) {
        buf.erase(buf.begin(),
                  buf.begin() + static_cast<std::ptrdiff_t>(head));
        head = 0;
      }
      buf.insert(buf.end(), p, p + n);
    }
    void consume(std::size_t n) {
      head += n;
      if (head == buf.size()) {
        buf.clear();
        head = 0;
      }
    }
  };
  struct Conn {
    Socket socket;
    PartyId peer;                        // known at dial / after handshake
    std::uint64_t peer_incarnation = 0;  // valid once handshaken
    bool handshaken = false;
    bool hello_sent = false;
    bool connecting = false;  // non-blocking connect still completing
    bool dead = false;
    /// Per-direction MAC keys (wire v3); loop-thread only like the rest.
    ConnKeys keys;
    StreamBuf rbuf;
    StreamBuf wbuf;
    Reactor::FdHandlerPtr handle;
    TimerWheel::TimerId deadline_timer = TimerWheel::kInvalidTimer;
  };
  using ConnPtr = std::shared_ptr<Conn>;
  struct Backoff {
    std::uint64_t delay_micros = 0;
    std::uint64_t not_before_micros = 0;
    bool ever_connected = false;
  };

  // Loop-thread methods.
  void start_on_loop();
  void teardown_on_loop();
  void on_listener_events(std::uint32_t events);
  void on_conn_events(const ConnPtr& conn, std::uint32_t events);
  void adopt_conn(const ConnPtr& conn, bool inbound);
  void finish_connect(const ConnPtr& conn);
  void read_conn(const ConnPtr& conn);
  bool parse_frames(const ConnPtr& conn);
  /// Append a framed payload `copies` times. DATA frames respect the
  /// send-buffer cap (`force == false`); acks/hellos always queue.
  void queue_frame(const ConnPtr& conn, const Bytes& framed, int copies,
                   bool force);
  void flush_conn(const ConnPtr& conn);
  /// By value: callers may pass the active_ entry that this erases.
  void kill_conn(ConnPtr conn);
  void dial(const PartyId& to);
  void bump_backoff(const PartyId& to);
  void register_handshake(const ConnPtr& conn, PartyId peer,
                          std::uint64_t peer_incarnation);
  /// Returns false when the frame's incarnation proves it was spliced
  /// into this connection (caller must reset the connection).
  bool handle_data(const ConnPtr& conn, std::uint64_t frame_inc,
                   std::uint64_t seq, Bytes payload);
  void handle_ack(const PartyId& from, std::uint64_t frame_inc,
                  std::uint64_t seq);
  void retransmit_tick();
  /// Re-offer everything queued for the peer of `conn`, a connection
  /// this transport dialled, once the connect completes (initial
  /// transmission of frames that predate it).
  void flush_outgoing_to(const ConnPtr& conn);

  /// 0 = drop, 1 = normal, 2 = duplicate. Caller holds mutex_.
  int sample_faults_locked();

  PartyId self_;
  std::shared_ptr<PeerDirectory> directory_;
  Config config_;
  std::uint64_t incarnation_;
  Reactor& reactor_;
  std::shared_ptr<TaskPool> pool_;
  // port_ precedes listen_socket_: tcp_listen writes the bound port
  // through &port_ during listen_socket_'s initialisation, so port_'s
  // own zero-init must run first.
  std::uint16_t port_ = 0;
  Socket listen_socket_;

  mutable std::mutex mutex_;  // protocol state below
  Handler handler_;
  DeliveryFailureHandler failure_handler_;
  Stats stats_;
  TcpFabricStats fabric_stats_;
  crypto::ChaCha20Rng fault_rng_;
  bool alive_ = true;
  bool shutdown_called_ = false;
  struct Outgoing {
    Bytes payload;
    std::size_t attempts = 1;
  };
  std::unordered_map<PartyId, std::uint64_t> next_seq_;
  std::map<std::pair<PartyId, std::uint64_t>, Outgoing> outgoing_;
  std::unordered_map<PartyId, DedupWindow> delivered_;
  std::unordered_map<PartyId, std::uint64_t> peer_incarnation_;
  std::size_t dispatching_ = 0;  // deliveries/failure callbacks in flight
  std::condition_variable dispatch_cv_;

  /// Serialises handler invocations on the pool (Transport contract:
  /// at most one delivering thread at a time).
  std::unique_ptr<Strand> delivery_strand_;

  // Loop-thread only.
  bool closed_ = false;
  Reactor::FdHandlerPtr listener_handle_;
  TimerWheel::TimerId retransmit_timer_ = TimerWheel::kInvalidTimer;
  /// EMFILE accept-pause re-arm timer; tracked so teardown can cancel
  /// it (an uncancelled timer would fire into a freed transport).
  TimerWheel::TimerId accept_pause_timer_ = TimerWheel::kInvalidTimer;
  std::vector<ConnPtr> conns_;
  std::unordered_map<PartyId, ConnPtr> active_;
  std::unordered_map<PartyId, Backoff> backoff_;
};

/// Clock over the reactor's wheel: no timer thread. Callbacks fire on
/// the loop and are immediately handed to the pool, so protocol timer
/// work (run probes, §7 deadlines) never blocks socket I/O.
class ReactorClock final : public Clock {
 public:
  ReactorClock(Reactor& reactor, std::shared_ptr<TaskPool> pool)
      : reactor_(reactor), pool_(std::move(pool)) {}

  std::uint64_t now_micros() const override { return reactor_.now_micros(); }

  void schedule_after(std::uint64_t delay_micros,
                      std::function<void()> fn) override {
    reactor_.schedule_after(delay_micros,
                            [pool = pool_, fn = std::move(fn)] {
                              pool->post(fn);
                            });
  }

 private:
  Reactor& reactor_;
  std::shared_ptr<TaskPool> pool_;
};

/// Progress = real time passing while loop and pool threads run.
/// `run_until` polls the predicate; `settle` waits for a caller-supplied
/// quiescence probe to hold over several consecutive samples.
class ThreadedExecutor final : public Executor {
 public:
  static constexpr std::uint64_t kPollIntervalMicros = 500;
  /// run_until / settle give up after this much real time.
  static constexpr std::uint64_t kTimeoutMicros = 60'000'000;
  /// Consecutive quiescent samples settle requires.
  static constexpr int kStableSamples = 3;

  explicit ThreadedExecutor(std::function<bool()> quiescent)
      : quiescent_(std::move(quiescent)) {}

  bool run_until(const std::function<bool()>& predicate) override;
  void settle() override;

 private:
  std::function<bool()> quiescent_;
};

/// The epoll substrate as one bundle: a shared peer directory, one
/// Reactor (loop + wheel), one bounded TaskPool, a wheel-backed clock,
/// one ReactorTransport per local party, and an executor whose
/// quiescence probe covers the local transports. The pool is exposed so
/// the Coordinator can run its shard lanes on it as strands (thread
/// count stays flat in the number of objects too).
class ReactorRuntime final : public Runtime {
 public:
  struct Options {
    /// Shared address registry; created (empty) when null.
    std::shared_ptr<PeerDirectory> directory;
    std::string default_host = "127.0.0.1";
    /// Per-party fault seed base (patterns repeatable per seed+party).
    std::uint64_t seed = 1;
    TcpFaults faults{};
    ReactorTransport::Config transport{};
    Reactor::Config reactor{};
    /// Bounded pool width: deliveries, lane dispatch and clock
    /// callbacks all share these workers.
    std::size_t workers = 4;
    /// Session-auth hook: called once per add_party to produce that
    /// party's WireAuth (its private key + the shared peer-key lookup).
    /// Null = wire auth off for every party in the bundle.
    std::function<WireAuth(const PartyId&)> wire_auth;
  };

  explicit ReactorRuntime(const Options& options);
  ~ReactorRuntime() override;

  /// Stop everything: transports (on the live loop), then the loop
  /// thread, then the pool workers. Idempotent; the destructor calls it.
  void shutdown();

  ReactorRuntime(const ReactorRuntime&) = delete;
  ReactorRuntime& operator=(const ReactorRuntime&) = delete;

  Transport& add_party(const PartyId& id) override;
  Clock& clock() override { return clock_; }
  Executor& executor() override { return executor_; }

  PeerDirectory& directory() { return *directory_; }
  std::shared_ptr<PeerDirectory> directory_ptr() { return directory_; }

  /// The local transport for `id` (nullptr if unknown to this bundle).
  ReactorTransport* transport(const PartyId& id);

  /// Crash-model switch for a local party.
  void set_alive(const PartyId& id, bool alive);

  /// Aggregate injected-fault counters across local transports.
  TcpFabricStats fabric_stats() const;

  bool quiescent() const;

  /// Extra quiescence condition consulted by settle() (shard lanes).
  void add_quiescence_probe(std::function<bool()> probe) {
    quiescence_probes_.push_back(std::move(probe));
  }

  /// The bounded executor pool (shared with coordinator shard lanes).
  std::shared_ptr<TaskPool> pool() { return pool_; }
  Reactor& reactor() { return reactor_; }

 private:
  Options options_;
  std::shared_ptr<PeerDirectory> directory_;
  Reactor reactor_;
  std::shared_ptr<TaskPool> pool_;
  ReactorClock clock_;
  std::vector<std::unique_ptr<ReactorTransport>> transports_;
  std::vector<std::function<bool()>> quiescence_probes_;
  ThreadedExecutor executor_;
  bool shutdown_done_ = false;
};

}  // namespace b2b::net
