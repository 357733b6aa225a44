#include "net/reactor_runtime.hpp"

#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <random>
#include <utility>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "net/frame.hpp"
#include "wire/codec.hpp"

namespace b2b::net {

namespace {

std::uint64_t random_incarnation() {
  std::random_device rd;
  std::uint64_t hi = rd();
  std::uint64_t lo = rd();
  std::uint64_t inc = (hi << 32) ^ lo;
  return inc == 0 ? 1 : inc;  // 0 is "no incarnation known"
}

}  // namespace

// ---------------------------------------------------------------------------
// ReactorTransport — construction / teardown
// ---------------------------------------------------------------------------

ReactorTransport::ReactorTransport(PartyId self, const std::string& host,
                                   std::uint16_t port,
                                   std::shared_ptr<PeerDirectory> directory,
                                   Config config, Reactor& reactor,
                                   std::shared_ptr<TaskPool> pool)
    : self_(std::move(self)),
      directory_(std::move(directory)),
      config_(config),
      incarnation_(random_incarnation()),
      reactor_(reactor),
      pool_(std::move(pool)),
      listen_socket_(tcp_listen(host, port, &port_)),
      fault_rng_(config.fault_seed),
      delivery_strand_(std::make_unique<Strand>(pool_)) {
  listen_socket_.set_nonblocking(true);
  reactor_.post([this] { start_on_loop(); });
}

ReactorTransport::~ReactorTransport() { shutdown(); }

void ReactorTransport::start_on_loop() {
  listener_handle_ = reactor_.add_fd(
      listen_socket_.fd(), EPOLLIN,
      [this](std::uint32_t events) { on_listener_events(events); });
  retransmit_timer_ = reactor_.schedule_after(
      config_.retransmit_interval_micros, [this] { retransmit_tick(); });
}

void ReactorTransport::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutdown_called_) return;
    shutdown_called_ = true;
  }
  // Tear down the loop-side state ON the loop while it runs; once the
  // reactor has stopped its thread is joined, so direct access is safe.
  std::mutex done_mutex;
  std::condition_variable done_cv;
  bool done = false;
  const bool posted = reactor_.post([&] {
    teardown_on_loop();
    // Notify WHILE holding the lock: the waiter cannot return from
    // wait() (and destroy the stack cv) until we release done_mutex,
    // which happens only after notify_all has finished.
    std::lock_guard<std::mutex> lock(done_mutex);
    done = true;
    done_cv.notify_all();
  });
  if (posted) {
    std::unique_lock<std::mutex> lock(done_mutex);
    done_cv.wait(lock, [&] { return done; });
  } else {
    teardown_on_loop();
  }
  delivery_strand_->stop();
}

void ReactorTransport::teardown_on_loop() {
  if (closed_) return;
  closed_ = true;
  if (retransmit_timer_ != TimerWheel::kInvalidTimer) {
    reactor_.cancel(retransmit_timer_);
    retransmit_timer_ = TimerWheel::kInvalidTimer;
  }
  if (accept_pause_timer_ != TimerWheel::kInvalidTimer) {
    reactor_.cancel(accept_pause_timer_);
    accept_pause_timer_ = TimerWheel::kInvalidTimer;
  }
  if (listener_handle_) {
    reactor_.remove_fd(listener_handle_);
    listener_handle_.reset();
  }
  listen_socket_.close();
  for (auto& conn : conns_) {
    conn->dead = true;
    if (conn->deadline_timer != TimerWheel::kInvalidTimer) {
      reactor_.cancel(conn->deadline_timer);
      conn->deadline_timer = TimerWheel::kInvalidTimer;
    }
    if (conn->handle) {
      reactor_.remove_fd(conn->handle);
      conn->handle.reset();
    }
    conn->socket.close();
  }
  conns_.clear();
  active_.clear();
}

// ---------------------------------------------------------------------------
// ReactorTransport — Transport interface (any thread)
// ---------------------------------------------------------------------------

int ReactorTransport::sample_faults_locked() {
  const TcpFaults& faults = config_.faults;
  if (faults.drop_probability > 0.0 &&
      fault_rng_.next_double() < faults.drop_probability) {
    ++fabric_stats_.frames_dropped_injected;
    return 0;
  }
  if (faults.duplicate_probability > 0.0 &&
      fault_rng_.next_double() < faults.duplicate_probability) {
    ++fabric_stats_.frames_duplicated_injected;
    return 2;
  }
  return 1;
}

void ReactorTransport::send(const PartyId& to, Bytes payload) {
  std::uint64_t seq;
  int copies = 0;
  Bytes wire_payload = payload;  // survives the move into outgoing_
  {
    std::lock_guard<std::mutex> lock(mutex_);
    seq = next_seq_[to]++;
    outgoing_[{to, seq}] = Outgoing{std::move(payload), 1};
    ++stats_.app_sent;
    if (alive_) copies = sample_faults_locked();
  }
  if (copies == 0) return;
  // All connection state is loop-owned; the write happens there — and so
  // does the encoding, because the MAC key belongs to the connection. If
  // no usable connection exists yet the dial starts and the frame rides
  // the post-connect flush or the retransmit timer instead.
  reactor_.post([this, to, seq, wire_payload = std::move(wire_payload),
                 copies] {
    if (closed_) return;
    auto it = active_.find(to);
    if (it == active_.end()) {
      dial(to);
      return;
    }
    if (it->second->connecting) return;  // flushed on connect completion
    if (config_.auth.enabled && !it->second->keys.has_send) return;
    Bytes encoded = frame::encode_data(incarnation_, seq, wire_payload);
    if (config_.auth.enabled) append_mac(encoded, it->second->keys.send);
    queue_frame(it->second, frame::frame_payload(encoded), copies, false);
    flush_conn(it->second);
  });
}

void ReactorTransport::set_handler(Handler handler) {
  std::lock_guard<std::mutex> lock(mutex_);
  handler_ = std::move(handler);
}

void ReactorTransport::set_handler_sync(Handler handler) {
  std::unique_lock<std::mutex> lock(mutex_);
  handler_ = std::move(handler);
  // Deliveries already queued on the strand raised dispatching_ under
  // this mutex; they re-read handler_ when they run, so waiting here
  // guarantees no invocation of the *previous* handler is in flight.
  dispatch_cv_.wait(lock, [this] { return dispatching_ == 0; });
}

void ReactorTransport::set_delivery_failure_handler(
    DeliveryFailureHandler handler) {
  std::lock_guard<std::mutex> lock(mutex_);
  failure_handler_ = std::move(handler);
}

std::size_t ReactorTransport::unacked() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return outgoing_.size();
}

Transport::Stats ReactorTransport::stats() const {
  Stats stats;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stats = stats_;
  }
  const Reactor::Stats loop_stats = reactor_.stats();
  stats.epoll_wakeups = loop_stats.epoll_wakeups;
  stats.timers_fired = loop_stats.timers_fired;
  stats.executor_queue_peak = pool_->queue_peak();
  return stats;
}

TcpFabricStats ReactorTransport::fabric_stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return fabric_stats_;
}

void ReactorTransport::set_alive(bool alive) {
  std::lock_guard<std::mutex> lock(mutex_);
  alive_ = alive;
}

bool ReactorTransport::quiescent() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return outgoing_.empty() && dispatching_ == 0;
}

// ---------------------------------------------------------------------------
// ReactorTransport — loop-thread machinery
// ---------------------------------------------------------------------------

void ReactorTransport::on_listener_events(std::uint32_t) {
  if (closed_) return;
  for (;;) {
    int fd = ::accept4(listen_socket_.fd(), nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd >= 0) {
      auto conn = std::make_shared<Conn>();
      conn->socket = Socket(fd);
      adopt_conn(conn, /*inbound=*/true);
      continue;
    }
    if (errno == EINTR || errno == ECONNABORTED) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EMFILE || errno == ENFILE) {
      // Out of descriptors: disarm the listener briefly instead of
      // spinning (level-triggered EPOLLIN would re-fire immediately).
      // Shed connections; peers redial via their retransmit layer.
      B2B_WARN("reactor: accept on ", self_,
               ": out of file descriptors; pausing accepts");
      reactor_.update_fd(listener_handle_, 0);
      if (accept_pause_timer_ != TimerWheel::kInvalidTimer) {
        reactor_.cancel(accept_pause_timer_);
      }
      accept_pause_timer_ = reactor_.schedule_after(100'000, [this] {
        accept_pause_timer_ = TimerWheel::kInvalidTimer;
        if (!closed_ && listener_handle_) {
          reactor_.update_fd(listener_handle_, EPOLLIN);
        }
      });
      return;
    }
    B2B_WARN("reactor: accept failed on ", self_);
    return;
  }
}

void ReactorTransport::adopt_conn(const ConnPtr& conn, bool inbound) {
  conn->socket.set_nodelay();
  std::weak_ptr<Conn> weak = conn;
  // The fd handler holds the connection weakly: the transport's conns_
  // table owns it, so killing the connection frees it even though the
  // reactor may briefly keep the handler in its dispatch graveyard.
  conn->handle = reactor_.add_fd(
      conn->socket.fd(), EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET,
      [this, weak](std::uint32_t events) {
        if (auto c = weak.lock()) on_conn_events(c, events);
      });
  if (!conn->handle) {
    conn->dead = true;
    conn->socket.close();
    return;
  }
  conns_.push_back(conn);
  if (inbound) {
    conn->deadline_timer = reactor_.schedule_after(
        config_.handshake_timeout_micros, [this, weak] {
          auto c = weak.lock();
          if (c && !c->dead && !c->handshaken) kill_conn(c);
        });
  }
}

void ReactorTransport::on_conn_events(const ConnPtr& conn,
                                      std::uint32_t events) {
  if (closed_ || conn->dead) return;
  if (conn->connecting) {
    if ((events & (EPOLLOUT | EPOLLERR | EPOLLHUP)) != 0) {
      finish_connect(conn);
    }
    if (conn->dead || conn->connecting) return;
    // Connected: fall through — the same readiness report may carry
    // the first readable bytes.
  }
  if ((events & EPOLLERR) != 0) {
    kill_conn(conn);
    return;
  }
  if ((events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP)) != 0) {
    read_conn(conn);
    if (conn->dead) return;
  }
  if ((events & EPOLLOUT) != 0) flush_conn(conn);
}

void ReactorTransport::finish_connect(const ConnPtr& conn) {
  int err = 0;
  socklen_t err_len = sizeof err;
  if (::getsockopt(conn->socket.fd(), SOL_SOCKET, SO_ERROR, &err,
                   &err_len) != 0 ||
      err != 0) {
    bump_backoff(conn->peer);
    kill_conn(conn);
    return;
  }
  conn->connecting = false;
  conn->socket.set_nodelay();
  if (conn->deadline_timer != TimerWheel::kInvalidTimer) {
    reactor_.cancel(conn->deadline_timer);
    conn->deadline_timer = TimerWheel::kInvalidTimer;
  }
  // The hello was queued at dial time; it leads the stream, then
  // everything already outstanding for this peer follows.
  flush_conn(conn);
  if (conn->dead) return;
  flush_outgoing_to(conn);
}

void ReactorTransport::read_conn(const ConnPtr& conn) {
  // Edge-triggered: drain until EAGAIN (or EOF/error).
  std::uint8_t chunk[64 * 1024];
  for (;;) {
    ssize_t n = ::recv(conn->socket.fd(), chunk, sizeof chunk, 0);
    if (n > 0) {
      conn->rbuf.append(chunk, static_cast<std::size_t>(n));
      if (!parse_frames(conn)) {
        kill_conn(conn);
        return;
      }
      if (conn->dead) return;
      continue;
    }
    if (n == 0) {  // orderly EOF (includes half-open teardown)
      kill_conn(conn);
      return;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    kill_conn(conn);
    return;
  }
}

bool ReactorTransport::parse_frames(const ConnPtr& conn) {
  // Frames that fail pre-delivery vetting (hostile length, bad magic,
  // out-of-order or misdirected handshake, unknown type, malformed
  // encoding) reset the connection and are counted here.
  auto reject = [this] {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.frames_rejected_auth;
  };
  for (;;) {
    if (conn->rbuf.size() < frame::kHeaderLen) return true;
    const std::uint8_t* head = conn->rbuf.data();
    frame::Header hdr;
    if (!frame::decode_header(head, config_.max_frame_bytes, &hdr)) {
      B2B_WARN("reactor: rejecting hostile frame length (", hdr.len,
               " bytes) on ", self_);
      reject();
      return false;
    }
    const std::uint32_t len = hdr.len;
    if (conn->rbuf.size() < frame::kHeaderLen + len) return true;  // partial
    Bytes payload(head + frame::kHeaderLen, head + frame::kHeaderLen + len);
    conn->rbuf.consume(frame::kHeaderLen + len);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stats_.bytes_received += frame::kHeaderLen + len;
    }
    if (store::crc32(payload) != hdr.crc) {
      // The framing itself can no longer be trusted; drop the
      // connection and let retransmission recover over a fresh one.
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.frames_dropped_crc;
      return false;
    }
    try {
      // Wire v3: past the handshake every frame on an authenticated
      // connection ends in an HMAC tag verified (constant time) BEFORE
      // any parsing — a forged or rewritten frame dies right here.
      BytesView body{payload};
      if (conn->handshaken && config_.auth.enabled) {
        if (!conn->keys.has_recv ||
            !verify_strip_mac(payload, conn->keys.recv, &body)) {
          B2B_WARN("reactor: bad frame MAC from ", conn->peer, " on ",
                   self_);
          reject();
          return false;
        }
      }
      wire::Decoder dec{body};
      const std::uint8_t type = dec.u8();
      if (!conn->handshaken) {
        if (type != frame::kHello) {  // hello is always first
          reject();
          return false;
        }
        frame::Hello hello = frame::decode_hello(dec);
        if (hello.magic != frame::kMagic ||
            hello.version != frame::kVersion) {
          reject();
          return false;
        }
        PartyId from{hello.from};
        if (PartyId{hello.to} != self_) {
          B2B_WARN("reactor: ", self_, " got a handshake meant for ",
                   hello.to);
          reject();
          return false;
        }
        // Auth vetting: mode mismatch (downgrade/strip), bad signature or
        // undecryptable key half all kill the connection before it can
        // carry a byte of data. On success the peer's half keys `recv`.
        if (!accept_hello(config_.auth, self_, hello, &conn->keys)) {
          B2B_WARN("reactor: rejecting unauthenticated/forged hello from ",
                   from, " on ", self_);
          reject();
          return false;
        }
        const bool reply = !conn->hello_sent;
        Bytes reply_hello;
        if (reply) {
          // Build (and key) the reply before register_handshake makes
          // this the peer's active connection: data frames sent on it
          // are MAC'd with the send key the reply derives.
          reply_hello = build_hello(config_.auth, self_, from, incarnation_,
                                    &conn->keys);
          if (reply_hello.empty()) {
            reject();  // auth on but no key for the peer: fail closed
            return false;
          }
        }
        register_handshake(conn, std::move(from), hello.incarnation);
        if (conn->dead) return true;  // killed while registering
        if (reply) {
          // An inbound connection answers with its hello only; frames
          // outstanding for the peer wait for the retransmit tick. The
          // dialler sends its own backlog right behind its hello, so the
          // acks for it must not queue behind ours: an intruder that
          // kills the connection after the first data frame in each
          // direction would otherwise cut off every ack on every
          // reconnect (a livelock with both backlogs stuck unacked).
          conn->hello_sent = true;
          queue_frame(conn, frame::frame_payload(reply_hello), 1,
                      /*force=*/true);
          flush_conn(conn);
          if (conn->dead) return true;
        }
      } else if (type == frame::kData) {
        const std::uint64_t frame_inc = dec.u64();
        const std::uint64_t seq = dec.u64();
        Bytes app_payload = dec.blob();
        dec.expect_done();
        if (!handle_data(conn, frame_inc, seq, std::move(app_payload))) {
          return false;
        }
        if (conn->dead) return true;
      } else if (type == frame::kAck) {
        const std::uint64_t frame_inc = dec.u64();
        const std::uint64_t seq = dec.u64();
        dec.expect_done();
        handle_ack(conn->peer, frame_inc, seq);
      } else {
        reject();
        return false;  // unknown frame type: corrupt or future peer
      }
    } catch (const CodecError&) {
      B2B_DEBUG("reactor: dropping connection with malformed frame on ",
                self_);
      reject();
      return false;
    }
  }
}

void ReactorTransport::queue_frame(const ConnPtr& conn, const Bytes& framed,
                                   int copies, bool force) {
  if (conn->dead) return;
  for (int i = 0; i < copies; ++i) {
    if (!force && conn->wbuf.size() >= config_.max_send_buffer_bytes) {
      // Backpressure: the frame stays in outgoing_ and the retransmit
      // timer re-offers it once EPOLLOUT has drained the buffer.
      return;
    }
    conn->wbuf.append(framed.data(), framed.size());
  }
}

void ReactorTransport::flush_conn(const ConnPtr& conn) {
  if (conn->dead || conn->connecting) return;
  std::size_t written = 0;
  bool fatal = false;
  while (!conn->wbuf.empty()) {
    ssize_t n = ::send(conn->socket.fd(), conn->wbuf.data(),
                       conn->wbuf.size(), MSG_NOSIGNAL);
    if (n > 0) {
      conn->wbuf.consume(static_cast<std::size_t>(n));
      written += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;  // kernel buffer full; EPOLLOUT resumes the flush
    }
    fatal = true;
    break;
  }
  if (written > 0) {
    std::lock_guard<std::mutex> lock(mutex_);
    stats_.bytes_sent += written;
  }
  if (fatal) kill_conn(conn);
}

void ReactorTransport::kill_conn(ConnPtr conn) {
  if (conn->dead) return;
  conn->dead = true;
  if (conn->deadline_timer != TimerWheel::kInvalidTimer) {
    reactor_.cancel(conn->deadline_timer);
    conn->deadline_timer = TimerWheel::kInvalidTimer;
  }
  if (conn->handle) {
    reactor_.remove_fd(conn->handle);
    conn->handle.reset();
  }
  conn->socket.close();
  auto it = active_.find(conn->peer);
  if (it != active_.end() && it->second == conn) active_.erase(it);
  auto pos = std::find(conns_.begin(), conns_.end(), conn);
  if (pos != conns_.end()) conns_.erase(pos);
}

void ReactorTransport::bump_backoff(const PartyId& to) {
  auto& backoff = backoff_[to];
  backoff.delay_micros =
      backoff.delay_micros == 0
          ? config_.reconnect_backoff_min_micros
          : std::min(backoff.delay_micros * 2,
                     config_.reconnect_backoff_max_micros);
  backoff.not_before_micros = reactor_.now_micros() + backoff.delay_micros;
}

void ReactorTransport::dial(const PartyId& to) {
  if (closed_) return;
  auto& backoff = backoff_[to];
  if (reactor_.now_micros() < backoff.not_before_micros) return;
  auto address = directory_->lookup(to);
  if (!address || address->port == 0) {
    bump_backoff(to);
    return;
  }
  bool in_progress = false;
  Socket socket = tcp_connect_start(address->host, address->port,
                                    &in_progress);
  if (!socket.valid()) {
    bump_backoff(to);
    return;
  }
  auto conn = std::make_shared<Conn>();
  conn->socket = std::move(socket);
  conn->peer = to;
  conn->hello_sent = true;
  conn->connecting = in_progress;
  // Our hello goes first on the stream; it sits in the send buffer
  // until the connect completes (the peer processes frames in order,
  // so it knows us before any payload). Building it also keys `send`,
  // so data frames can be MAC'd the moment the hello is queued.
  Bytes hello = build_hello(config_.auth, self_, to, incarnation_,
                            &conn->keys);
  if (hello.empty()) {
    bump_backoff(to);  // auth on but no key for the peer: fail closed
    return;
  }
  queue_frame(conn, frame::frame_payload(hello), 1, /*force=*/true);
  adopt_conn(conn, /*inbound=*/false);
  if (conn->dead) {
    bump_backoff(to);
    return;
  }
  // Usable for sending right away; a handshaken connection registered
  // in the meantime keeps precedence.
  active_.try_emplace(to, conn);
  if (in_progress) {
    std::weak_ptr<Conn> weak = conn;
    conn->deadline_timer = reactor_.schedule_after(
        config_.connect_timeout_micros, [this, weak] {
          auto c = weak.lock();
          if (c && !c->dead && c->connecting) {
            bump_backoff(c->peer);
            kill_conn(c);
          }
        });
  } else {
    finish_connect(conn);
  }
}

void ReactorTransport::register_handshake(const ConnPtr& conn, PartyId peer,
                                          std::uint64_t peer_incarnation) {
  conn->peer = std::move(peer);
  conn->peer_incarnation = peer_incarnation;
  conn->handshaken = true;
  if (conn->deadline_timer != TimerWheel::kInvalidTimer) {
    reactor_.cancel(conn->deadline_timer);
    conn->deadline_timer = TimerWheel::kInvalidTimer;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = peer_incarnation_.find(conn->peer);
    if (it == peer_incarnation_.end() ||
        it->second != peer_incarnation) {
      // A new incarnation means the peer's sequence numbers restarted:
      // drop the old dedup window (DESIGN.md §7 delegates cross-restart
      // dedup to the coordinator journal).
      peer_incarnation_[conn->peer] = peer_incarnation;
      delivered_.erase(conn->peer);
    }
  }
  // Latest handshake wins: an inbound connection from a restarted peer
  // supersedes whatever we were using.
  active_[conn->peer] = conn;
  auto& backoff = backoff_[conn->peer];
  backoff.delay_micros = 0;
  backoff.not_before_micros = 0;
  const bool reconnect = backoff.ever_connected;
  backoff.ever_connected = true;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.connects;
    if (reconnect) ++stats_.reconnects;
  }
  // The caller flushes outstanding frames once the handshake exchange
  // on this connection is fully queued (hello reply first on the wire).
}

bool ReactorTransport::handle_data(const ConnPtr& conn, std::uint64_t frame_inc,
                                   std::uint64_t seq, Bytes payload) {
  bool deliver = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // Crashed (set_alive(false)): drop un-acked, so the peer keeps
    // retransmitting into the downtime and delivery resumes on recovery.
    if (!alive_) return true;
    // A data frame whose incarnation is not the one this connection
    // handshook is proof of splicing — a peer never changes incarnation
    // mid-connection. Kill the connection before the alien sequence
    // number can poison the dedup window (wire v2, DESIGN.md §11); the
    // peer reconnects with a fresh handshake and retransmits.
    if (frame_inc != conn->peer_incarnation) {
      ++stats_.replays_suppressed;
      return false;
    }
    // Frames from a superseded incarnation of the peer: that process is
    // gone; acking or delivering against the fresh dedup window would
    // corrupt the once-only bookkeeping.
    auto it = peer_incarnation_.find(conn->peer);
    if (it == peer_incarnation_.end() ||
        it->second != conn->peer_incarnation) {
      ++stats_.replays_suppressed;
      return true;
    }
    ++stats_.acks_sent;
    if (delivered_[conn->peer].mark(seq)) {
      deliver = true;
      ++stats_.app_delivered;
      ++dispatching_;
    } else {
      ++stats_.duplicates_suppressed;
    }
  }
  Bytes ack = frame::encode_ack(frame_inc, seq);
  if (config_.auth.enabled) append_mac(ack, conn->keys.send);
  queue_frame(conn, frame::frame_payload(ack), 1, /*force=*/true);
  flush_conn(conn);
  if (!deliver) return true;
  // Deliveries run off-loop: the handler re-enters the coordinator
  // (RSA, journal fsync) and must never block socket I/O. The strand
  // keeps them FIFO and one-at-a-time (Transport contract); dispatching_
  // was raised under mutex_ so set_handler_sync fences queued ones too.
  delivery_strand_->post(
      [this, peer = conn->peer, payload = std::move(payload)]() mutable {
        Handler handler;
        {
          std::lock_guard<std::mutex> lock(mutex_);
          handler = handler_;
        }
        if (handler) handler(peer, payload);
        {
          std::lock_guard<std::mutex> lock(mutex_);
          --dispatching_;
        }
        dispatch_cv_.notify_all();
      });
  return true;
}

void ReactorTransport::handle_ack(const PartyId& from, std::uint64_t frame_inc,
                                  std::uint64_t seq) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!alive_) return;
  // An ack retires outgoing_[seq] only if it echoes our *current*
  // incarnation: a recorded ack replayed across our restart (or spliced
  // from another stream) must not mark a live message delivered.
  if (frame_inc != incarnation_) {
    ++stats_.replays_suppressed;
    return;
  }
  outgoing_.erase({from, seq});
}

void ReactorTransport::flush_outgoing_to(const ConnPtr& conn) {
  if (conn->dead || conn->connecting) return;
  const PartyId& peer = conn->peer;
  if (config_.auth.enabled && !conn->keys.has_send) return;
  struct Offer {
    Bytes framed;
    int copies;
  };
  std::vector<Offer> frames;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!alive_) return;
    for (auto it = outgoing_.lower_bound({peer, 0});
         it != outgoing_.end() && it->first.first == peer; ++it) {
      // Each wire write is a fresh fault sample: a frame dropped here
      // stays in outgoing_ for the retransmit tick.
      Bytes encoded = frame::encode_data(incarnation_, it->first.second,
                                         it->second.payload);
      if (config_.auth.enabled) append_mac(encoded, conn->keys.send);
      frames.push_back(
          {frame::frame_payload(encoded), sample_faults_locked()});
    }
  }
  for (const Offer& offer : frames) {
    queue_frame(conn, offer.framed, offer.copies, false);
  }
  if (!frames.empty()) flush_conn(conn);
}

void ReactorTransport::retransmit_tick() {
  if (closed_) return;
  struct Item {
    PartyId to;
    std::uint64_t seq;
    Bytes payload;
    int copies;
  };
  std::vector<Item> items;
  std::vector<PartyId> failed;
  bool alive;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    alive = alive_;
    for (auto it = outgoing_.begin(); it != outgoing_.end();) {
      auto& [key, out] = *it;
      if (out.attempts >= config_.max_retransmits) {
        B2B_WARN("reactor: giving up on ", self_, " -> ", key.first,
                 " seq ", key.second);
        failed.push_back(key.first);
        it = outgoing_.erase(it);
        continue;
      }
      ++out.attempts;
      ++stats_.retransmissions;
      // Encoding happens per resolved connection below: the MAC key is
      // a property of the conn, not of the queued message.
      items.push_back({key.first, key.second, out.payload,
                       alive ? sample_faults_locked() : 0});
      ++it;
    }
    if (!failed.empty()) ++dispatching_;  // one failure batch in flight
  }
  if (alive) {
    std::vector<ConnPtr> touched;
    for (auto& item : items) {
      auto it = active_.find(item.to);
      if (it == active_.end()) {
        dial(item.to);
        continue;  // flushed once the dial connects
      }
      if (it->second->connecting) continue;
      if (config_.auth.enabled && !it->second->keys.has_send) continue;
      Bytes encoded =
          frame::encode_data(incarnation_, item.seq, item.payload);
      if (config_.auth.enabled) append_mac(encoded, it->second->keys.send);
      queue_frame(it->second, frame::frame_payload(encoded), item.copies,
                  false);
      if (std::find(touched.begin(), touched.end(), it->second) ==
          touched.end()) {
        touched.push_back(it->second);
      }
    }
    for (auto& conn : touched) flush_conn(conn);
  }
  if (!failed.empty()) {
    // Off-loop like deliveries: the callback re-enters the coordinator.
    delivery_strand_->post([this, failed = std::move(failed)] {
      DeliveryFailureHandler handler;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        handler = failure_handler_;
      }
      if (handler) {
        for (const PartyId& to : failed) handler(to);
      }
      {
        std::lock_guard<std::mutex> lock(mutex_);
        --dispatching_;
      }
      dispatch_cv_.notify_all();
    });
  }
  retransmit_timer_ = reactor_.schedule_after(
      config_.retransmit_interval_micros, [this] { retransmit_tick(); });
}

// ---------------------------------------------------------------------------
// ReactorRuntime
// ---------------------------------------------------------------------------

ReactorRuntime::ReactorRuntime(const Options& options)
    : options_(options),
      directory_(options.directory ? options.directory
                                   : std::make_shared<PeerDirectory>()),
      reactor_(options.reactor),
      pool_(std::make_shared<TaskPool>(options.workers)),
      clock_(reactor_, pool_),
      executor_([this] { return quiescent(); }, options.executor) {}

ReactorRuntime::~ReactorRuntime() { shutdown(); }

void ReactorRuntime::shutdown() {
  if (shutdown_done_) return;
  shutdown_done_ = true;
  // Transports first (their teardown runs on the still-live loop), then
  // the loop thread, then the pool — the reverse of the data flow, so
  // nothing delivers into a dead layer.
  for (auto& transport : transports_) transport->shutdown();
  reactor_.shutdown();
  pool_->shutdown();
}

Transport& ReactorRuntime::add_party(const PartyId& id) {
  std::string host = options_.default_host;
  std::uint16_t port = 0;
  if (auto address = directory_->lookup(id)) {
    host = address->host;
    port = address->port;
  }
  ReactorTransport::Config config = options_.transport;
  config.faults = options_.faults;
  config.fault_seed =
      options_.seed ^ (0x7265'6100ULL + std::hash<std::string>{}(id.str()));
  if (options_.wire_auth) config.auth = options_.wire_auth(id);
  transports_.push_back(std::make_unique<ReactorTransport>(
      id, host, port, directory_, config, reactor_, pool_));
  // Write the bound port back (resolves port 0) so later parties in the
  // same directory can dial this one.
  directory_->set(id, PeerAddress{host, transports_.back()->port()});
  return *transports_.back();
}

ReactorTransport* ReactorRuntime::transport(const PartyId& id) {
  for (auto& transport : transports_) {
    if (transport->self() == id) return transport.get();
  }
  return nullptr;
}

void ReactorRuntime::set_alive(const PartyId& id, bool alive) {
  ReactorTransport* found = transport(id);
  if (found == nullptr) {
    throw Error("reactor set_alive: unknown party " + id.str());
  }
  found->set_alive(alive);
}

TcpFabricStats ReactorRuntime::fabric_stats() const {
  TcpFabricStats total;
  for (const auto& transport : transports_) {
    TcpFabricStats one = transport->fabric_stats();
    total.frames_dropped_injected += one.frames_dropped_injected;
    total.frames_duplicated_injected += one.frames_duplicated_injected;
  }
  return total;
}

bool ReactorRuntime::quiescent() const {
  for (const auto& transport : transports_) {
    if (!transport->quiescent()) return false;
  }
  for (const auto& probe : quiescence_probes_) {
    if (!probe()) return false;
  }
  return true;
}

}  // namespace b2b::net
