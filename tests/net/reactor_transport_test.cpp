// ReactorTransport: the §4.2 delivery contract (eventual once-only
// delivery) over non-blocking sockets on one epoll loop — the wire
// protocol and its byte-stream failure modes (torn, corrupt, split,
// replayed and spliced frames, peer resets and restarts), the wire v3
// must-fail games, plus the fan-in shapes only an event loop meets:
// hundreds of simultaneous dials into one acceptor, write backpressure
// (kernel buffer full → EPOLLOUT resume), restart churn, and fd
// exhaustion at accept.
//
// The contract cases run twice. As ReactorTransportTest every party
// shares one loop and pool, as a Federation's parties do. As
// TcpTransportTest each party gets a loop and pool of its own, so the
// parties share nothing but the directory and TCP, as separately
// deployed nodes do; a restarted party comes back on a fresh loop. The
// TcpRuntimeTest cases do the same with whole ReactorRuntime bundles.
#include "net/reactor_runtime.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "crypto/sha256.hpp"
#include "net/frame.hpp"
#include "net/intruder_proxy.hpp"
#include "net/wire_auth.hpp"
#include "store/crc32.hpp"
#include "tests/support/test_keys.hpp"
#include "wire/codec.hpp"

namespace b2b::net {
namespace {

using namespace std::chrono_literals;

/// Spin until `predicate` holds or `timeout` elapses; true on success.
bool wait_for(const std::function<bool()>& predicate,
              std::chrono::milliseconds timeout = 10'000ms) {
  auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    if (predicate()) return true;
    std::this_thread::sleep_for(1ms);
  }
  return predicate();
}

/// A thread-safe payload sink (the handler runs on a pool worker).
struct Sink {
  mutable std::mutex mutex;
  std::vector<Bytes> received;

  Transport::Handler handler() {
    return [this](const PartyId&, const Bytes& payload) {
      std::lock_guard<std::mutex> lock(mutex);
      received.push_back(payload);
    };
  }

  std::size_t count() const {
    std::lock_guard<std::mutex> lock(mutex);
    return received.size();
  }

  std::multiset<Bytes> contents() const {
    std::lock_guard<std::mutex> lock(mutex);
    return {received.begin(), received.end()};
  }
};

/// Where a fixture's transports run.
enum class Topology {
  kSharedLoop,    // one loop and one pool for every party
  kLoopPerParty,  // a fresh loop and pool for every transport made
};

/// Transports sharing one directory on localhost, on one loop or on a
/// loop each (see Topology).
struct Fixture {
  struct Loop {
    Reactor reactor;
    std::shared_ptr<TaskPool> pool = std::make_shared<TaskPool>(2);
  };

  Topology topology;
  std::shared_ptr<PeerDirectory> directory =
      std::make_shared<PeerDirectory>();
  Reactor reactor;
  std::shared_ptr<TaskPool> pool = std::make_shared<TaskPool>(4);
  std::vector<std::unique_ptr<Loop>> own_loops;  // kLoopPerParty only
  ReactorTransport::Config config;

  explicit Fixture(Topology topology = Topology::kSharedLoop)
      : topology(topology) {
    config.retransmit_interval_micros = 5'000;  // keep tests brisk
    config.reconnect_backoff_min_micros = 5'000;
    config.reconnect_backoff_max_micros = 50'000;
  }

  std::unique_ptr<ReactorTransport> make(const std::string& name,
                                         std::uint16_t port = 0) {
    return make_with(name, port, config);
  }

  /// Like make(), with wire v3 session auth on (test-pool PKI).
  std::unique_ptr<ReactorTransport> make_auth(const std::string& name,
                                              std::uint16_t port = 0);

  std::unique_ptr<ReactorTransport> make_with(
      const std::string& name, std::uint16_t port,
      const ReactorTransport::Config& transport_config) {
    Reactor* loop = &reactor;
    std::shared_ptr<TaskPool> loop_pool = pool;
    if (topology == Topology::kLoopPerParty) {
      own_loops.push_back(std::make_unique<Loop>());
      loop = &own_loops.back()->reactor;
      loop_pool = own_loops.back()->pool;
    }
    auto transport = std::make_unique<ReactorTransport>(
        PartyId{name}, "127.0.0.1", port, directory, transport_config, *loop,
        loop_pool);
    directory->set(PartyId{name},
                   PeerAddress{"127.0.0.1", transport->port()});
    return transport;
  }
};

/// Defines one contract case as two tests over `fx`:
/// ReactorTransportTest.<reactor_name> on a shared loop and
/// TcpTransportTest.<tcp_name> with a loop per party.
#define TRANSPORT_CASE_NAMED(reactor_name, tcp_name) \
  void reactor_name##Case(Fixture& fx);               \
  TEST(ReactorTransportTest, reactor_name) {          \
    Fixture fx{Topology::kSharedLoop};                \
    reactor_name##Case(fx);                           \
  }                                                   \
  TEST(TcpTransportTest, tcp_name) {                  \
    Fixture fx{Topology::kLoopPerParty};              \
    reactor_name##Case(fx);                           \
  }                                                   \
  void reactor_name##Case(Fixture& fx)

#define TRANSPORT_CASE(name) TRANSPORT_CASE_NAMED(name, name)

// --- wire-format helpers for the raw-socket tests --------------------------

Bytes frame_with_crc(const Bytes& payload, std::uint32_t crc) {
  Bytes framed(8 + payload.size());
  for (int i = 0; i < 4; ++i) {
    framed[i] = static_cast<std::uint8_t>(payload.size() >> (8 * i));
    framed[4 + i] = static_cast<std::uint8_t>(crc >> (8 * i));
  }
  std::copy(payload.begin(), payload.end(), framed.begin() + 8);
  return framed;
}

Bytes make_frame(const Bytes& payload) {
  return frame_with_crc(payload, store::crc32(payload));
}

Bytes hello_payload(const std::string& from, const std::string& to,
                    std::uint64_t incarnation) {
  return frame::encode_hello(PartyId{from}, PartyId{to}, incarnation);
}

/// Wire v2: data frames carry the sender incarnation their seq lives in.
Bytes data_payload(std::uint64_t incarnation, std::uint64_t seq,
                   const Bytes& app) {
  return frame::encode_data(incarnation, seq, app);
}

bool send_bytes(Socket& socket, const Bytes& bytes) {
  return socket.send_all(bytes.data(), bytes.size());
}

/// Read one [len][crc][payload] frame off a raw socket (blocking).
bool recv_frame(Socket& socket, Bytes* payload) {
  std::uint8_t header[8];
  if (!socket.recv_exact(header, sizeof header)) return false;
  frame::Header hdr;
  if (!frame::decode_header(header, frame::kMaxFrameLen, &hdr)) return false;
  payload->resize(hdr.len);
  return hdr.len == 0 || socket.recv_exact(payload->data(), hdr.len);
}

// --- wire v3 session-auth helpers (DESIGN.md §11) ---------------------------

/// A fixed roster over the shared deterministic test keypairs.
std::size_t roster_index(const std::string& name) {
  if (name == "a") return 0;
  if (name == "b") return 1;
  return 2;  // the third party "x" the raw-socket games play
}

WireAuth test_auth(const std::string& self) {
  WireAuth auth;
  auth.enabled = true;
  // The pool keys are process-lifetime statics; alias, don't own.
  auth.private_key = std::shared_ptr<const crypto::RsaPrivateKey>(
      std::shared_ptr<const void>{},
      &crypto::test::shared_test_key(roster_index(self)));
  auth.peer_key = [](const PartyId& peer) {
    return std::make_shared<crypto::RsaPublicKey>(
        crypto::test::shared_test_key(roster_index(peer.str())).public_key());
  };
  return auth;
}

std::unique_ptr<ReactorTransport> Fixture::make_auth(const std::string& name,
                                                     std::uint16_t port) {
  ReactorTransport::Config auth_config = config;
  auth_config.auth = test_auth(name);
  return make_with(name, port, auth_config);
}

/// Send `from`'s signed, key-carrying hello on a raw socket and return the
/// derived send-direction keys. The games below use a *real* roster key —
/// they model forgery without the session key, not key theft.
ConnKeys raw_auth_handshake(Socket& raw, const std::string& from,
                            const std::string& to, std::uint64_t incarnation) {
  ConnKeys keys;
  Bytes hello = build_hello(test_auth(from), PartyId{from}, PartyId{to},
                            incarnation, &keys);
  EXPECT_FALSE(hello.empty());
  EXPECT_TRUE(send_bytes(raw, make_frame(hello)));
  return keys;
}

// --- transport-level behaviour ---------------------------------------------

TRANSPORT_CASE(DeliversPayloadsBetweenParties) {
  auto a = fx.make("a");
  auto b = fx.make("b");
  Sink a_sink, b_sink;
  a->set_handler(a_sink.handler());
  b->set_handler(b_sink.handler());

  std::multiset<Bytes> a_want, b_want;
  for (int i = 0; i < 10; ++i) {
    Bytes to_b{static_cast<std::uint8_t>(i)};
    Bytes to_a{static_cast<std::uint8_t>(100 + i)};
    a->send(PartyId{"b"}, to_b);
    b->send(PartyId{"a"}, to_a);
    b_want.insert(std::move(to_b));
    a_want.insert(std::move(to_a));
  }

  ASSERT_TRUE(
      wait_for([&] { return a_sink.count() == 10 && b_sink.count() == 10; }));
  EXPECT_EQ(a_sink.contents(), a_want);
  EXPECT_EQ(b_sink.contents(), b_want);
  ASSERT_TRUE(wait_for([&] { return a->unacked() == 0 && b->unacked() == 0; }));

  Transport::Stats a_stats = a->stats();
  Transport::Stats b_stats = b->stats();
  EXPECT_EQ(a_stats.app_sent, 10u);
  EXPECT_EQ(b_stats.app_delivered, 10u);
  EXPECT_GT(a_stats.bytes_sent, 0u);
  EXPECT_GT(a_stats.bytes_received, 0u);
  EXPECT_GE(a_stats.connects, 1u);
  EXPECT_GE(b_stats.connects, 1u);
  EXPECT_EQ(a_stats.frames_dropped_crc, 0u);
  // The loop-level counters are live on this runtime (satellite of the
  // Stats seam): the loop woke up, and the wheel fires a retransmit
  // tick within one interval of now.
  EXPECT_GT(a_stats.epoll_wakeups, 0u);
  EXPECT_TRUE(wait_for([&] { return a->stats().timers_fired > 0; }));
}

TRANSPORT_CASE(RetransmitsThroughInjectedLoss) {
  fx.config.faults.drop_probability = 0.5;
  fx.config.fault_seed = 2;
  auto a = fx.make("a");
  fx.config.faults.drop_probability = 0.0;
  auto b = fx.make("b");
  Sink sink;
  b->set_handler(sink.handler());

  for (int i = 0; i < 50; ++i) {
    a->send(PartyId{"b"}, Bytes{static_cast<std::uint8_t>(i)});
  }

  ASSERT_TRUE(wait_for([&] { return sink.count() == 50; }));
  ASSERT_TRUE(wait_for([&] { return a->unacked() == 0; }));
  std::multiset<Bytes> want;
  for (int i = 0; i < 50; ++i) {
    want.insert(Bytes{static_cast<std::uint8_t>(i)});
  }
  EXPECT_EQ(sink.contents(), want);
  EXPECT_GT(a->stats().retransmissions, 0u);
  EXPECT_GT(a->fabric_stats().frames_dropped_injected, 0u);
}

TRANSPORT_CASE(MasksDuplicationToOnceOnlyDelivery) {
  fx.config.faults.duplicate_probability = 1.0;
  fx.config.fault_seed = 3;
  auto a = fx.make("a");
  fx.config.faults.duplicate_probability = 0.0;
  auto b = fx.make("b");
  Sink sink;
  b->set_handler(sink.handler());

  for (int i = 0; i < 20; ++i) {
    a->send(PartyId{"b"}, Bytes{static_cast<std::uint8_t>(i)});
  }

  ASSERT_TRUE(wait_for([&] { return a->unacked() == 0; }));
  ASSERT_TRUE(wait_for([&] { return b->quiescent(); }));
  EXPECT_EQ(sink.count(), 20u);  // exactly once each, never twice
  EXPECT_GT(a->fabric_stats().frames_duplicated_injected, 0u);
  EXPECT_GT(b->stats().duplicates_suppressed, 0u);
}

TRANSPORT_CASE(CrashRecoveryKeepsChannelState) {
  auto a = fx.make("a");
  auto b = fx.make("b");
  Sink sink;
  b->set_handler(sink.handler());

  b->set_alive(false);
  a->send(PartyId{"b"}, Bytes{42});
  std::this_thread::sleep_for(30ms);  // several retransmit intervals
  EXPECT_EQ(sink.count(), 0u);
  EXPECT_EQ(a->unacked(), 1u);  // still queued: the channel persists

  b->set_alive(true);
  ASSERT_TRUE(wait_for([&] { return sink.count() == 1; }));
  EXPECT_EQ(sink.contents(), std::multiset<Bytes>{Bytes{42}});
  ASSERT_TRUE(wait_for([&] { return a->unacked() == 0; }));
}

TRANSPORT_CASE(QuiescenceReflectsOutstandingTraffic) {
  auto a = fx.make("a");
  auto b = fx.make("b");
  a->set_handler([](const PartyId&, const Bytes&) {});
  b->set_handler([](const PartyId&, const Bytes&) {});

  EXPECT_TRUE(a->quiescent());  // nothing ever sent

  // With the peer down, the un-acked message keeps `a` non-quiescent.
  b->set_alive(false);
  a->send(PartyId{"b"}, Bytes{1});
  EXPECT_FALSE(a->quiescent());
  std::this_thread::sleep_for(30ms);  // several retransmit intervals
  EXPECT_FALSE(a->quiescent());

  // Recovery drains the channel; both sides settle.
  b->set_alive(true);
  ASSERT_TRUE(wait_for([&] { return a->quiescent() && b->quiescent(); }));
  EXPECT_EQ(a->unacked(), 0u);
}

TRANSPORT_CASE(ReconnectsToRestartedPeerWithFreshIncarnation) {
  auto a = fx.make("a");
  auto b = fx.make("b");
  std::uint16_t b_port = b->port();
  Sink sink;
  b->set_handler(sink.handler());

  a->send(PartyId{"b"}, Bytes{1});
  ASSERT_TRUE(wait_for([&] { return sink.count() == 1; }));

  // Whole-"process" restart of b on the same loop: the transport dies
  // (dedup state and connections lost) and a new instance binds the
  // same port with a new incarnation.
  std::uint64_t old_incarnation = b->incarnation();
  b.reset();
  a->send(PartyId{"b"}, Bytes{2});  // queued while the peer is down
  b = fx.make("b", b_port);
  EXPECT_NE(b->incarnation(), old_incarnation);
  Sink sink2;
  b->set_handler(sink2.handler());

  ASSERT_TRUE(wait_for([&] { return sink2.count() == 1; }));
  EXPECT_EQ(sink2.contents(), std::multiset<Bytes>{Bytes{2}});
  ASSERT_TRUE(wait_for([&] { return a->unacked() == 0; }));
  Transport::Stats a_stats = a->stats();
  EXPECT_GE(a_stats.connects, 2u);
  EXPECT_GE(a_stats.reconnects, 1u);

  Sink a_sink;
  a->set_handler(a_sink.handler());
  b->send(PartyId{"a"}, Bytes{3});
  ASSERT_TRUE(wait_for([&] { return a_sink.count() == 1; }));
}

// --- raw-socket byte-stream abuse ------------------------------------------

TRANSPORT_CASE(TornFrameIsDroppedAndChannelRecovers) {
  auto a = fx.make("a");
  auto b = fx.make("b");
  Sink sink;
  b->set_handler(sink.handler());

  // A client that introduces itself, then dies mid-frame: the header
  // claims 100 bytes, only 3 arrive before the close (half-open torn).
  Socket raw = tcp_connect("127.0.0.1", b->port(), 1'000'000);
  ASSERT_TRUE(raw.valid());
  ASSERT_TRUE(send_bytes(raw, make_frame(hello_payload("torn", "b", 7))));
  Bytes truncated = make_frame(data_payload(7, 0, Bytes(100, 0xab)));
  truncated.resize(8 + 3);
  ASSERT_TRUE(send_bytes(raw, truncated));
  raw.close();

  a->send(PartyId{"b"}, Bytes{5});
  ASSERT_TRUE(wait_for([&] { return sink.count() == 1; }));
  EXPECT_EQ(sink.contents(), std::multiset<Bytes>{Bytes{5}});
  EXPECT_EQ(b->stats().frames_dropped_crc, 0u);  // torn ≠ corrupt
}

TRANSPORT_CASE(CorruptCrcIsCountedAndNotDelivered) {
  auto b = fx.make("b");
  Sink sink;
  b->set_handler(sink.handler());

  Socket raw = tcp_connect("127.0.0.1", b->port(), 1'000'000);
  ASSERT_TRUE(raw.valid());
  ASSERT_TRUE(send_bytes(raw, make_frame(hello_payload("evil", "b", 9))));
  Bytes payload = data_payload(9, 0, Bytes{1, 2, 3});
  ASSERT_TRUE(
      send_bytes(raw, frame_with_crc(payload, store::crc32(payload) ^ 1)));

  ASSERT_TRUE(
      wait_for([&] { return b->stats().frames_dropped_crc == 1; }));
  std::this_thread::sleep_for(20ms);
  EXPECT_EQ(sink.count(), 0u);
  EXPECT_EQ(b->stats().app_delivered, 0u);
}

TRANSPORT_CASE(SplitWritesReassembleToExactlyOneDelivery) {
  auto b = fx.make("b");
  Sink sink;
  b->set_handler(sink.handler());

  Socket raw = tcp_connect("127.0.0.1", b->port(), 1'000'000);
  ASSERT_TRUE(raw.valid());
  raw.set_nodelay();
  Bytes stream = make_frame(hello_payload("slow", "b", 11));
  Bytes data = make_frame(data_payload(11, 0, Bytes{9, 8, 7}));
  stream.insert(stream.end(), data.begin(), data.end());
  // One byte per write: every read on the receiver side is short, so the
  // per-connection stream buffer reassembles across many EPOLLIN edges.
  for (std::uint8_t byte : stream) {
    ASSERT_TRUE(raw.send_all(&byte, 1));
    std::this_thread::sleep_for(100us);
  }
  ASSERT_TRUE(send_bytes(raw, data));  // replay: suppressed by dedup

  ASSERT_TRUE(wait_for([&] { return sink.count() == 1; }));
  ASSERT_TRUE(
      wait_for([&] { return b->stats().duplicates_suppressed == 1; }));
  EXPECT_EQ(sink.contents(), (std::multiset<Bytes>{Bytes{9, 8, 7}}));
  EXPECT_EQ(b->stats().app_delivered, 1u);
}

TRANSPORT_CASE(PeerResetMidStreamNeverDuplicatesDelivery) {
  auto a = fx.make("a");
  auto b = fx.make("b");
  Sink sink;
  b->set_handler(sink.handler());

  {
    Socket raw = tcp_connect("127.0.0.1", b->port(), 1'000'000);
    ASSERT_TRUE(raw.valid());
    ASSERT_TRUE(send_bytes(raw, make_frame(hello_payload("rst", "b", 13))));
    ASSERT_TRUE(send_bytes(raw, make_frame(data_payload(13, 0, Bytes{1}))));
    ASSERT_TRUE(wait_for([&] { return sink.count() == 1; }));
    Bytes partial = make_frame(data_payload(13, 1, Bytes{2}));
    partial.resize(10);
    ASSERT_TRUE(send_bytes(raw, partial));
    raw.set_linger_reset();
    raw.close();  // RST races the partial frame through the kernel
  }

  Socket again = tcp_connect("127.0.0.1", b->port(), 1'000'000);
  ASSERT_TRUE(again.valid());
  ASSERT_TRUE(send_bytes(again, make_frame(hello_payload("rst", "b", 13))));
  ASSERT_TRUE(send_bytes(again, make_frame(data_payload(13, 0, Bytes{1}))));
  ASSERT_TRUE(send_bytes(again, make_frame(data_payload(13, 1, Bytes{2}))));

  ASSERT_TRUE(wait_for([&] { return sink.count() == 2; }));
  std::this_thread::sleep_for(20ms);
  EXPECT_EQ(sink.count(), 2u);  // seq 0 delivered once, not twice
  EXPECT_EQ(sink.contents(), (std::multiset<Bytes>{Bytes{1}, Bytes{2}}));
  EXPECT_GE(b->stats().duplicates_suppressed, 1u);

  a->send(PartyId{"b"}, Bytes{3});
  ASSERT_TRUE(wait_for([&] { return sink.count() == 3; }));
}

TEST(ReactorTransportTest, FatalWriteOnSendPathKillsConnectionAndRedials) {
  // The send path flushes the connection it finds in the active table. A
  // write that fails there kills that connection from inside the flush;
  // the transport must survive it and redeliver on a fresh connection.
  Fixture fx;
  fx.config.retransmit_interval_micros = 10'000'000;  // only sends write
  auto a = fx.make("a");
  Listener listener = Listener::open("127.0.0.1", 0);
  fx.directory->set(PartyId{"x"}, PeerAddress{"127.0.0.1", listener.port()});

  a->send(PartyId{"x"}, Bytes{1});
  Bytes frame_bytes;
  {
    Socket first = listener.accept();
    ASSERT_TRUE(first.valid());
    first.set_recv_timeout(5'000'000);
    ASSERT_TRUE(recv_frame(first, &frame_bytes));  // hello
    ASSERT_TRUE(recv_frame(first, &frame_bytes));  // seq 0: connected

    // Hold the loop while the peer resets. Posted tasks run ahead of the
    // socket events of the same wakeup, so the queued send is the first
    // to meet the reset: its write fails.
    std::promise<void> entered;
    std::promise<void> release;
    fx.reactor.post([&entered, held = release.get_future().share()] {
      entered.set_value();
      held.wait();
    });
    entered.get_future().wait();
    a->send(PartyId{"x"}, Bytes{2});
    first.set_linger_reset();
    first.close();
    std::this_thread::sleep_for(50ms);
    release.set_value();
  }

  a->send(PartyId{"x"}, Bytes{3});  // dials again
  Socket second = listener.accept();
  ASSERT_TRUE(second.valid());
  second.set_recv_timeout(5'000'000);
  ASSERT_TRUE(recv_frame(second, &frame_bytes));  // hello
  std::vector<Bytes> delivered;
  while (delivered.size() < 3 && recv_frame(second, &frame_bytes)) {
    wire::Decoder dec{frame_bytes};
    ASSERT_EQ(dec.u8(), frame::kData);
    dec.u64();  // incarnation
    EXPECT_EQ(dec.u64(), delivered.size());
    delivered.push_back(dec.blob());
  }
  EXPECT_EQ(delivered, (std::vector<Bytes>{Bytes{1}, Bytes{2}, Bytes{3}}));
  listener.stop();
}

TRANSPORT_CASE(ReplayedAndReorderedFramesStayOnceOnly) {
  auto b = fx.make("b");
  Sink sink;
  b->set_handler(sink.handler());

  Socket raw = tcp_connect("127.0.0.1", b->port(), 1'000'000);
  ASSERT_TRUE(raw.valid());
  ASSERT_TRUE(send_bytes(raw, make_frame(hello_payload("replay", "b", 17))));
  for (std::uint64_t seq : {2u, 0u, 1u, 1u, 0u, 2u}) {
    ASSERT_TRUE(send_bytes(
        raw,
        make_frame(
            data_payload(17, seq, Bytes{static_cast<std::uint8_t>(seq)}))));
  }

  // The handler runs on a pool worker: the last duplicate can be counted
  // before the deliveries it follows have reached the sink.
  ASSERT_TRUE(wait_for([&] {
    return b->stats().duplicates_suppressed == 3 && sink.count() >= 3;
  }));
  EXPECT_EQ(sink.count(), 3u);
  EXPECT_EQ(sink.contents(),
            (std::multiset<Bytes>{Bytes{0}, Bytes{1}, Bytes{2}}));
}

TRANSPORT_CASE(StaleIncarnationFramesAreDropped) {
  auto b = fx.make("b");
  Sink sink;
  b->set_handler(sink.handler());

  Socket old_conn = tcp_connect("127.0.0.1", b->port(), 1'000'000);
  ASSERT_TRUE(old_conn.valid());
  ASSERT_TRUE(send_bytes(old_conn, make_frame(hello_payload("x", "b", 1))));
  ASSERT_TRUE(send_bytes(old_conn, make_frame(data_payload(1, 0, Bytes{10}))));
  ASSERT_TRUE(wait_for([&] { return sink.count() == 1; }));

  Socket new_conn = tcp_connect("127.0.0.1", b->port(), 1'000'000);
  ASSERT_TRUE(new_conn.valid());
  ASSERT_TRUE(send_bytes(new_conn, make_frame(hello_payload("x", "b", 2))));
  ASSERT_TRUE(send_bytes(new_conn, make_frame(data_payload(2, 0, Bytes{20}))));
  ASSERT_TRUE(wait_for([&] { return sink.count() == 2; }));

  ASSERT_TRUE(send_bytes(old_conn, make_frame(data_payload(1, 1, Bytes{11}))));
  std::this_thread::sleep_for(30ms);
  EXPECT_EQ(sink.count(), 2u);
  EXPECT_EQ(sink.contents(), (std::multiset<Bytes>{Bytes{10}, Bytes{20}}));
  EXPECT_GE(b->stats().replays_suppressed, 1u);
}

// --- hostile length prefixes (DESIGN.md §11) --------------------------------

TRANSPORT_CASE(HostileLengthPrefixIsRejectedAndConnectionReset) {
  auto b = fx.make("b");
  Sink sink;
  b->set_handler(sink.handler());

  // First bytes on the wire claim a 4 GiB frame: the loop must refuse
  // to buffer toward it and reset the connection.
  Socket raw = tcp_connect("127.0.0.1", b->port(), 1'000'000);
  ASSERT_TRUE(raw.valid());
  Bytes evil(8 + 4, 0xee);
  for (int i = 0; i < 4; ++i) {
    evil[i] = 0xFF;  // len = 0xFFFFFFFF
  }
  ASSERT_TRUE(send_bytes(raw, evil));

  ASSERT_TRUE(
      wait_for([&] { return b->stats().frames_rejected_auth == 1; }));
  raw.set_recv_timeout(2'000'000);
  std::uint8_t scratch[64];
  while (raw.recv_some(scratch, sizeof scratch) > 0) {
  }
  auto a = fx.make("a");
  a->send(PartyId{"b"}, Bytes{6});
  ASSERT_TRUE(wait_for([&] { return sink.count() == 1; }));
}

TRANSPORT_CASE(FrameLengthOffByOneOverLimitIsRejected) {
  fx.config.max_frame_bytes = 64;  // small limit keeps the test cheap
  auto b = fx.make("b");
  Sink sink;
  b->set_handler(sink.handler());

  Socket raw = tcp_connect("127.0.0.1", b->port(), 1'000'000);
  ASSERT_TRUE(raw.valid());
  ASSERT_TRUE(send_bytes(raw, make_frame(hello_payload("edge", "b", 21))));
  // A payload of exactly max_frame_bytes is legitimate...
  Bytes app(46, 0x5c);  // 1 + 8 + 8 + 1 + 46 = 64-byte frame payload
  Bytes exact = data_payload(21, 0, app);
  ASSERT_EQ(exact.size(), 64u);
  ASSERT_TRUE(send_bytes(raw, make_frame(exact)));
  ASSERT_TRUE(wait_for([&] { return sink.count() == 1; }));
  EXPECT_EQ(b->stats().frames_rejected_auth, 0u);

  // ...but one byte over the limit is rejected before it is buffered.
  Bytes over(8 + 4, 0x5d);
  for (int i = 0; i < 4; ++i) {
    over[i] = static_cast<std::uint8_t>(65u >> (8 * i));
  }
  ASSERT_TRUE(send_bytes(raw, over));
  ASSERT_TRUE(
      wait_for([&] { return b->stats().frames_rejected_auth == 1; }));
  std::this_thread::sleep_for(10ms);
  EXPECT_EQ(sink.count(), 1u);
}

// --- cross-incarnation replay (DESIGN.md §11, wire v2) ----------------------

TRANSPORT_CASE(CrossIncarnationReplayIsSuppressed) {
  auto b = fx.make("b");
  Sink sink;
  b->set_handler(sink.handler());

  // Incarnation 1 of "x" delivers seq 0; the intruder records the frame.
  Socket old_conn = tcp_connect("127.0.0.1", b->port(), 1'000'000);
  ASSERT_TRUE(old_conn.valid());
  ASSERT_TRUE(send_bytes(old_conn, make_frame(hello_payload("x", "b", 1))));
  Bytes recorded = make_frame(data_payload(1, 0, Bytes{10}));
  ASSERT_TRUE(send_bytes(old_conn, recorded));
  ASSERT_TRUE(wait_for([&] { return sink.count() == 1; }));
  old_conn.close();

  // "x" restarts as incarnation 2 and delivers its fresh seq 0.
  Socket new_conn = tcp_connect("127.0.0.1", b->port(), 1'000'000);
  ASSERT_TRUE(new_conn.valid());
  ASSERT_TRUE(send_bytes(new_conn, make_frame(hello_payload("x", "b", 2))));
  ASSERT_TRUE(
      send_bytes(new_conn, make_frame(data_payload(2, 0, Bytes{20}))));
  ASSERT_TRUE(wait_for([&] { return sink.count() == 2; }));

  // The recorded incarnation-1 frame spliced into the live connection
  // must be suppressed, not delivered against the fresh dedup window.
  ASSERT_TRUE(send_bytes(new_conn, recorded));
  ASSERT_TRUE(wait_for([&] { return b->stats().replays_suppressed >= 1; }));
  std::this_thread::sleep_for(10ms);
  EXPECT_EQ(sink.count(), 2u);
  EXPECT_EQ(sink.contents(), (std::multiset<Bytes>{Bytes{10}, Bytes{20}}));

  // Liveness after the attack: the next incarnation connects fine.
  Socket conn3 = tcp_connect("127.0.0.1", b->port(), 1'000'000);
  ASSERT_TRUE(conn3.valid());
  ASSERT_TRUE(send_bytes(conn3, make_frame(hello_payload("x", "b", 3))));
  ASSERT_TRUE(send_bytes(conn3, make_frame(data_payload(3, 0, Bytes{30}))));
  ASSERT_TRUE(wait_for([&] { return sink.count() == 3; }));
}

TRANSPORT_CASE_NAMED(ReplayedAckFromWrongIncarnationCannotRetire,
                     ReplayedAckFromWrongIncarnationCannotRetireMessage) {
  fx.config.retransmit_interval_micros = 50'000;  // quiet retransmits
  auto b = fx.make("b");
  b->set_handler([](const PartyId&, const Bytes&) {});

  // Play the remote party "x" with a raw listener so we control acks.
  Listener listener = Listener::open("127.0.0.1", 0);
  fx.directory->set(PartyId{"x"}, PeerAddress{"127.0.0.1", listener.port()});
  b->send(PartyId{"x"}, Bytes{7});

  Socket conn = listener.accept();
  ASSERT_TRUE(conn.valid());
  conn.set_recv_timeout(5'000'000);
  Bytes hello;
  ASSERT_TRUE(recv_frame(conn, &hello));
  wire::Decoder dec{hello};
  ASSERT_EQ(dec.u8(), 2);  // kHello
  dec.u32();               // magic
  dec.u16();               // version
  ASSERT_EQ(dec.str(), "b");
  ASSERT_EQ(dec.str(), "x");
  std::uint64_t b_inc = dec.u64();
  ASSERT_TRUE(send_bytes(conn, make_frame(hello_payload("x", "b", 99))));
  Bytes data;
  ASSERT_TRUE(recv_frame(conn, &data));  // the data frame for seq 0

  // An ack that does not echo b's live incarnation must not retire the
  // message; the genuine echo must.
  ASSERT_TRUE(
      send_bytes(conn, make_frame(frame::encode_ack(b_inc ^ 0x5a5a, 0))));
  ASSERT_TRUE(wait_for([&] { return b->stats().replays_suppressed >= 1; }));
  EXPECT_EQ(b->unacked(), 1u);
  ASSERT_TRUE(send_bytes(conn, make_frame(frame::encode_ack(b_inc, 0))));
  ASSERT_TRUE(wait_for([&] { return b->unacked() == 0; }));
  listener.stop();
}

// --- wire v3 must-fail games (DESIGN.md §11) --------------------------------
//
// Four scripted attacks on the authenticated wire: live frame rewrite,
// forged ack, truncated MAC, and hello downgrade-strip — each must die
// as frames_rejected_auth.

TRANSPORT_CASE(AuthLiveDataFrameRewriteIsRejected) {
  auto b = fx.make_auth("b");
  Sink sink;
  b->set_handler(sink.handler());

  Socket raw = tcp_connect("127.0.0.1", b->port(), 1'000'000);
  ASSERT_TRUE(raw.valid());
  ConnKeys keys = raw_auth_handshake(raw, "x", "b", 31);
  Bytes d0 = data_payload(31, 0, Bytes{1});
  append_mac(d0, keys.send);
  ASSERT_TRUE(send_bytes(raw, make_frame(d0)));
  ASSERT_TRUE(wait_for([&] { return sink.count() == 1; }));

  // Rewrite the payload of a live frame, recompute the CRC, keep the
  // (now stale) MAC: the frame must die before parsing.
  Bytes d1 = data_payload(31, 1, Bytes{2});
  append_mac(d1, keys.send);
  d1[18] ^= 0xff;  // the app payload byte (type·inc·seq·len precede it)
  ASSERT_TRUE(send_bytes(raw, make_frame(d1)));
  ASSERT_TRUE(
      wait_for([&] { return b->stats().frames_rejected_auth == 1; }));
  std::this_thread::sleep_for(20ms);
  EXPECT_EQ(sink.count(), 1u);

  // Liveness: a fresh handshake rekeys and the honest seq 1 lands.
  Socket again = tcp_connect("127.0.0.1", b->port(), 1'000'000);
  ASSERT_TRUE(again.valid());
  ConnKeys keys2 = raw_auth_handshake(again, "x", "b", 31);
  Bytes d1_honest = data_payload(31, 1, Bytes{2});
  append_mac(d1_honest, keys2.send);
  ASSERT_TRUE(send_bytes(again, make_frame(d1_honest)));
  ASSERT_TRUE(wait_for([&] { return sink.count() == 2; }));
  EXPECT_EQ(sink.contents(), (std::multiset<Bytes>{Bytes{1}, Bytes{2}}));

  // A seq rewrite fares no better than a payload rewrite.
  Bytes d2 = data_payload(31, 2, Bytes{3});
  append_mac(d2, keys2.send);
  d2[9] ^= 0x04;  // a seq byte
  ASSERT_TRUE(send_bytes(again, make_frame(d2)));
  ASSERT_TRUE(
      wait_for([&] { return b->stats().frames_rejected_auth == 2; }));
  std::this_thread::sleep_for(20ms);
  EXPECT_EQ(sink.count(), 2u);
}

TRANSPORT_CASE(AuthForgedAckCannotRetireMessage) {
  fx.config.retransmit_interval_micros = 20'000;
  auto b = fx.make_auth("b");
  b->set_handler([](const PartyId&, const Bytes&) {});

  Listener listener = Listener::open("127.0.0.1", 0);
  fx.directory->set(PartyId{"x"}, PeerAddress{"127.0.0.1", listener.port()});
  b->send(PartyId{"x"}, Bytes{7});

  Socket conn = listener.accept();
  ASSERT_TRUE(conn.valid());
  conn.set_recv_timeout(5'000'000);
  Bytes hello;
  ASSERT_TRUE(recv_frame(conn, &hello));
  wire::Decoder dec{hello};
  ASSERT_EQ(dec.u8(), 2);  // kHello
  frame::Hello b_hello = frame::decode_hello(dec);
  ASSERT_EQ(b_hello.from, "b");
  ASSERT_EQ(b_hello.auth_flag, frame::kAuthHmac);
  ConnKeys x_keys;
  Bytes reply = build_hello(test_auth("x"), PartyId{"x"}, PartyId{"b"}, 99,
                            &x_keys);
  ASSERT_TRUE(send_bytes(conn, make_frame(reply)));
  Bytes data;
  ASSERT_TRUE(recv_frame(conn, &data));  // the MAC'd data frame for seq 0

  // A forged ack — right bytes, wrong tag — must not retire the message.
  Bytes forged = frame::encode_ack(b_hello.incarnation, 0);
  append_mac(forged, crypto::Sha256::hash(bytes_of("not the session key")));
  ASSERT_TRUE(send_bytes(conn, make_frame(forged)));
  ASSERT_TRUE(
      wait_for([&] { return b->stats().frames_rejected_auth >= 1; }));
  EXPECT_EQ(b->unacked(), 1u);

  // b killed the connection and redials; the genuine ack over the
  // rekeyed connection retires the message.
  Socket conn2 = listener.accept();
  ASSERT_TRUE(conn2.valid());
  conn2.set_recv_timeout(5'000'000);
  ASSERT_TRUE(recv_frame(conn2, &hello));
  wire::Decoder dec2{hello};
  ASSERT_EQ(dec2.u8(), 2);
  frame::Hello b_hello2 = frame::decode_hello(dec2);
  ConnKeys x_keys2;
  Bytes reply2 = build_hello(test_auth("x"), PartyId{"x"}, PartyId{"b"}, 99,
                             &x_keys2);
  ASSERT_TRUE(send_bytes(conn2, make_frame(reply2)));
  ASSERT_TRUE(recv_frame(conn2, &data));  // retransmitted seq 0
  Bytes genuine = frame::encode_ack(b_hello2.incarnation, 0);
  append_mac(genuine, x_keys2.send);
  ASSERT_TRUE(send_bytes(conn2, make_frame(genuine)));
  ASSERT_TRUE(wait_for([&] { return b->unacked() == 0; }));
  listener.stop();
}

TRANSPORT_CASE(AuthTruncatedMacFrameIsRejected) {
  auto b = fx.make_auth("b");
  Sink sink;
  b->set_handler(sink.handler());

  Socket raw = tcp_connect("127.0.0.1", b->port(), 1'000'000);
  ASSERT_TRUE(raw.valid());
  ConnKeys keys = raw_auth_handshake(raw, "x", "b", 41);
  Bytes d0 = data_payload(41, 0, Bytes{1});
  append_mac(d0, keys.send);
  ASSERT_TRUE(send_bytes(raw, make_frame(d0)));
  ASSERT_TRUE(wait_for([&] { return sink.count() == 1; }));

  // MAC short by one byte, re-framed with a valid CRC.
  Bytes truncated = data_payload(41, 1, Bytes{2});
  append_mac(truncated, keys.send);
  truncated.pop_back();
  ASSERT_TRUE(send_bytes(raw, make_frame(truncated)));
  ASSERT_TRUE(
      wait_for([&] { return b->stats().frames_rejected_auth == 1; }));

  // No MAC at all dies the same way.
  Socket bare = tcp_connect("127.0.0.1", b->port(), 1'000'000);
  ASSERT_TRUE(bare.valid());
  raw_auth_handshake(bare, "x", "b", 41);
  ASSERT_TRUE(send_bytes(bare, make_frame(data_payload(41, 1, Bytes{2}))));
  ASSERT_TRUE(
      wait_for([&] { return b->stats().frames_rejected_auth == 2; }));
  std::this_thread::sleep_for(20ms);
  EXPECT_EQ(sink.count(), 1u);

  // Liveness: the honest seq 1 lands over a fresh connection.
  Socket again = tcp_connect("127.0.0.1", b->port(), 1'000'000);
  ASSERT_TRUE(again.valid());
  ConnKeys keys2 = raw_auth_handshake(again, "x", "b", 41);
  Bytes d1 = data_payload(41, 1, Bytes{2});
  append_mac(d1, keys2.send);
  ASSERT_TRUE(send_bytes(again, make_frame(d1)));
  ASSERT_TRUE(wait_for([&] { return sink.count() == 2; }));
}

TRANSPORT_CASE(AuthHelloDowngradeStripIsRefused) {
  auto b = fx.make_auth("b");
  Sink sink;
  b->set_handler(sink.handler());

  // A stripped (unauthenticated) hello to an auth-required endpoint.
  Socket raw = tcp_connect("127.0.0.1", b->port(), 1'000'000);
  ASSERT_TRUE(raw.valid());
  ASSERT_TRUE(send_bytes(raw, make_frame(hello_payload("x", "b", 5))));
  ASSERT_TRUE(
      wait_for([&] { return b->stats().frames_rejected_auth == 1; }));
  std::this_thread::sleep_for(20ms);
  EXPECT_EQ(sink.count(), 0u);

  // And the reverse: an auth-less endpoint refuses an authenticated
  // hello instead of ignoring fields it cannot check.
  auto p = fx.make("p");
  p->set_handler(sink.handler());
  Socket cross = tcp_connect("127.0.0.1", p->port(), 1'000'000);
  ASSERT_TRUE(cross.valid());
  ConnKeys unused;
  Bytes auth_hello = build_hello(test_auth("x"), PartyId{"x"}, PartyId{"p"},
                                 7, &unused);
  ASSERT_TRUE(send_bytes(cross, make_frame(auth_hello)));
  ASSERT_TRUE(
      wait_for([&] { return p->stats().frames_rejected_auth == 1; }));

  // Liveness: the honest authenticated pair is unharmed.
  auto a = fx.make_auth("a");
  a->send(PartyId{"b"}, Bytes{6});
  ASSERT_TRUE(wait_for([&] { return sink.count() == 1; }));
  EXPECT_EQ(sink.contents(), std::multiset<Bytes>{Bytes{6}});
}

// --- reactor-specific fan-in shapes ----------------------------------------

TEST(ReactorTransportTest, ManySimultaneousDialsFanInToOneAcceptor) {
  // Dozens of parties dial one hub in the same instant — every dial is a
  // non-blocking connect racing through one level-triggered accept loop,
  // all on a single thread.
  Fixture fx;
  auto hub = fx.make("hub");
  Sink sink;
  hub->set_handler(sink.handler());

  constexpr int kSenders = 40;
  std::vector<std::unique_ptr<ReactorTransport>> senders;
  senders.reserve(kSenders);
  for (int i = 0; i < kSenders; ++i) {
    senders.push_back(fx.make("s" + std::to_string(i)));
  }
  for (int i = 0; i < kSenders; ++i) {
    senders[static_cast<std::size_t>(i)]->send(
        PartyId{"hub"}, Bytes{static_cast<std::uint8_t>(i)});
  }

  ASSERT_TRUE(wait_for([&] { return sink.count() == kSenders; }));
  std::multiset<Bytes> want;
  for (int i = 0; i < kSenders; ++i) {
    want.insert(Bytes{static_cast<std::uint8_t>(i)});
  }
  EXPECT_EQ(sink.contents(), want);
  for (auto& sender : senders) {
    ASSERT_TRUE(wait_for([&] { return sender->unacked() == 0; }));
  }
}

TEST(ReactorTransportTest, WriteBackpressureDrainsOnEpollout) {
  // A tiny send buffer forces the backpressure path: DATA frames beyond
  // the cap are NOT buffered; the retransmit timer re-offers them once
  // EPOLLOUT has drained the connection. Everything still arrives
  // exactly once.
  Fixture fx;
  fx.config.max_send_buffer_bytes = 16 * 1024;
  auto a = fx.make("a");
  fx.config.max_send_buffer_bytes = 4u << 20;
  auto b = fx.make("b");
  Sink sink;
  b->set_handler(sink.handler());

  constexpr int kMessages = 100;
  const Bytes big(4 * 1024, 0xcd);
  for (int i = 0; i < kMessages; ++i) {
    Bytes payload = big;
    payload[0] = static_cast<std::uint8_t>(i);
    a->send(PartyId{"b"}, payload);
  }

  ASSERT_TRUE(wait_for([&] { return sink.count() == kMessages; },
                       20'000ms));
  ASSERT_TRUE(wait_for([&] { return a->unacked() == 0; }));
  EXPECT_EQ(b->stats().app_delivered,
            static_cast<std::uint64_t>(kMessages));
}

TEST(ReactorTransportTest, RestartChurnNeverDuplicatesDelivery) {
  // Kill and rebind the receiver several times mid-traffic: every
  // incarnation change resets the sender's dedup view, and no payload is
  // ever delivered twice to any single incarnation.
  Fixture fx;
  auto a = fx.make("a");
  auto b = fx.make("b");
  const std::uint16_t b_port = b->port();

  std::size_t delivered_total = 0;
  for (int round = 0; round < 4; ++round) {
    auto round_sink = std::make_unique<Sink>();
    b->set_handler(round_sink->handler());
    a->send(PartyId{"b"}, Bytes{static_cast<std::uint8_t>(round)});
    ASSERT_TRUE(wait_for([&] { return round_sink->count() >= 1; }));
    ASSERT_TRUE(wait_for([&] { return a->unacked() == 0; }));
    delivered_total += round_sink->count();
    b->set_handler({});
    b.reset();
    b = fx.make("b", b_port);
  }
  EXPECT_GE(delivered_total, 4u);
  EXPECT_GE(a->stats().reconnects, 3u);
}

TEST(ReactorTransportTest, FdExhaustionShedsAcceptsAndRecovers) {
  // Exhaust the process fd table, then dial the transport: accept hits
  // EMFILE, the listener disarms (no spin) and rearms once descriptors
  // return; traffic then flows normally. This is the ulimit smoke CI
  // runs under a lowered RLIMIT_NOFILE.
  Fixture fx;
  auto a = fx.make("a");
  auto b = fx.make("b");
  Sink sink;
  b->set_handler(sink.handler());

  std::vector<int> hogs;
  for (;;) {
    int fd = ::dup(STDOUT_FILENO);
    if (fd < 0) break;  // table full
    hogs.push_back(fd);
  }
  // First contact while starved: the dial may itself fail (no fd for the
  // socket) or reach an acceptor with no fd to accept with. Both sides
  // retry on their timers.
  a->send(PartyId{"b"}, Bytes{7});
  std::this_thread::sleep_for(50ms);
  for (int fd : hogs) ::close(fd);

  ASSERT_TRUE(wait_for([&] { return sink.count() == 1; }, 20'000ms));
  EXPECT_EQ(sink.contents(), std::multiset<Bytes>{Bytes{7}});
  ASSERT_TRUE(wait_for([&] { return a->unacked() == 0; }));
}

// --- reconnects under a connection-killing intruder -------------------------

TEST(ReactorTransportTest, BothBacklogsRetireWhenSplicesKillEveryConnection) {
  // Both parties hold a frame for the other when their first connection
  // opens, and an intruder follows every data frame with one spliced from
  // another flow: each receiver delivers and acks the genuine frame, then
  // (bad MAC) kills the connection. An ack gets through only if no
  // attacked frame travels ahead of it on the same stream. An accepting
  // side that answered the handshake with its own backlog put its acks
  // behind an attacked frame on every reconnect, so both backlogs stayed
  // unacked for good, retransmitted on a fresh connection every tick.
  Fixture fx;
  IntruderProxy::Config pconfig;
  pconfig.active = false;  // passive while the warm-up fills the arsenal
  pconfig.script = [](const FrameInfo& info) -> std::optional<IntruderAction> {
    if (info.frame_type == frame::kData) return IntruderAction::kSplice;
    return IntruderAction::kForward;
  };
  IntruderProxy proxy{fx.directory, pconfig};
  auto a = fx.make_auth("a");
  auto b = fx.make_auth("b");
  auto w = fx.make_auth("w");
  proxy.interpose(PartyId{"a"});
  proxy.interpose(PartyId{"b"});
  Sink a_sink, b_sink;
  a->set_handler(a_sink.handler());
  b->set_handler(b_sink.handler());

  // Warm-up: w's traffic records frames on flows other than a<->b, the
  // ammunition every later splice draws from.
  w->send(PartyId{"a"}, Bytes{0});
  w->send(PartyId{"b"}, Bytes{0});
  ASSERT_TRUE(wait_for([&] { return w->unacked() == 0; }));

  // Both frames queue while their senders are down (a dead transport
  // writes and dials nothing), so every connection between a and b opens
  // with a frame outstanding in each direction.
  a->set_alive(false);
  b->set_alive(false);
  a->send(PartyId{"b"}, Bytes{1});
  b->send(PartyId{"a"}, Bytes{2});
  proxy.set_active(true);
  a->set_alive(true);
  b->set_alive(true);
  // A frame is acked before its handler runs on a pool worker, so wait
  // for the deliveries too before reading the sinks.
  ASSERT_TRUE(wait_for([&] {
    return a->unacked() == 0 && b->unacked() == 0 && a_sink.count() >= 2 &&
           b_sink.count() >= 2;
  })) << "a unacked=" << a->unacked() << " b unacked=" << b->unacked()
      << " connections=" << proxy.stats().connections_intercepted;
  EXPECT_GT(proxy.stats().spliced, 0u);
  EXPECT_GT(a->stats().frames_rejected_auth + b->stats().frames_rejected_auth,
            0u);
  // Once-only delivery held through every reconnect.
  EXPECT_EQ(a_sink.contents(), (std::multiset<Bytes>{Bytes{0}, Bytes{2}}));
  EXPECT_EQ(b_sink.contents(), (std::multiset<Bytes>{Bytes{0}, Bytes{1}}));
  proxy.shutdown();
}

TEST(ReactorTransportTest, ReactorTalksToTcpTransport) {
  // Wire compatibility with a second implementation of frame.hpp: a
  // blocking-socket peer "t" that speaks hello, data and ack by hand and
  // a reactor party exchange ten payloads each way on the connection the
  // reactor dials, each side acking the other's frames.
  Fixture fx;
  fx.config.retransmit_interval_micros = 50'000;  // quiet retransmits
  auto r = fx.make("r");
  Sink sink;
  r->set_handler(sink.handler());
  Listener listener = Listener::open("127.0.0.1", 0);
  fx.directory->set(PartyId{"t"}, PeerAddress{"127.0.0.1", listener.port()});

  std::multiset<Bytes> r_want, t_want;
  for (int i = 0; i < 10; ++i) {
    r->send(PartyId{"t"}, Bytes{static_cast<std::uint8_t>(i)});
    t_want.insert(Bytes{static_cast<std::uint8_t>(i)});
    r_want.insert(Bytes{static_cast<std::uint8_t>(100 + i)});
  }

  Socket conn = listener.accept();
  ASSERT_TRUE(conn.valid());
  conn.set_recv_timeout(5'000'000);
  Bytes hello;
  ASSERT_TRUE(recv_frame(conn, &hello));
  wire::Decoder hello_dec{hello};
  ASSERT_EQ(hello_dec.u8(), frame::kHello);
  hello_dec.u32();  // magic
  hello_dec.u16();  // version
  ASSERT_EQ(hello_dec.str(), "r");
  ASSERT_EQ(hello_dec.str(), "t");
  const std::uint64_t r_inc = hello_dec.u64();
  constexpr std::uint64_t kTInc = 7;
  ASSERT_TRUE(send_bytes(conn, make_frame(hello_payload("t", "r", kTInc))));
  for (std::uint64_t seq = 0; seq < 10; ++seq) {
    const Bytes app{static_cast<std::uint8_t>(100 + seq)};
    ASSERT_TRUE(send_bytes(conn, make_frame(data_payload(kTInc, seq, app))));
  }

  // Read until t holds r's ten payloads and r has acked t's ten; a
  // retransmitted data frame is acked again but kept once.
  std::multiset<Bytes> t_got;
  std::set<std::uint64_t> t_seen, r_acked;
  while (t_seen.size() < 10 || r_acked.size() < 10) {
    Bytes payload;
    ASSERT_TRUE(recv_frame(conn, &payload));
    wire::Decoder dec{payload};
    const std::uint8_t kind = dec.u8();
    const std::uint64_t incarnation = dec.u64();
    const std::uint64_t seq = dec.u64();
    if (kind == frame::kAck) {
      EXPECT_EQ(incarnation, kTInc);
      r_acked.insert(seq);
      continue;
    }
    ASSERT_EQ(kind, frame::kData);
    EXPECT_EQ(incarnation, r_inc);
    Bytes app = dec.blob();
    if (t_seen.insert(seq).second) t_got.insert(std::move(app));
    ASSERT_TRUE(send_bytes(conn, make_frame(frame::encode_ack(r_inc, seq))));
  }
  EXPECT_EQ(r_acked, (std::set<std::uint64_t>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
  EXPECT_EQ(t_got, t_want);
  ASSERT_TRUE(wait_for([&] { return r->unacked() == 0; }));
  ASSERT_TRUE(wait_for([&] { return sink.count() == 10; }));
  EXPECT_EQ(sink.contents(), r_want);
  listener.stop();
}

// --- runtime bundle ---------------------------------------------------------

TEST(ReactorRuntimeTest, ExecutorSettlesOnQuiescence) {
  ReactorRuntime::Options options;
  options.transport.retransmit_interval_micros = 5'000;
  ReactorRuntime runtime(options);
  Transport& a = runtime.add_party(PartyId{"a"});
  Transport& b = runtime.add_party(PartyId{"b"});
  a.set_handler([](const PartyId&, const Bytes&) {});
  Sink sink;
  b.set_handler(sink.handler());

  for (int i = 0; i < 20; ++i) {
    a.send(PartyId{"b"}, Bytes{static_cast<std::uint8_t>(i)});
  }
  EXPECT_TRUE(
      runtime.executor().run_until([&] { return sink.count() == 20; }));
  runtime.executor().settle();
  EXPECT_EQ(a.unacked(), 0u);
  EXPECT_EQ(sink.count(), 20u);
}

TEST(ReactorRuntimeTest, DirectoryResolvesEphemeralPorts) {
  auto directory = std::make_shared<PeerDirectory>();
  directory->set(PartyId{"a"}, PeerAddress{"127.0.0.1", 0});
  ReactorRuntime::Options options;
  options.directory = directory;
  ReactorRuntime runtime(options);
  runtime.add_party(PartyId{"a"});
  auto address = directory->lookup(PartyId{"a"});
  ASSERT_TRUE(address.has_value());
  EXPECT_NE(address->port, 0);
  EXPECT_EQ(runtime.transport(PartyId{"a"})->port(), address->port);
}

TEST(ReactorRuntimeTest, TimerInFlightCannotRaceBundleTeardown) {
  // Destroying the bundle while a schedule_after callback is about to
  // touch a transport must be safe: the wheel timer hands the callback
  // to the pool, and shutdown stops transports before loop and pool.
  for (int i = 0; i < 20; ++i) {
    ReactorRuntime::Options options;
    auto runtime = std::make_unique<ReactorRuntime>(options);
    Transport& a = runtime->add_party(PartyId{"a"});
    runtime->add_party(PartyId{"b"})
        .set_handler([](const PartyId&, const Bytes&) {});
    runtime->clock().schedule_after(
        static_cast<std::uint64_t>(i) * 100,
        [&a] { a.send(PartyId{"b"}, Bytes{1}); });
    runtime.reset();
  }
}

TEST(ReactorRuntimeTest, ThreadCountStaysFlatAcrossParties) {
  // The C10K shape in miniature: 1 loop + K workers regardless of how
  // many parties (sockets, timers) the bundle hosts.
  auto count_threads = [] {
    // /proc/self/stat field 20 (1-based) is num_threads; parse past the
    // comm field, which may contain spaces, via the closing paren.
    FILE* f = std::fopen("/proc/self/stat", "r");
    if (!f) return -1L;
    char buf[1024];
    std::size_t n = std::fread(buf, 1, sizeof buf - 1, f);
    std::fclose(f);
    buf[n] = '\0';
    const char* p = std::strrchr(buf, ')');
    if (!p) return -1L;
    long value = -1;
    int field = 2;  // the field after ')' is state, field 3
    for (p = p + 1; *p != '\0'; ++p) {
      if (*p == ' ') {
        ++field;
        if (field == 20) {
          value = std::strtol(p + 1, nullptr, 10);
          break;
        }
      }
    }
    return value;
  };

  ReactorRuntime::Options options;
  ReactorRuntime runtime(options);
  runtime.add_party(PartyId{"p0"});
  const long base = count_threads();
  ASSERT_GT(base, 0);
  for (int i = 1; i < 32; ++i) {
    runtime.add_party(PartyId{"p" + std::to_string(i)});
  }
  const long after = count_threads();
  EXPECT_EQ(after, base);  // 31 more parties, zero more threads
}


// --- a runtime bundle per party ---------------------------------------------

/// One party's own bundle; the bundles of a test share only `directory`.
ReactorRuntime::Options own_bundle(std::shared_ptr<PeerDirectory> directory) {
  ReactorRuntime::Options options;
  options.directory = std::move(directory);
  options.workers = 2;
  options.transport.retransmit_interval_micros = 5'000;
  return options;
}

TEST(TcpRuntimeTest, ExecutorSettlesOnQuiescence) {
  auto directory = std::make_shared<PeerDirectory>();
  Sink sink;
  ReactorRuntime a_runtime(own_bundle(directory));
  ReactorRuntime b_runtime(own_bundle(directory));
  Transport& a = a_runtime.add_party(PartyId{"a"});
  Transport& b = b_runtime.add_party(PartyId{"b"});
  a.set_handler([](const PartyId&, const Bytes&) {});
  b.set_handler(sink.handler());

  for (int i = 0; i < 20; ++i) {
    a.send(PartyId{"b"}, Bytes{static_cast<std::uint8_t>(i)});
  }
  EXPECT_TRUE(
      b_runtime.executor().run_until([&] { return sink.count() == 20; }));
  // Each executor sees only its own bundle: a's settles once b's acks
  // have retired a's queue.
  a_runtime.executor().settle();
  b_runtime.executor().settle();
  EXPECT_EQ(a.unacked(), 0u);
  EXPECT_EQ(sink.count(), 20u);
}

TEST(TcpRuntimeTest, DirectoryResolvesEphemeralPorts) {
  auto directory = std::make_shared<PeerDirectory>();
  directory->set(PartyId{"a"}, PeerAddress{"127.0.0.1", 0});
  directory->set(PartyId{"b"}, PeerAddress{"127.0.0.1", 0});
  ReactorRuntime a_runtime(own_bundle(directory));
  ReactorRuntime b_runtime(own_bundle(directory));
  a_runtime.add_party(PartyId{"a"});
  b_runtime.add_party(PartyId{"b"});

  // Each bundle resolves the other's party at the port it bound.
  auto a_address = b_runtime.directory().lookup(PartyId{"a"});
  auto b_address = a_runtime.directory().lookup(PartyId{"b"});
  ASSERT_TRUE(a_address.has_value());
  ASSERT_TRUE(b_address.has_value());
  EXPECT_NE(a_address->port, 0);
  EXPECT_NE(b_address->port, 0);
  EXPECT_EQ(a_runtime.transport(PartyId{"a"})->port(), a_address->port);
  EXPECT_EQ(b_runtime.transport(PartyId{"b"})->port(), b_address->port);
  EXPECT_EQ(a_runtime.transport(PartyId{"b"}), nullptr);
}

TEST(TcpRuntimeTest, TimerInFlightCannotRaceBundleTeardown) {
  // Destroying a's bundle while its timer is about to send to b, whose
  // bundle lives on, must be safe: a's shutdown stops its transport
  // before its loop and pool, and b only sees a connection drop.
  auto directory = std::make_shared<PeerDirectory>();
  ReactorRuntime b_runtime(own_bundle(directory));
  b_runtime.add_party(PartyId{"b"})
      .set_handler([](const PartyId&, const Bytes&) {});
  for (int i = 0; i < 20; ++i) {
    auto a_runtime = std::make_unique<ReactorRuntime>(own_bundle(directory));
    Transport& a = a_runtime->add_party(PartyId{"a"});
    a_runtime->clock().schedule_after(
        static_cast<std::uint64_t>(i) * 100,
        [&a] { a.send(PartyId{"b"}, Bytes{1}); });
    a_runtime.reset();
  }
}

}  // namespace
}  // namespace b2b::net
