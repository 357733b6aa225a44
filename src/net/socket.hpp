// Thin RAII layer over POSIX TCP sockets.
//
// Just enough for the reactor runtime (reactor_runtime.hpp) and the
// intruder proxy: a move-only fd owner with blocking read/write helpers
// that absorb EINTR and partial transfers, a listener with a self-pipe so
// a blocked accept() can be woken for shutdown, a connect with a real
// timeout, and the non-blocking listen/connect the reactor registers
// with epoll. No buffering, no framing, no event loop — framing and
// reliability live a layer up.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace b2b::net {

/// Move-only owner of a file descriptor (socket or pipe end).
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { close(); }

  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Close the descriptor (idempotent).
  void close();

  /// shutdown(SHUT_RDWR): any thread blocked reading or writing this
  /// socket returns immediately. Safe to call concurrently with I/O —
  /// unlike close(), the descriptor stays valid until close().
  void shutdown_both();

  /// Write all of `data`, absorbing EINTR and partial writes. Returns
  /// false on any error (including a peer reset). Never raises SIGPIPE.
  bool send_all(const void* data, std::size_t len);

  /// One read: >0 bytes read, 0 on orderly EOF, -1 on error/timeout.
  long recv_some(void* buf, std::size_t len);

  /// Read exactly `len` bytes. False on EOF, error or timeout.
  bool recv_exact(void* buf, std::size_t len);

  /// Disable Nagle (frames are small and latency-sensitive).
  void set_nodelay();

  /// O_NONBLOCK on/off. The reactor runtime runs every socket
  /// non-blocking; the intruder proxy keeps its sockets blocking.
  void set_nonblocking(bool nonblocking);

  /// SO_RCVTIMEO, 0 clears. Used to bound the handshake phase.
  void set_recv_timeout(std::uint64_t micros);

  /// SO_LINGER with timeout 0: close() sends RST instead of FIN. A test
  /// instrument for mid-stream connection resets.
  void set_linger_reset();

 private:
  int fd_ = -1;
};

/// A listening TCP socket. `stop()` wakes a blocked `accept()` via a
/// self-pipe so acceptor threads shut down without closing the fd out
/// from under a concurrent syscall.
class Listener {
 public:
  Listener() = default;

  /// Bind + listen on host:port. Port 0 picks an ephemeral port; the
  /// actual one is reported by port(). Throws b2b::Error on failure.
  static Listener open(const std::string& host, std::uint16_t port);

  bool valid() const { return listen_.valid(); }
  std::uint16_t port() const { return port_; }

  /// Block until a connection arrives; returns an invalid Socket once
  /// stop() has been called. Transient accept errors are retried.
  Socket accept();

  /// Wake any blocked accept() and make all further accepts fail.
  void stop();

 private:
  Socket listen_;
  Socket wake_read_;
  Socket wake_write_;
  std::uint16_t port_ = 0;
};

/// Blocking connect with a timeout (non-blocking connect + poll under
/// the hood; the returned socket is back in blocking mode). Returns an
/// invalid Socket on failure or timeout.
Socket tcp_connect(const std::string& host, std::uint16_t port,
                   std::uint64_t timeout_micros);

/// Bind + listen and return the listening socket (no wake pipe). Port 0
/// picks an ephemeral port reported through `bound_port`. Throws
/// b2b::Error on failure. The reactor runtime registers this fd with
/// epoll directly instead of parking a thread in accept().
Socket tcp_listen(const std::string& host, std::uint16_t port,
                  std::uint16_t* bound_port);

/// Start a non-blocking connect and return the socket immediately.
/// `*in_progress` is true when the connect is still completing; the
/// caller waits for writability and then checks SO_ERROR. An invalid
/// Socket means resolution or socket creation failed outright.
Socket tcp_connect_start(const std::string& host, std::uint16_t port,
                         bool* in_progress);

}  // namespace b2b::net
