#include "net/reactor.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"

namespace rave::net {

using util::make_error;
using util::Result;
using util::Status;

namespace {

// Wire frame: u32 LE payload length, u16 LE type, payload. The type's high
// bit marks a traced frame (real types stay below 0x8000): trace_id and
// span_id (u64 LE each) follow the 6-byte header. 0x4000 marks an
// HLC-stamped frame: wall micros (u64 LE) + logical (u32 LE) ride after
// any trace context. Frames with neither flag keep the original format.
constexpr uint16_t kTracedFlag = 0x8000;
constexpr uint16_t kHlcFlag = 0x4000;
// A frame length beyond this is protocol corruption, not data: drop the
// connection rather than try to allocate it.
constexpr uint32_t kMaxFrameBytes = 1u << 30;
// Queued frames gathered into one sendmsg (three iovecs each, well under
// IOV_MAX): a subscriber's whole frame of tiles goes out in a few syscalls.
constexpr size_t kGatherFrames = 64;

void put_u32(uint8_t* p, uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<uint8_t>(v >> (8 * i));
}
void put_u16(uint8_t* p, uint16_t v) {
  p[0] = static_cast<uint8_t>(v & 0xFF);
  p[1] = static_cast<uint8_t>(v >> 8);
}
void put_u64(uint8_t* p, uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<uint8_t>(v >> (8 * i));
}
uint32_t get_u32(const uint8_t* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(p[i]) << (8 * i);
  return v;
}
uint16_t get_u16(const uint8_t* p) {
  return static_cast<uint16_t>(p[0] | (p[1] << 8));
}
uint64_t get_u64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p[i]) << (8 * i);
  return v;
}

// Process-wide backpressure instruments. Depth/bytes gauges track frames
// sitting in write queues right now; the shed counter is the SLO engine's
// signal that clients are too slow for the configured queue bound.
obs::Gauge& queue_depth_gauge() {
  static obs::Gauge& g = obs::MetricsRegistry::global().gauge("rave_net_write_queue_depth");
  return g;
}
obs::Gauge& queue_bytes_gauge() {
  static obs::Gauge& g = obs::MetricsRegistry::global().gauge("rave_net_write_queue_bytes");
  return g;
}
obs::Counter& shed_counter() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter("rave_net_sends_shed_total");
  return c;
}
obs::Gauge& connections_gauge() {
  static obs::Gauge& g = obs::MetricsRegistry::global().gauge("rave_net_reactor_connections");
  return g;
}
obs::Histogram& queue_wait_histogram() {
  static obs::Histogram& h =
      obs::MetricsRegistry::global().histogram("rave_net_queue_wait_seconds");
  return h;
}
obs::Counter& accepts_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("rave_net_reactor_accepts_total");
  return c;
}

// One frame staged for the wire: fixed header + payload prefix + shared
// tail, written with a single scatter-gather sendmsg. `body` and `tail`
// are moved/refcounted out of the Message — no payload bytes are copied
// between the sender's encode and the syscall.
struct WriteItem {
  uint8_t header[34];
  size_t header_len = 0;
  std::vector<uint8_t> body;
  Buffer tail;
  uint64_t wire_bytes = 0;
  // Queue-wait attribution (defined at flush_locked): when a sendmsg
  // first found the socket full while this frame was queued (tracer clock
  // seconds; negative while none has), and the trace context it carries,
  // so the wait becomes a "queue_wait" span on the frame's timeline.
  double blocked_at = -1;
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
};

WriteItem make_item(Message&& m) {
  WriteItem item;
  item.trace_id = m.trace_id;
  item.span_id = m.span_id;
  put_u32(item.header, static_cast<uint32_t>(m.payload_size()));
  uint16_t wire_type = m.type;
  item.header_len = 6;
  if (m.traced()) {
    wire_type |= kTracedFlag;
    put_u64(item.header + 6, m.trace_id);
    put_u64(item.header + 14, m.span_id);
    item.header_len = 22;
  }
  if (m.hlc_stamped()) {
    wire_type |= kHlcFlag;
    put_u64(item.header + item.header_len, m.hlc_wall);
    put_u32(item.header + item.header_len + 8, m.hlc_logical);
    item.header_len += 12;
  }
  put_u16(item.header + 4, wire_type);
  item.body = std::move(m.payload);
  item.tail = std::move(m.tail);
  item.wire_bytes = item.header_len + item.body.size() + item.tail.size();
  return item;
}

}  // namespace

// Per-connection state shared between the event loop and the channel
// adapter. `mu` guards everything except fd (immutable after adopt) and
// the rd* parse state (touched only by the loop thread).
struct Conn {
  int fd = -1;
  ReactorChannelOptions opts;
  std::weak_ptr<ReactorImpl> reactor;

  mutable std::mutex mu;
  std::condition_variable recv_cv;  // parsed frames arrived / conn died
  std::condition_variable send_cv;  // write queue drained below its bound
  std::deque<Message> recv_q;
  std::deque<WriteItem> write_q;
  size_t write_off = 0;  // bytes of write_q.front() already on the wire
  bool unflushed = false;  // frames queued since the last flush_locked
  size_t queued_bytes = 0;
  bool peer_closed = false;  // read side saw EOF or a socket error
  bool user_closed = false;  // close() called on our side
  bool fd_closed = false;    // fd retired (shutdown + handed to graveyard)
  bool want_write = false;   // EPOLLOUT currently armed
  bool read_paused = false;  // EPOLLIN dropped: recv queue hit its bound
  bool linger = false;       // user closed with frames still queued: flush, then retire
  std::string peer_error;    // why peer_closed, for receive_result/send
  ChannelStats stats;

  // Loop-thread-only read state: raw bytes off the socket, parsed frame by
  // frame from rdoff.
  std::vector<uint8_t> rdbuf;
  size_t rdoff = 0;
};

struct ReactorImpl : std::enable_shared_from_this<ReactorImpl> {
  int epfd = -1;
  int wakefd = -1;
  std::atomic<bool> running{true};
  std::thread loop;
  std::thread::id loop_tid;

  struct ListenerState {
    int fd = -1;
    uint16_t port = 0;
    Reactor::AcceptFn on_accept;
    ReactorChannelOptions opts;
  };

  mutable std::mutex mu;  // registries below; never held while taking a Conn::mu
  std::map<int, std::shared_ptr<Conn>> conns;
  std::map<uint64_t, ListenerState> listeners;
  std::map<int, uint64_t> listener_by_fd;
  std::vector<int> graveyard;  // retired conn fds awaiting ::close on the loop thread
  uint64_t next_listener_id = 1;

  ~ReactorImpl() { stop(); }

  void start() {
    epfd = ::epoll_create1(EPOLL_CLOEXEC);
    wakefd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = wakefd;
    ::epoll_ctl(epfd, EPOLL_CTL_ADD, wakefd, &ev);
    loop = std::thread([this] { run(); });
    loop_tid = loop.get_id();
  }

  void stop() {
    if (!running.exchange(false)) return;
    wake();
    if (loop.joinable()) loop.join();
    std::vector<std::shared_ptr<Conn>> leftover;
    {
      std::lock_guard lock(mu);
      for (auto& [fd, conn] : conns) leftover.push_back(conn);
    }
    for (auto& conn : leftover) {
      std::lock_guard lock(conn->mu);
      fail_locked(*conn, "reactor: shut down");
    }
    drain_graveyard();
    std::lock_guard lock(mu);
    for (auto& [id, listener] : listeners) ::close(listener.fd);
    listeners.clear();
    listener_by_fd.clear();
    if (wakefd >= 0) ::close(wakefd);
    if (epfd >= 0) ::close(epfd);
    wakefd = epfd = -1;
  }

  void wake() const {
    const uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(wakefd, &one, sizeof(one));
  }

  void run() {
    std::vector<epoll_event> events(64);
    while (running.load(std::memory_order_acquire)) {
      drain_graveyard();
      const int n = ::epoll_wait(epfd, events.data(), static_cast<int>(events.size()), 200);
      if (n < 0) {
        if (errno == EINTR) continue;
        break;
      }
      for (int i = 0; i < n; ++i) {
        const int fd = events[i].data.fd;
        const uint32_t ev = events[i].events;
        if (fd == wakefd) {
          uint64_t junk;
          while (::read(wakefd, &junk, sizeof(junk)) > 0) {
          }
          continue;
        }
        Reactor::AcceptFn on_accept;
        ReactorChannelOptions accept_opts;
        bool is_listener = false;
        std::shared_ptr<Conn> conn;
        {
          std::lock_guard lock(mu);
          auto lit = listener_by_fd.find(fd);
          if (lit != listener_by_fd.end()) {
            const ListenerState& st = listeners[lit->second];
            on_accept = st.on_accept;
            accept_opts = st.opts;
            is_listener = true;
          } else {
            auto cit = conns.find(fd);
            if (cit != conns.end()) conn = cit->second;
          }
        }
        if (is_listener) {
          accept_ready(fd, on_accept, accept_opts);
          continue;
        }
        if (!conn) continue;  // retired between epoll_wait and here
        if (ev & EPOLLOUT) {
          std::lock_guard lock(conn->mu);
          flush_locked(*conn);
        }
        if (ev & (EPOLLIN | EPOLLHUP | EPOLLERR)) handle_readable(conn);
      }
    }
  }

  void drain_graveyard() {
    std::vector<int> dead;
    {
      std::lock_guard lock(mu);
      dead.swap(graveyard);
    }
    for (int fd : dead) {
      ::epoll_ctl(epfd, EPOLL_CTL_DEL, fd, nullptr);
      ::close(fd);
    }
  }

  void accept_ready(int listen_fd, const Reactor::AcceptFn& on_accept,
                    const ReactorChannelOptions& opts) {
    for (;;) {
      const int fd = ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) return;  // EAGAIN (drained) or listener closed
      accepts_counter().inc();
      ChannelPtr channel = adopt_fd(fd, opts);
      if (on_accept) on_accept(std::move(channel));
    }
  }

  ChannelPtr adopt_fd(int fd, const ReactorChannelOptions& opts);

  void handle_readable(const std::shared_ptr<Conn>& conn) {
    bool closed = false;
    std::string reason;
    size_t total = 0;
    for (;;) {
      constexpr size_t kChunk = 64 * 1024;
      const size_t old_size = conn->rdbuf.size();
      conn->rdbuf.resize(old_size + kChunk);
      const ssize_t r = ::recv(conn->fd, conn->rdbuf.data() + old_size, kChunk, 0);
      if (r > 0) {
        conn->rdbuf.resize(old_size + static_cast<size_t>(r));
        total += static_cast<size_t>(r);
        // Fairness: after ~1 MiB yield to other connections; level-triggered
        // epoll re-reports the fd immediately.
        if (total >= (1u << 20)) break;
        continue;
      }
      conn->rdbuf.resize(old_size);
      if (r == 0) {
        closed = true;
        reason = "reactor: closed by peer";
        break;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      closed = true;
      reason = std::string("reactor: closed by peer (recv: ") + std::strerror(errno) + ")";
      break;
    }
    if (!parse_frames(conn)) {
      closed = true;
      reason = "reactor: malformed frame from peer";
    }
    if (closed) {
      std::lock_guard lock(conn->mu);
      fail_locked(*conn, reason);
    }
  }

  // Split rdbuf into complete frames and publish them to the receive
  // queue. Returns false on a corrupt frame header.
  bool parse_frames(const std::shared_ptr<Conn>& conn) {
    std::vector<uint8_t>& buf = conn->rdbuf;
    size_t& off = conn->rdoff;
    std::vector<Message> out;
    for (;;) {
      if (buf.size() - off < 6) break;
      const uint8_t* p = buf.data() + off;
      const uint32_t len = get_u32(p);
      if (len > kMaxFrameBytes) return false;
      const uint16_t wire_type = get_u16(p + 4);
      const bool traced = (wire_type & kTracedFlag) != 0;
      const bool stamped = (wire_type & kHlcFlag) != 0;
      const size_t header_len = 6 + (traced ? 16 : 0) + (stamped ? 12 : 0);
      if (buf.size() - off < header_len + len) break;
      Message msg;
      msg.type = static_cast<uint16_t>(wire_type & ~(kTracedFlag | kHlcFlag));
      if (traced) {
        msg.trace_id = get_u64(p + 6);
        msg.span_id = get_u64(p + 14);
      }
      if (stamped) {
        const uint8_t* h = p + (traced ? 22 : 6);
        msg.hlc_wall = get_u64(h);
        msg.hlc_logical = get_u32(h + 8);
      }
      msg.payload.assign(p + header_len, p + header_len + len);
      off += header_len + len;
      out.push_back(std::move(msg));
    }
    if (off == buf.size()) {
      buf.clear();
      off = 0;
    } else if (off > (1u << 16) && off > buf.size() / 2) {
      buf.erase(buf.begin(), buf.begin() + static_cast<ptrdiff_t>(off));
      off = 0;
    }
    if (out.empty()) return true;
    std::lock_guard lock(conn->mu);
    for (Message& msg : out) {
      conn->stats.messages_received++;
      conn->stats.bytes_received += msg.wire_size();
      conn->recv_q.push_back(std::move(msg));
    }
    conn->recv_cv.notify_all();
    if (conn->opts.recv_queue_limit > 0 && conn->recv_q.size() >= conn->opts.recv_queue_limit &&
        !conn->read_paused) {
      // Receive-side backpressure: stop reading until the application
      // drains; the kernel buffer then throttles the remote sender.
      conn->read_paused = true;
      update_interest_locked(*conn);
    }
    return true;
  }

  // Drain as much of the write queue as the socket accepts right now,
  // gathering up to kGatherFrames queued frames per sendmsg. c.mu held.
  // Arms EPOLLOUT iff frames remain queued.
  //
  // Queue wait, as queue_wait_seconds, rave_net_queue_wait_seconds and the
  // "queue_wait" span count it, is the time a frame waited for its socket:
  // from the first sendmsg that found the socket full (EAGAIN) while the
  // frame was queued, until the sendmsg that put its last byte into the
  // kernel was issued. A frame the socket takes in the flush that offered
  // it waited 0, however many gathers that flush needed: it is charged
  // neither for queueing its batch-mates nor for the syscalls that carry
  // the frames ahead of it, which are the sender's own work: counted per
  // frame, they would be summed once for every frame of a batch.
  void flush_locked(Conn& c) {
    if (c.fd_closed) return;
    c.unflushed = false;
    obs::Tracer& tracer = obs::Tracer::global();
    while (!c.write_q.empty()) {
      iovec iov[3 * kGatherFrames];
      int iovcnt = 0;
      size_t skip = c.write_off;  // bytes of the front frame already sent
      const auto add = [&](const void* base, size_t n) {
        if (skip >= n) {
          skip -= n;
          return;
        }
        iov[iovcnt].iov_base = const_cast<uint8_t*>(static_cast<const uint8_t*>(base)) + skip;
        iov[iovcnt].iov_len = n - skip;
        ++iovcnt;
        skip = 0;
      };
      size_t gathered = 0;
      for (auto it = c.write_q.begin(); it != c.write_q.end() && gathered < kGatherFrames;
           ++it, ++gathered) {
        add(it->header, it->header_len);
        add(it->body.data(), it->body.size());
        add(it->tail.data(), it->tail.size());
      }
      msghdr mh{};
      mh.msg_iov = iov;
      mh.msg_iovlen = static_cast<size_t>(iovcnt);
      const double issued = tracer.now();
      const ssize_t w = ::sendmsg(c.fd, &mh, MSG_NOSIGNAL);
      if (w < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          // The socket is full: from here on, every queued frame waits.
          for (auto it = c.write_q.rbegin(); it != c.write_q.rend() && it->blocked_at < 0; ++it)
            it->blocked_at = issued;
          arm_write_locked(c, true);
          return;
        }
        fail_locked(c, std::string("reactor: send failed (") + std::strerror(errno) + ")");
        return;
      }
      // Retire every frame this write completed; a partly written one
      // stays at the front with its offset.
      size_t written = c.write_off + static_cast<size_t>(w);
      bool retired = false;
      while (!c.write_q.empty() && written >= c.write_q.front().wire_bytes) {
        const WriteItem& item = c.write_q.front();
        written -= item.wire_bytes;
        c.queued_bytes -= item.wire_bytes;
        queue_depth_gauge().add(-1);
        queue_bytes_gauge().add(-static_cast<double>(item.wire_bytes));
        account_dequeue_locked(c, item, issued);
        c.write_q.pop_front();
        retired = true;
      }
      c.write_off = written;
      if (retired) c.send_cv.notify_all();
    }
    arm_write_locked(c, false);
    if (c.linger) retire_locked(c);  // deferred close: queue just drained
  }

  // A frame just left the queue for the kernel by the sendmsg issued at
  // `issued`: charge its queue wait (defined at flush_locked) to the
  // channel's stats, the process histogram, and — when both the frame and
  // the tracer are tracing — a "queue_wait" span on the frame's timeline.
  // c.mu held; Tracer::record only takes its own locks, never a Conn's, so
  // the order conn->mu → tracer mu_ is acyclic.
  void account_dequeue_locked(Conn& c, const WriteItem& item, double issued) {
    const double since = item.blocked_at < 0 ? issued : item.blocked_at;
    const double wait = issued > since ? issued - since : 0;
    c.stats.queue_wait_seconds += wait;
    queue_wait_histogram().observe(wait);
    obs::Tracer& tracer = obs::Tracer::global();
    if (item.trace_id != 0 && tracer.enabled()) {
      obs::SpanRecord span;
      span.trace_id = item.trace_id;
      span.parent_span_id = item.span_id;
      span.span_id = tracer.next_span_id();
      span.name = "queue_wait";
      span.host = "reactor";
      span.start = since;
      span.end = since + wait;
      tracer.record(std::move(span));
    }
  }

  void arm_write_locked(Conn& c, bool want) {
    if (c.want_write == want) return;
    c.want_write = want;
    update_interest_locked(c);
  }

  void update_interest_locked(Conn& c) {
    if (c.fd_closed) return;
    epoll_event ev{};
    ev.events = (c.read_paused ? 0u : static_cast<uint32_t>(EPOLLIN)) |
                (c.want_write ? static_cast<uint32_t>(EPOLLOUT) : 0u);
    ev.data.fd = c.fd;
    ::epoll_ctl(epfd, EPOLL_CTL_MOD, c.fd, &ev);
  }

  // Mark the connection dead from the transport side and retire it.
  // c.mu held.
  void fail_locked(Conn& c, std::string reason) {
    if (!c.peer_closed) {
      c.peer_closed = true;
      c.peer_error = std::move(reason);
    }
    retire_locked(c);
  }

  // Unregister the connection and hand its fd to the loop thread for the
  // actual ::close — only the loop closes conn fds, so a racing event
  // handler can never touch a recycled descriptor. c.mu held.
  void retire_locked(Conn& c) {
    if (c.fd_closed) return;
    c.fd_closed = true;
    c.linger = false;
    ::shutdown(c.fd, SHUT_RDWR);
    if (!c.write_q.empty()) {
      queue_depth_gauge().add(-static_cast<double>(c.write_q.size()));
      queue_bytes_gauge().add(-static_cast<double>(c.queued_bytes));
      c.write_q.clear();
      c.queued_bytes = 0;
      c.write_off = 0;
    }
    connections_gauge().add(-1);
    {
      std::lock_guard lock(mu);
      conns.erase(c.fd);
      graveyard.push_back(c.fd);
    }
    c.recv_cv.notify_all();
    c.send_cv.notify_all();
    wake();
  }
};

namespace {

// Channel adapter over a reactor connection: the synchronous API the rest
// of the codebase speaks, backed by the shared event loop.
class ReactorChannel final : public Channel {
 public:
  explicit ReactorChannel(std::shared_ptr<Conn> conn) : conn_(std::move(conn)) {}

  ~ReactorChannel() override { close(); }

  // A batch of one.
  Status send(Message message) override {
    auto impl = conn_->reactor.lock();
    std::unique_lock lock(conn_->mu);
    Status sent = enqueue_locked(lock, impl.get(), std::move(message));
    if (sent.ok()) sent = flush_inline(*impl);
    return sent;
  }

  // The whole batch is queued under one lock, each message through the
  // same shed policy send() applies, then flushed once: the socket sees
  // gathered writes of up to kGatherFrames frames.
  std::vector<Status> send_batch(std::span<const Message> messages) override {
    auto impl = conn_->reactor.lock();
    std::unique_lock lock(conn_->mu);
    std::vector<Status> sent;
    sent.reserve(messages.size());
    bool queued = false;
    for (const Message& message : messages) {
      sent.push_back(enqueue_locked(lock, impl.get(), Message(message)));
      queued = queued || sent.back().ok();
    }
    if (!queued) return sent;
    const Status flushed = flush_inline(*impl);
    if (!flushed.ok())
      for (Status& status : sent)
        if (status.ok()) status = flushed;
    return sent;
  }

  Result<Message> receive_result(double timeout_seconds) override {
    std::unique_lock lock(conn_->mu);
    Conn& c = *conn_;
    const auto ready = [&] { return !c.recv_q.empty() || c.peer_closed || c.user_closed; };
    if (!c.recv_cv.wait_for(lock, std::chrono::duration<double>(timeout_seconds), ready))
      return make_error("reactor: receive timed out after " + std::to_string(timeout_seconds) +
                        "s");
    if (c.recv_q.empty()) {
      if (c.user_closed) return make_error("reactor: channel closed");
      return make_error(c.peer_error.empty() ? "reactor: closed by peer" : c.peer_error);
    }
    Message msg = std::move(c.recv_q.front());
    c.recv_q.pop_front();
    if (c.read_paused && c.recv_q.size() <= c.opts.recv_queue_limit / 2) {
      c.read_paused = false;
      if (auto impl = c.reactor.lock()) impl->update_interest_locked(c);
    }
    return msg;
  }

  void close() override {
    auto impl = conn_->reactor.lock();
    std::unique_lock lock(conn_->mu);
    Conn& c = *conn_;
    if (c.user_closed) return;
    c.user_closed = true;
    c.recv_cv.notify_all();
    c.send_cv.notify_all();
    if (!impl || c.fd_closed) return;
    if (c.write_q.empty()) {
      impl->retire_locked(c);
    } else {
      // Linger: let the loop finish flushing queued frames, then retire.
      c.linger = true;
      impl->arm_write_locked(c, true);
    }
  }

  [[nodiscard]] bool is_open() const override {
    std::lock_guard lock(conn_->mu);
    return !conn_->user_closed && (!conn_->peer_closed || !conn_->recv_q.empty());
  }

  [[nodiscard]] ChannelStats stats() const override {
    std::lock_guard lock(conn_->mu);
    return conn_->stats;
  }

 private:
  Status closed_error_locked() const {
    const Conn& c = *conn_;
    if (c.user_closed) return make_error("reactor: channel closed");
    return make_error(c.peer_error.empty() ? "reactor: channel closed by peer" : c.peer_error);
  }

  // Opportunistic inline flush from the sender's thread: on an idle socket
  // the frames go straight to the kernel with no loop handoff.
  Status flush_inline(ReactorImpl& impl) {
    impl.flush_locked(*conn_);
    return conn_->peer_closed ? closed_error_locked() : Status{};
  }

  Status shed_locked() {
    conn_->stats.messages_shed++;
    shed_counter().inc();
    return make_error("reactor: write queue full (message shed)");
  }

  // Queue one frame under the write queue's bound and shed policy. When
  // the queue is full but holds frames not yet offered to the socket (a
  // batch being queued), they are flushed first, so a batch sheds exactly
  // what one send() per message — each flushing as it goes — would shed.
  Status enqueue_locked(std::unique_lock<std::mutex>& lock, ReactorImpl* impl,
                        Message&& message) {
    Conn& c = *conn_;
    if (c.user_closed || c.peer_closed || c.fd_closed || impl == nullptr)
      return closed_error_locked();
    const size_t limit = c.opts.write_queue_limit;
    if (limit > 0 && c.write_q.size() >= limit && c.unflushed) {
      impl->flush_locked(c);
      if (c.peer_closed || c.fd_closed) return closed_error_locked();
    }
    if (limit > 0 && c.write_q.size() >= limit) {
      switch (c.opts.shed_policy) {
        case ShedPolicy::Block: {
          if (std::this_thread::get_id() != impl->loop_tid) {
            c.send_cv.wait(lock, [&] {
              return c.write_q.size() < limit || c.user_closed || c.peer_closed || c.fd_closed;
            });
            if (c.user_closed || c.peer_closed || c.fd_closed) return closed_error_locked();
            break;
          }
          // Blocking on the loop thread would deadlock (the flusher IS
          // this thread) — shed instead.
          [[fallthrough]];
        }
        case ShedPolicy::DropNewest:
          return shed_locked();
        case ShedPolicy::DropOldest: {
          // The only queued frame is already partially on the wire and
          // cannot be evicted; shed the new frame instead.
          if (c.write_off > 0 && c.write_q.size() == 1) return shed_locked();
          const auto victim = c.write_q.begin() + (c.write_off > 0 ? 1 : 0);
          c.queued_bytes -= victim->wire_bytes;
          queue_depth_gauge().add(-1);
          queue_bytes_gauge().add(-static_cast<double>(victim->wire_bytes));
          c.write_q.erase(victim);
          (void)shed_locked();
          break;
        }
      }
    }
    WriteItem item = make_item(std::move(message));
    const uint64_t wire_bytes = item.wire_bytes;
    c.stats.messages_sent++;
    c.stats.bytes_sent += wire_bytes;
    c.queued_bytes += wire_bytes;
    c.write_q.push_back(std::move(item));
    c.unflushed = true;
    if (c.write_q.size() > c.stats.queue_peak_depth)
      c.stats.queue_peak_depth = c.write_q.size();
    queue_depth_gauge().add(1);
    queue_bytes_gauge().add(static_cast<double>(wire_bytes));
    return {};
  }

  std::shared_ptr<Conn> conn_;
};

}  // namespace

ChannelPtr ReactorImpl::adopt_fd(int fd, const ReactorChannelOptions& opts) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  auto conn = std::make_shared<Conn>();
  conn->fd = fd;
  conn->opts = opts;
  conn->reactor = weak_from_this();
  {
    std::lock_guard lock(mu);
    conns[fd] = conn;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = fd;
  ::epoll_ctl(epfd, EPOLL_CTL_ADD, fd, &ev);
  connections_gauge().add(1);
  return std::make_shared<ReactorChannel>(std::move(conn));
}

const char* shed_policy_name(ShedPolicy policy) {
  switch (policy) {
    case ShedPolicy::Block: return "block";
    case ShedPolicy::DropNewest: return "drop-newest";
    case ShedPolicy::DropOldest: return "drop-oldest";
  }
  return "?";
}

bool parse_shed_policy(const char* name, ShedPolicy& out) {
  if (name == nullptr) return false;
  for (const ShedPolicy p : {ShedPolicy::Block, ShedPolicy::DropNewest, ShedPolicy::DropOldest}) {
    if (std::strcmp(name, shed_policy_name(p)) == 0) {
      out = p;
      return true;
    }
  }
  return false;
}

bool parse_queue_limit(const char* text, size_t& out) {
  if (text == nullptr) return false;
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || errno != 0 || v <= 0) return false;
  out = static_cast<size_t>(v);
  return true;
}

ReactorChannelOptions default_channel_options() {
  static const ReactorChannelOptions defaults = [] {
    ReactorChannelOptions opts;
    const char* queue = std::getenv("RAVE_NET_QUEUE");
    if (queue != nullptr && !parse_queue_limit(queue, opts.write_queue_limit))
      util::log_warn("net") << "RAVE_NET_QUEUE='" << queue
                            << "' not a positive frame count; using " << opts.write_queue_limit;
    const char* shed = std::getenv("RAVE_NET_SHED");
    if (shed != nullptr && !parse_shed_policy(shed, opts.shed_policy))
      util::log_warn("net") << "RAVE_NET_SHED='" << shed
                            << "' not recognized (block|drop-newest|drop-oldest); using "
                            << shed_policy_name(opts.shed_policy);
    return opts;
  }();
  return defaults;
}

Reactor::Reactor() : impl_(std::make_shared<ReactorImpl>()) { impl_->start(); }

Reactor::~Reactor() { impl_->stop(); }

Reactor& Reactor::global() {
  static Reactor reactor;
  return reactor;
}

ChannelPtr Reactor::adopt(int fd, ReactorChannelOptions options) {
  return impl_->adopt_fd(fd, options);
}

Result<std::unique_ptr<ReactorListener>> Reactor::listen(uint16_t port, AcceptFn on_accept,
                                                         ReactorChannelOptions options) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return make_error("reactor: socket() failed");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return make_error(std::string("reactor: bind failed: ") + std::strerror(errno));
  }
  if (::listen(fd, 64) != 0) {
    ::close(fd);
    return make_error("reactor: listen failed");
  }
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  const uint16_t actual_port = ntohs(addr.sin_port);
  uint64_t id = 0;
  {
    std::lock_guard lock(impl_->mu);
    id = impl_->next_listener_id++;
    impl_->listeners[id] = {fd, actual_port, std::move(on_accept), options};
    impl_->listener_by_fd[fd] = id;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = fd;
  ::epoll_ctl(impl_->epfd, EPOLL_CTL_ADD, fd, &ev);
  return std::unique_ptr<ReactorListener>(new ReactorListener(impl_, id, actual_port));
}

size_t Reactor::open_channels() const {
  std::lock_guard lock(impl_->mu);
  return impl_->conns.size();
}

ReactorListener::~ReactorListener() { close(); }

void ReactorListener::close() {
  if (!impl_) return;
  int fd = -1;
  {
    std::lock_guard lock(impl_->mu);
    auto it = impl_->listeners.find(id_);
    if (it != impl_->listeners.end()) {
      fd = it->second.fd;
      impl_->listener_by_fd.erase(fd);
      impl_->listeners.erase(it);
    }
  }
  if (fd >= 0) {
    ::epoll_ctl(impl_->epfd, EPOLL_CTL_DEL, fd, nullptr);
    ::close(fd);
  }
  impl_.reset();
}

}  // namespace rave::net
