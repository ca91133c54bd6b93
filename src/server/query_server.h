// A dependency-free TCP front end for live LTC queries
// (docs/SERVING.md). Mirrors src/telemetry's zero-dep stance: POSIX
// sockets + poll(2), nothing else.
//
// Architecture: one event-loop thread owns every connection — accept,
// nonblocking reads, frame parsing, dispatch, buffered writes — and
// answers every query from the current ReadSnapshotHub image. The
// ingest path is never touched: readers pin immutable flush-barrier
// snapshots (core/read_snapshot.h), so a flood of point queries cannot
// stall the writer, and a stalled client cannot tear a read.
//
// Lifecycle: Start() binds, listens and spawns the loop; Stop() drains
// gracefully — stop accepting, answer everything already in flight,
// flush every response buffer, then close with FIN (never RST) — and
// joins. ltc_cli --serve calls Stop() on SIGINT/SIGTERM before it
// checkpoints, so "interrupted" clients still get their answers
// (proven end to end by tools/server_e2e.sh).

#ifndef LTC_SERVER_QUERY_SERVER_H_
#define LTC_SERVER_QUERY_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/read_snapshot.h"
#include "server/dispatcher.h"
#include "server/key_codec.h"
#include "server/protocol.h"
#include "telemetry/metrics.h"

namespace ltc {
namespace server {

struct QueryServerConfig {
  /// TCP port; 0 = ephemeral (read the real one from port() after
  /// Start — the e2e scripts and unit tests use this).
  uint16_t port = 0;

  /// Bind address. Loopback by default: exposing a sketch service
  /// beyond the host is a deliberate ops decision ("0.0.0.0").
  std::string bind_address = "127.0.0.1";

  int backlog = 64;

  /// Connections beyond this are accepted and immediately closed
  /// (counted in ltc_server_connections_rejected_total).
  size_t max_connections = 256;

  /// Frame-size ceiling, both directions.
  size_t max_frame_bytes = kMaxFrameBytes;

  /// Ceiling for PUSH_SKETCH request frames (see FrameParser). Leave at
  /// max_frame_bytes for a query-only server; aggregator mode raises it
  /// to kMaxPushFrameBytes so serialized sketches fit.
  size_t max_push_frame_bytes = kMaxFrameBytes;

  /// Stop(): how long the drain may spend flushing response buffers to
  /// slow readers before force-closing them.
  uint64_t drain_grace_usec = 3'000'000;

  /// Connections with no traffic in either direction for this long are
  /// closed (counted in ltc_server_connections_idle_closed_total), so a
  /// slow-loris peer cannot hold a max_connections slot forever. 0
  /// disables eviction.
  uint64_t idle_timeout_usec = 300'000'000;
};

class QueryServer {
 public:
  /// The hub and codec must outlive the server. `num_shards` is
  /// advertised by STATS (0 = single table).
  QueryServer(const ReadSnapshotHub& hub, const KeyCodec& codec,
              uint32_t num_shards, const QueryServerConfig& config = {});

  /// Stops and joins (graceful drain), if still running.
  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Registers the ltc_server_* families. Call before Start; the
  /// registry must outlive the server. The event loop updates the
  /// metrics directly (they are lock-free by design).
  void AttachMetrics(telemetry::MetricsRegistry* registry);

  /// Turns this server into the aggregation tier's front end: the event
  /// loop dispatches PUSH_SKETCH into `aggregator` and ticks its
  /// staleness upkeep between polls. Call before Start (the aggregator
  /// is then driven exclusively by the loop thread, which also makes it
  /// the hub's single publisher). Must outlive the server.
  void AttachAggregator(AggregatorCore* aggregator);

  /// Binds, listens and spawns the event loop. False (with `error`)
  /// when the socket setup fails; the server is then inert and Start
  /// may be retried with a different config. Not restartable after
  /// Stop().
  bool Start(std::string* error);

  /// The port actually bound (resolves port 0). 0 before Start.
  uint16_t port() const { return port_.load(std::memory_order_acquire); }

  /// Graceful drain and join; idempotent. After Stop the listener is
  /// closed, every in-flight response has been flushed (or the drain
  /// grace expired) and all connections got a clean FIN.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  // Operational counters (any thread).
  uint64_t TotalRequests() const {
    return requests_.load(std::memory_order_relaxed);
  }
  uint64_t TotalErrors() const {
    return errors_.load(std::memory_order_relaxed);
  }
  uint64_t ConnectionsOpened() const {
    return conns_opened_.load(std::memory_order_relaxed);
  }
  uint64_t ConnectionsRejected() const {
    return conns_rejected_.load(std::memory_order_relaxed);
  }
  uint64_t ConnectionsIdleClosed() const {
    return conns_idle_closed_.load(std::memory_order_relaxed);
  }

 private:
  struct Conn {
    int fd = -1;
    FrameParser parser;
    std::string out;       // unsent response bytes
    size_t out_off = 0;
    bool peer_eof = false;        // read side closed by the peer
    bool close_after_flush = false;  // poisoned stream: flush, then close
    uint64_t last_activity_usec = 0;  // idle-eviction clock

    Conn(size_t max_frame_bytes, size_t max_push_frame_bytes)
        : parser(max_frame_bytes, max_push_frame_bytes) {}
  };

  void Loop();
  void HandleListener();
  /// Reads, parses and dispatches; queues responses. False = close now.
  bool HandleReadable(Conn& conn);
  /// Flushes the out buffer. False = fatal write error, close now.
  bool FlushWrites(Conn& conn);
  void CloseConn(Conn& conn);
  void RecordRequest(std::string_view request_payload,
                     std::string_view response_payload, uint64_t micros);

  const ReadSnapshotHub& hub_;
  QueryServerConfig config_;
  QueryDispatcher dispatcher_;
  AggregatorCore* aggregator_ = nullptr;

  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};  // self-pipe: Stop() wakes poll()
  std::atomic<uint16_t> port_{0};
  std::thread loop_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};
  bool started_ = false;  // Start/Stop called from the owning thread

  std::vector<std::unique_ptr<Conn>> conns_;

  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> errors_{0};
  std::atomic<uint64_t> conns_opened_{0};
  std::atomic<uint64_t> conns_rejected_{0};
  std::atomic<uint64_t> conns_idle_closed_{0};

  // Metrics (resolved once at AttachMetrics; loop-thread-written).
  telemetry::MetricsRegistry* metrics_ = nullptr;
  telemetry::Counter* op_counters_[9] = {};      // index = Opcode value
  telemetry::Counter* error_counters_[11] = {};  // index = Status value
  // ltc_server_request_duration_usec{op=...}; index = Opcode value,
  // with index 0 (no valid opcode) the op="other" series.
  telemetry::Histogram* duration_by_op_[9] = {};
  telemetry::Counter* connections_total_ = nullptr;
  telemetry::Counter* connections_rejected_total_ = nullptr;
  telemetry::Counter* connections_idle_closed_total_ = nullptr;
  telemetry::Gauge* connections_open_ = nullptr;
  telemetry::Gauge* snapshot_seq_gauge_ = nullptr;
  telemetry::Counter* bytes_read_total_ = nullptr;
  telemetry::Counter* bytes_written_total_ = nullptr;
};

}  // namespace server
}  // namespace ltc

#endif  // LTC_SERVER_QUERY_SERVER_H_
