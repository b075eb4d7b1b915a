// Discrete-event simulation substrate.
//
// The paper's evaluation runs on a simulation tool (§5.2); this is that
// tool's foundation. A `Scheduler` orders closures by virtual time with a
// deterministic FIFO tie-break, and a `Network` delivers byte payloads
// between registered endpoints with configurable per-link latency while
// counting every message and byte — the raw material for the LC/RLC/MR
// metrics. Payloads are real wire bytes, so the serialization path is
// exercised on every hop exactly as it would be on a socket. Payloads are
// refcounted `wire::Frame`s: fan-out, duplication and in-flight buffering
// copy a pointer, never the bytes (DESIGN.md §9).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "cake/metrics/lane_counters.hpp"
#include "cake/runtime/lane_task.hpp"
#include "cake/runtime/threaded.hpp"
#include "cake/util/flat_table.hpp"
#include "cake/util/rng.hpp"
#include "cake/wire/buffer.hpp"

namespace cake::sim {

/// Virtual time in microseconds.
using Time = std::uint64_t;

/// Endpoint identity within one simulation.
using NodeId = std::uint32_t;

inline constexpr NodeId kNoNode = std::numeric_limits<NodeId>::max();

/// Virtual-time event loop. Deterministic: ties in time run in post order.
///
/// Closures come in two flavours. *Foreground* work models messages and
/// computation in flight; *background* work models standing periodic tasks
/// (lease renewal, reaping) that re-schedule themselves forever. `run()`
/// drains until no foreground work remains — background tasks interleave on
/// the way but never keep the simulation alive on their own, which is what
/// makes "run to quiescence" well-defined in the presence of soft-state
/// timers.
///
/// Pending work is one FIFO per distinct virtual instant, so execution
/// order is exactly (time, post order) without a sequence number. The
/// FIFOs sit in an open-addressed table keyed by instant, and a min-heap
/// holds each instant with pending work once. Items come from a free list
/// cut from fixed chunks, so a running closure's item never moves. Each
/// item holds its closure as a `runtime::LaneTask` (64 inline bytes): a
/// `std::function` post rides in it as is, and a LaneTask post (the
/// Network's `{Network*, Delivery}` hop) keeps its whole capture there.
/// Once all three cover the peak backlog, posting and stepping allocate
/// nothing (DESIGN.md §9).
class Scheduler {
public:
  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  [[nodiscard]] Time now() const noexcept { return now_; }
  [[nodiscard]] bool empty() const noexcept { return pending_ == 0; }
  [[nodiscard]] std::size_t pending() const noexcept { return pending_; }
  [[nodiscard]] std::size_t pending_foreground() const noexcept {
    return foreground_pending_;
  }

  /// Schedules `fn` at absolute time `at` (clamped to now).
  void schedule_at(Time at, std::function<void()> fn);

  /// Schedules `fn` `delay` after now.
  void schedule_after(Time delay, std::function<void()> fn);

  /// Same, for a task whose capture fits the item's 64 inline bytes: it is
  /// stored in place, with no std::function around it.
  void schedule_at(Time at, runtime::LaneTask task);
  void schedule_after(Time delay, runtime::LaneTask task);

  /// Background variants: run() does not wait for these.
  void schedule_background_at(Time at, std::function<void()> fn);
  void schedule_background_after(Time delay, std::function<void()> fn);

  /// Runs the earliest pending closure; false when nothing is pending.
  bool step();

  /// Runs until no foreground work remains or `max_steps` closures ran;
  /// returns the number of closures executed.
  std::size_t run(std::size_t max_steps = std::numeric_limits<std::size_t>::max());

  /// Runs everything (foreground and background) scheduled at or before
  /// `deadline` — the interval is *closed* on the right — then sets
  /// now == deadline. Inclusive boundary semantics matter: the chaos
  /// controller schedules heal/restart events at exact TTL multiples, and
  /// `run_until(heal_time)` must execute them rather than leave them
  /// pending one step away. A closure at the deadline that reschedules
  /// itself with zero delay would loop forever, exactly as it would at any
  /// earlier instant.
  void run_until(Time deadline);

private:
  struct Item {
    runtime::LaneTask fn;
    Item* next = nullptr;
    bool background = false;
  };
  /// The closures posted for one instant, in post order.
  struct Fifo {
    Item* head = nullptr;
    Item* tail = nullptr;
  };

  void push(Time at, runtime::LaneTask&& fn, bool background);
  /// The FIFO of instant `at`, created empty when absent. The table cannot
  /// key `Time` max (its empty marker), so that instant has its own FIFO.
  Fifo& fifo_at(Time at) {
    return at == kLast ? last_ : instants_.try_emplace(at);
  }

  static constexpr Time kLast = std::numeric_limits<Time>::max();
  static constexpr std::size_t kChunkItems = 256;

  std::vector<Time> heap_;  // min-heap of the instants with pending work
  util::FlatTable<Time, Fifo> instants_;
  Fifo last_;
  Item* free_ = nullptr;
  Time now_ = 0;
  std::size_t pending_ = 0;
  std::size_t foreground_pending_ = 0;
  // Last, so pending closures die while the rest is still intact. A
  // pending delivery's frame is released here, without touching the
  // Network that posted it (which may already be gone).
  std::vector<std::unique_ptr<Item[]>> chunks_;
};

/// Per-direction link traffic counters.
struct LinkStats {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
};

/// Out-of-band link-layer header riding alongside a payload (the moral
/// equivalent of a TCP-style header the link module would prepend on a real
/// socket). Kept out of the frame bytes so pass-through forwarding stays
/// zero-copy and untagged (best-effort) traffic remains byte-identical to
/// the pre-link-layer system; the simulated wire still charges for the
/// header via `wire_bytes()` when the tag is present.
struct LinkTag {
  bool present = false;
  std::uint32_t session = 0;  ///< sender's stream incarnation (resets seq space)
  std::uint64_t seq = 0;      ///< per-(src,dst) sequence number; 0 = none
  std::uint64_t ack = 0;      ///< cumulative ack piggyback; 0 = none
  std::uint32_t ack_session = 0;  ///< stream the piggybacked ack refers to

  /// Bytes this header would occupy on a real wire (flags byte + varints).
  [[nodiscard]] std::size_t wire_bytes() const noexcept;
};

/// Byte-payload message network with latency and accounting.
class Network {
public:
  /// Refcounted immutable frame; implicitly constructible from a
  /// `std::vector<std::byte>` so encode()-returning-vector call sites work
  /// unchanged (they pay one wrap allocation — hot paths pass Frames).
  using Payload = wire::Frame;
  using Handler = std::function<void(NodeId from, const Payload& payload)>;
  /// Handler variant that also receives the link-layer tag. Nodes running a
  /// reliable link install one of these; `attach(Handler)` adapts plain
  /// handlers so existing call sites never see tags.
  using TaggedHandler = std::function<void(NodeId from, const Payload& payload,
                                           const LinkTag& tag)>;

  /// Disposition of one message, decided by a fault interceptor at send
  /// time: `copies == 0` drops it, `copies > 1` injects duplicates, and
  /// `extra_latency` is added on top of the link latency (jitter — enough
  /// to reorder messages relative to later sends on the same link).
  struct FaultAction {
    std::uint32_t copies = 1;
    Time extra_latency = 0;
  };
  /// Inspects every message about to enter the link (after the uniform
  /// loss process) and returns its disposition. The chaos engine installs
  /// one of these; `{}` / default means "deliver normally".
  using Interceptor = std::function<FaultAction(NodeId from, NodeId to,
                                                const Payload& payload)>;

  explicit Network(Scheduler& scheduler, Time default_latency = 1000);

  /// Registers (or replaces) the receive handler of `node`. Safe while
  /// other lanes deliver (a node joining a running Threaded overlay): no
  /// reader ever sees the handler table move. Throws std::out_of_range for
  /// ids at or beyond `kMaxNodes`.
  void attach(NodeId node, Handler handler);
  /// Registers (or replaces) a tag-aware receive handler of `node`.
  void attach(NodeId node, TaggedHandler handler);

  /// Node ids the handler table can hold (ids are dense, numbered from 0).
  static constexpr std::size_t kMaxNodes = std::size_t{1} << 22;

  /// Removes the handler of `node`: models a crashed or disconnected
  /// process. In-flight and future messages to it are dropped silently —
  /// the soft-state layer above is responsible for cleaning up after it.
  void detach(NodeId node);

  /// True while `node` has a handler installed.
  [[nodiscard]] bool attached(NodeId node) const noexcept;

  /// Drops each message independently with probability `rate` (fault
  /// injection for the §4.3 soft-state recovery claims). Dropped messages
  /// are counted as sent and as `dropped()` but never delivered.
  void set_loss_rate(double rate, std::uint64_t seed = 0);

  /// Installs (or, with an empty function, removes) the fault interceptor
  /// consulted on every send. Drops decided by it count into `dropped()`.
  void set_interceptor(Interceptor interceptor);

  /// Messages discarded so far — by the uniform loss process and by the
  /// interceptor together.
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }

  /// Physical copies handed to an attached receive handler.
  [[nodiscard]] std::uint64_t delivered() const noexcept;
  /// Copies that reached an unattached (crashed/detached) node and vanished.
  [[nodiscard]] std::uint64_t undeliverable() const noexcept;
  /// Fabric mode: the transport's `ThreadedStats::deferred`, posts a lane
  /// worker parked in its outbox. 0 in sim mode.
  [[nodiscard]] std::uint64_t help_drained() const noexcept;
  /// Extra copies injected by the interceptor (beyond one per send).
  [[nodiscard]] std::uint64_t duplicated() const noexcept { return duplicated_; }

  /// Overrides the latency of the directed link from->to.
  void set_latency(NodeId from, NodeId to, Time latency);

  /// Sends `payload` from->to; delivery is scheduled after the link
  /// latency. Sending to an unattached node counts but delivers nothing
  /// (models a crashed peer; soft-state TTLs clean up after it).
  void send(NodeId from, NodeId to, Payload payload);
  /// Tagged send: the link-layer header travels out-of-band with the
  /// payload and its `wire_bytes()` are charged to the link accounting.
  void send(NodeId from, NodeId to, Payload payload, const LinkTag& tag);

  /// Threaded delivery fabric (DESIGN.md §14). After binding, send() posts
  /// each frame as one task on lane `to % transport.workers()`, so every
  /// handler runs alone on its node's lane, serialized with the rest of
  /// that lane's work (the single-writer invariant for node state), and
  /// never inside another handler.
  ///
  /// Fabric-mode restrictions: virtual-time latency modelling, the loss
  /// process, and fault interceptors are sim-only (chaos runs on the
  /// virtual-time oracle) — binding with either active throws, as does
  /// installing one afterwards. attach/detach may run on any lane while
  /// traffic flows (the handler table is lane-safe), and the accounting
  /// accessors give exact totals only at quiescence; the per-event
  /// counters underneath are per-lane slots aggregated at read.
  void bind_lanes(runtime::ThreadedTransport& transport);

  [[nodiscard]] std::uint64_t total_messages() const noexcept;
  [[nodiscard]] std::uint64_t total_bytes() const noexcept;
  [[nodiscard]] LinkStats link(NodeId from, NodeId to) const noexcept;
  /// Messages delivered *into* each node (for per-node load metrics).
  [[nodiscard]] std::uint64_t received_by(NodeId node) const noexcept;

private:
  [[nodiscard]] static std::uint64_t key(NodeId from, NodeId to) noexcept {
    return (static_cast<std::uint64_t>(from) << 32) | to;
  }

  /// One message in flight. With the Network pointer it fills a
  /// `runtime::LaneTask` exactly, so both backends carry it in the task
  /// that delivers it: a scheduler item in sim mode, a lane task in fabric
  /// mode. The handler reads it in place; nothing is pooled or moved out.
  struct Delivery {
    NodeId from = kNoNode;
    NodeId to = kNoNode;
    Payload payload;
    LinkTag tag;
  };
  /// The task delivering `d`.
  [[nodiscard]] runtime::LaneTask delivery_task(Delivery d) {
    return runtime::LaneTask{[this, d = std::move(d)] { deliver(d); }};
  }
  /// Runs the receive handler of `d.to`, or counts the copy undeliverable.
  /// Sim and fabric mode differ only in which tally they count into.
  void deliver(const Delivery& d);

  /// One directed link: its traffic so far and its latency, so a send
  /// makes one table probe for both (fabric mode keeps latency 0).
  struct Link {
    LinkStats stats;
    Time latency = 0;
  };
  /// Links by `key(from, to)`. No key is all ones: node ids stay below
  /// kMaxNodes.
  using LinkTable = util::FlatTable<std::uint64_t, Link>;

  /// What deliver() counts: copies handed to a handler, copies that found
  /// none, and deliveries per node id.
  struct Tally {
    std::uint64_t delivered = 0;
    std::uint64_t undeliverable = 0;
    std::vector<std::uint64_t> received;  ///< by NodeId
  };

  /// Fabric accounting: slot i is written only by lane i's worker, the
  /// overflow slot (links only) by outside threads under `overflow_mutex`.
  struct alignas(64) LaneSlot {
    LinkTable links;
    Tally tally;
  };

  struct Fabric {
    explicit Fabric(std::size_t lanes)
        : slots(lanes + 1), messages(lanes), bytes(lanes) {}
    runtime::ThreadedTransport* transport = nullptr;
    std::vector<LaneSlot> slots;  // workers + 1 overflow
    std::mutex overflow_mutex;  // several outside threads may send at once
    metrics::LaneCounter messages;
    metrics::LaneCounter bytes;
  };

  void threaded_send(NodeId from, NodeId to, Payload payload,
                     const LinkTag& tag);

  /// The receive handler of `node`, or null when it is not attached.
  [[nodiscard]] TaggedHandler* handler_of(NodeId node) const noexcept {
    if (node >= kMaxNodes) return nullptr;
    const HandlerChunk* chunk =
        handler_chunks_[node / kHandlerChunk].load(std::memory_order_acquire);
    if (chunk == nullptr) return nullptr;
    return chunk->slots[node % kHandlerChunk].load(std::memory_order_acquire);
  }

  Link& link_record(NodeId from, NodeId to);

  Scheduler& scheduler_;
  Time default_latency_;
  double loss_rate_ = 0.0;
  util::Rng loss_rng_{0};
  Interceptor interceptor_;
  // Conservation law, once the scheduler is drained:
  //   total_messages() + duplicated() == delivered() + dropped() + undeliverable()
  std::uint64_t dropped_ = 0;
  std::uint64_t duplicated_ = 0;
  // Sim-mode deliveries (fabric mode tallies per lane instead).
  Tally tally_;
  // Receive handlers by node id. Lanes read the table while another lane
  // may attach a node, so nothing a reader can reach ever moves: slots sit
  // in fixed-size chunks published through atomic pointers, and a replaced
  // or detached handler is kept until the Network dies, since a lane (or
  // the handler itself) may still be running it. Writers serialize on
  // attach_mu_.
  static constexpr std::size_t kHandlerChunk = 1024;
  struct HandlerChunk {
    std::atomic<TaggedHandler*> slots[kHandlerChunk]{};
  };
  std::unique_ptr<std::atomic<HandlerChunk*>[]> handler_chunks_;
  std::vector<std::unique_ptr<HandlerChunk>> chunk_store_;
  std::vector<std::unique_ptr<TaggedHandler>> handler_store_;
  std::mutex attach_mu_;
  LinkTable links_;
  LinkStats total_;
  std::unique_ptr<Fabric> fabric_;
};

}  // namespace cake::sim
