// Communicators: MPI-style point-to-point and collective operations over the
// simulated world.
//
// A Comm is a per-process handle: (process, context id, ordered member list).
// Context 0 is the world communicator. All collectives are built from the
// point-to-point primitives, so their virtual cost emerges from the same link
// model the estimator uses. Each collective runs one of a family of pluggable
// algorithms (src/coll/, docs/collectives.md): bcast may be flat, binomial,
// chain-pipelined, or two-level cluster-aware; reduce flat, binomial, or
// Rabenseifner; allgather composes gather+bcast (the historical default) or
// runs ring / recursive-doubling; barrier is dissemination or tournament;
// alltoall is pairwise rounds. The algorithm is resolved per call — per-comm
// policy, then the world's policy, then the installed coll::Selector (the
// runtime's cost-model tuner), then the legacy default, whose message
// schedule and virtual timing match the old hard-coded implementations
// exactly.
//
// Internal collective traffic uses tags above kMaxUserTag; correctness across
// back-to-back collectives relies on the substrate's per-(sender, context)
// FIFO ordering, exactly as MPI implementations rely on non-overtaking.
#pragma once

#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "coll/algorithms.hpp"
#include "mpsim/world.hpp"

namespace hmpi::mp {

/// Color value excluding a process from the communicator made by split().
inline constexpr int kUndefinedColor = -1;

namespace internal_tag {
// Reserved tag space for library-internal traffic (all above kMaxUserTag).
inline constexpr int kBarrierBase = kMaxUserTag + 0x0100;  // + round
inline constexpr int kBcastBase = kMaxUserTag + 0x0200;
inline constexpr int kReduceBase = kMaxUserTag + 0x0300;
inline constexpr int kGather = kMaxUserTag + 0x0400;
inline constexpr int kScatter = kMaxUserTag + 0x0500;
inline constexpr int kAllgatherBase = kMaxUserTag + 0x0600;  // + round
inline constexpr int kAlltoallBase = kMaxUserTag + 0x0700;   // + (round & 0xff)
inline constexpr int kSplit = kMaxUserTag + 0x0800;
inline constexpr int kSubcommCtx = kMaxUserTag + 0x0900;
inline constexpr int kDup = kMaxUserTag + 0x0a00;
inline constexpr int kGatherv = kMaxUserTag + 0x0b00;
inline constexpr int kScatterv = kMaxUserTag + 0x0c00;
inline constexpr int kScan = kMaxUserTag + 0x0d00;
inline constexpr int kAllreduceBase = kMaxUserTag + 0x0e00;      // + round
inline constexpr int kReduceScatterBase = kMaxUserTag + 0x0f00;  // + round
}  // namespace internal_tag

class Request;

/// Per-process communicator handle. Cheap to copy.
class Comm {
 public:
  /// Invalid handle (e.g. a process excluded by split()).
  Comm() = default;

  bool valid() const noexcept { return proc_ != nullptr; }
  int rank() const noexcept { return rank_; }
  int size() const noexcept {
    return members_ ? static_cast<int>(members_->size()) : 0;
  }
  int context() const noexcept { return context_; }

  /// Ordered member list as world ranks (the communicator's group).
  const std::vector<int>& group() const { return *members_; }

  /// World rank of communicator rank `r`.
  int world_rank_of(int r) const;
  /// Communicator rank of world rank `wr`, or -1 if not a member.
  int rank_of_world(int wr) const noexcept;

  Proc& proc() const noexcept { return *proc_; }

  // --- point-to-point -------------------------------------------------------

  /// Blocking buffered send of raw bytes to communicator rank `dst`.
  void send_bytes(std::span<const std::byte> data, int dst, int tag) const;

  /// Blocking receive into `buffer` (must be at least the message size) from
  /// communicator rank `src` (or kAnySource), tag `tag` (or kAnyTag).
  /// Raises PeerFailedError fast when `src` has crashed, RevokedError when
  /// the communicator's context was revoked, and DeadlockError when the
  /// world stalls with this receive pending. `timeout_s` orders the receives
  /// a stall fails: the smallest explicit timeout first, kNoTimeout last.
  Status recv_bytes(std::span<std::byte> buffer, int src, int tag,
                    double timeout_s = kNoTimeout) const;

  /// Sends a zero-payload message costed as `bytes` on the wire. Used by
  /// workload drivers in virtual-only mode: the timing (and the receiver's
  /// blocking behaviour) is identical to a real `bytes`-sized message, but
  /// nothing is copied. Received with recv_placeholder (or recv_bytes with
  /// an empty buffer).
  void send_placeholder(std::size_t bytes, int dst, int tag) const;

  /// Receives a message without reading its payload (the Status reports the
  /// logical size). Pairs with send_placeholder; also accepts ordinary
  /// messages (their payload is discarded).
  Status recv_placeholder(int src, int tag,
                          double timeout_s = kNoTimeout) const;

  /// Non-destructive test for an available matching message.
  bool iprobe(int src, int tag) const;

  /// Nonblocking send: the transfer is initiated immediately (buffered
  /// semantics), the returned request is already complete.
  Request isend_bytes(std::span<const std::byte> data, int dst, int tag) const;

  /// Nonblocking receive: matching and the clock update happen at wait/test.
  Request irecv_bytes(std::span<std::byte> buffer, int src, int tag) const;

  // --- typed wrappers -------------------------------------------------------

  template <typename T>
  void send(std::span<const T> data, int dst, int tag) const {
    static_assert(std::is_trivially_copyable_v<T>);
    send_bytes(std::as_bytes(data), dst, tag);
  }

  template <typename T>
  Status recv(std::span<T> buffer, int src, int tag,
              double timeout_s = kNoTimeout) const {
    static_assert(std::is_trivially_copyable_v<T>);
    return recv_bytes(std::as_writable_bytes(buffer), src, tag, timeout_s);
  }

  template <typename T>
  void send_value(const T& value, int dst, int tag) const {
    send(std::span<const T>(&value, 1), dst, tag);
  }

  template <typename T>
  T recv_value(int src, int tag, Status* status = nullptr,
               double timeout_s = kNoTimeout) const {
    T value{};
    Status s = recv(std::span<T>(&value, 1), src, tag, timeout_s);
    if (status != nullptr) *status = s;
    return value;
  }

  /// Typed isend/irecv; defined after Request below.
  template <typename T>
  Request isend(std::span<const T> data, int dst, int tag) const;

  template <typename T>
  Request irecv(std::span<T> buffer, int src, int tag) const;

  /// Combined send+receive (deadlock-free by construction here, since sends
  /// are buffered; provided for MPI_Sendrecv-shaped code).
  template <typename T>
  Status sendrecv(std::span<const T> send_data, int dst, int send_tag,
                  std::span<T> recv_buffer, int src, int recv_tag) const {
    send(send_data, dst, send_tag);
    return recv(recv_buffer, src, recv_tag);
  }

  // --- collectives (must be called by every member, in the same order) -----

  /// Per-communicator algorithm overrides. Every member must install the
  /// same policy (it is local state of this handle, like an MPI info key);
  /// kAuto entries fall through to World::coll_choice: the world's policy,
  /// then the installed coll::Selector, then the legacy defaults.
  void set_coll_policy(const coll::CollPolicy& policy) { coll_policy_ = policy; }
  const coll::CollPolicy& coll_policy() const noexcept { return coll_policy_; }

  /// Barrier; synchronises virtual clocks to a common point (dissemination
  /// by default, tournament selectable).
  void barrier() const;

  /// Broadcast of `data` from `root` to all members (binomial tree by
  /// default; flat, chain-pipelined and two-level selectable).
  template <typename T>
  void bcast(std::span<T> data, int root) const {
    static_assert(std::is_trivially_copyable_v<T>);
    bcast_bytes(std::as_writable_bytes(data), root);
  }

  template <typename T>
  void bcast_value(T& value, int root) const {
    bcast(std::span<T>(&value, 1), root);
  }

  /// Broadcast of a vector whose size only the root knows.
  template <typename T>
  void bcast_vector(std::vector<T>& data, int root) const {
    static_assert(std::is_trivially_copyable_v<T>);
    std::uint64_t n = data.size();
    bcast_value(n, root);
    if (rank() != root) data.resize(n);
    if (n > 0) bcast(std::span<T>(data), root);
  }

  /// Reduction (binomial tree by default; flat and Rabenseifner
  /// selectable); `out` is significant at root only. `op` must be
  /// associative — and commutative under the non-binomial algorithms, which
  /// combine in rank-dependent order; evaluation order is deterministic for
  /// a given (member count, algorithm).
  template <typename T, typename Op>
  void reduce(std::span<const T> in, std::span<T> out, Op op, int root) const;

  /// Native allreduce (reduce+bcast composition by default; recursive
  /// doubling and Rabenseifner selectable). `out` significant on every
  /// member; same `op` requirements as reduce.
  template <typename T, typename Op>
  void allreduce(std::span<const T> in, std::span<T> out, Op op) const;

  /// Reduce-scatter of size() equal blocks: `in` holds size() * block
  /// elements, rank r gets the element-wise reduction of every member's
  /// block r in `out` (first block elements). Pairwise exchange by default;
  /// recursive halving selectable. Same `op` requirements as reduce.
  template <typename T, typename Op>
  void reduce_scatter(std::span<const T> in, std::span<T> out, Op op) const;

  /// Linear gather of equal-sized contributions. `recv` (root only) must hold
  /// size() * send.size() elements, grouped by rank.
  template <typename T>
  void gather(std::span<const T> send, std::span<T> recv, int root) const;

  /// Allgather of equal-sized contributions into `recv` (size() * send.size()
  /// elements on every member). Gather-to-0 + bcast by default (the
  /// historical composition); ring and recursive doubling selectable.
  template <typename T>
  void allgather(std::span<const T> send, std::span<T> recv) const;

  /// Linear scatter of equal-sized pieces from root. `send` (root only) must
  /// hold size() * recv.size() elements.
  template <typename T>
  void scatter(std::span<const T> send, std::span<T> recv, int root) const;

  /// Pairwise-rounds all-to-all of equal-sized pieces.
  template <typename T>
  void alltoall(std::span<const T> send, std::span<T> recv) const;

  /// Variable-count gather: rank r contributes send.size() elements, placed
  /// at recv[displs[r]..] at root. `counts`/`displs` are significant at the
  /// root only (like MPI_Gatherv).
  template <typename T>
  void gatherv(std::span<const T> send, std::span<T> recv,
               std::span<const int> counts, std::span<const int> displs,
               int root) const;

  /// Variable-count scatter: rank r receives counts[r] elements from
  /// send[displs[r]..] at the root (like MPI_Scatterv). `recv` must have
  /// exactly this rank's count (communicated out of band or known a priori).
  template <typename T>
  void scatterv(std::span<const T> send, std::span<const int> counts,
                std::span<const int> displs, std::span<T> recv, int root) const;

  /// Inclusive prefix reduction: out[r] = op(in[0], ..., in[r]) elementwise
  /// (like MPI_Scan). Linear chain; deterministic evaluation order.
  template <typename T, typename Op>
  void scan(std::span<const T> in, std::span<T> out, Op op) const;

  // --- communicator management ---------------------------------------------

  /// MPI_Comm_split: members with the same non-negative `color` form a new
  /// communicator, ordered by (key, old rank). Color kUndefinedColor yields
  /// an invalid Comm. Collective over all members.
  Comm split(int color, int key) const;

  /// Duplicate with a fresh context. Collective over all members.
  Comm dup() const;

  /// Creates a communicator over exactly `world_ranks` (unique; the list
  /// order defines the new ranks, and every caller must pass the same list).
  /// Collective over the listed processes only — the analogue of MPI-3's
  /// MPI_Comm_create_group, which is what lets HMPI groups form without
  /// involving busy processes.
  static Comm create_subcomm(Proc& proc, std::vector<int> world_ranks);

  friend bool operator==(const Comm& a, const Comm& b) noexcept {
    return a.proc_ == b.proc_ && a.context_ == b.context_;
  }

 private:
  friend class Proc;
  friend class Request;

  Comm(Proc* proc, int context, std::shared_ptr<const std::vector<int>> members,
       int rank)
      : proc_(proc), context_(context), members_(std::move(members)), rank_(rank) {}

  void bcast_bytes(std::span<std::byte> data, int root) const;
  void check_member_rank(int r, const char* what) const;
  void send_impl(std::span<const std::byte> data, std::size_t logical_bytes,
                 int dst, int tag) const;
  Status recv_impl(std::span<std::byte>* buffer, int src, int tag,
                   double timeout_s) const;

  // --- collective dispatch (shared by the templates and comm.cpp) ----------

  /// Resolves the algorithm for one collective call (this communicator's
  /// policy, then World::coll_choice), bumps the coll.<op>.<algo> counter,
  /// and records a kCollSelect trace event at communicator rank 0. Must be
  /// called identically by every member.
  int coll_select(coll::CollOp op, std::size_t bytes) const;

  /// The message schedule for the resolved algorithm, shared by every
  /// member of the call through World::coll_schedule (count follows the
  /// coll::schedule_for convention: elements for bcast/reduce/allreduce,
  /// block elements for reduce_scatter/allgather, ignored for barrier).
  std::shared_ptr<const coll::Schedule> coll_schedule(coll::CollOp op,
                                                      int algo, int root,
                                                      std::size_t count,
                                                      std::size_t elem_size) const;

  /// Closes the books on a finished collective: observes the
  /// coll.<op>.seconds histogram.
  void coll_finish(coll::CollOp op, double start_clock) const;

  /// Physical processor of each member, in communicator-rank order.
  std::vector<int> member_procs() const;

  Proc* proc_ = nullptr;
  int context_ = -1;
  std::shared_ptr<const std::vector<int>> members_;
  int rank_ = -1;
  coll::CollPolicy coll_policy_;
};

/// Handle for a nonblocking operation.
class Request {
 public:
  Request() = default;

  /// Blocks until completion; returns receive status (sends return a
  /// default-constructed Status).
  Status wait();

  /// Completes without blocking if possible; true on completion.
  bool test(Status* status = nullptr);

  bool done() const noexcept { return done_; }

  /// Waits on every request in order.
  static void wait_all(std::span<Request> requests);

  /// Completes one not-yet-done request and returns its index (round-robin
  /// polling over pending receives; like MPI_Waitany). Returns -1 when every
  /// request is already done.
  static int wait_any(std::span<Request> requests, Status* status = nullptr);

 private:
  friend class Comm;

  static Request completed_send() {
    Request r;
    r.done_ = true;
    return r;
  }

  static Request pending_recv(const Comm& comm, std::span<std::byte> buffer,
                              int src, int tag) {
    Request r;
    r.comm_ = comm;
    r.buffer_ = buffer;
    r.src_ = src;
    r.tag_ = tag;
    return r;
  }

  Comm comm_;
  std::span<std::byte> buffer_;
  int src_ = kAnySource;
  int tag_ = kAnyTag;
  bool done_ = false;
  Status status_;
};

// --- template implementations ----------------------------------------------

template <typename T>
Request Comm::isend(std::span<const T> data, int dst, int tag) const {
  static_assert(std::is_trivially_copyable_v<T>);
  return isend_bytes(std::as_bytes(data), dst, tag);
}

template <typename T>
Request Comm::irecv(std::span<T> buffer, int src, int tag) const {
  static_assert(std::is_trivially_copyable_v<T>);
  return irecv_bytes(std::as_writable_bytes(buffer), src, tag);
}

template <typename T, typename Op>
void Comm::reduce(std::span<const T> in, std::span<T> out, Op op,
                  int root) const {
  static_assert(std::is_trivially_copyable_v<T>);
  check_member_rank(root, "reduce root");
  support::require(rank() != root || out.size() >= in.size(),
                   "reduce: output buffer too small at root");
  if (size() == 1) {
    std::copy(in.begin(), in.end(), out.begin());
    return;
  }
  const std::size_t bytes = in.size() * sizeof(T);
  const int algo = coll_select(coll::CollOp::kReduce, bytes);
  const double start = proc_->clock();
  std::vector<T> acc(in.begin(), in.end());
  coll::run_schedule(*this,
                     *coll_schedule(coll::CollOp::kReduce, algo, root,
                                    in.size(), sizeof(T)),
                     std::span<T>(acc), op, internal_tag::kReduceBase);
  if (rank() == root) {
    std::copy(acc.begin(), acc.end(), out.begin());
  }
  coll_finish(coll::CollOp::kReduce, start);
}

template <typename T, typename Op>
void Comm::allreduce(std::span<const T> in, std::span<T> out, Op op) const {
  static_assert(std::is_trivially_copyable_v<T>);
  support::require(out.size() >= in.size(),
                   "allreduce: output buffer too small");
  if (size() == 1) {
    std::copy(in.begin(), in.end(), out.begin());
    return;
  }
  const std::size_t bytes = in.size() * sizeof(T);
  const int algo = coll_select(coll::CollOp::kAllreduce, bytes);
  const double start = proc_->clock();
  std::vector<T> acc(in.begin(), in.end());
  coll::run_schedule(*this,
                     *coll_schedule(coll::CollOp::kAllreduce, algo, 0,
                                    in.size(), sizeof(T)),
                     std::span<T>(acc), op, internal_tag::kAllreduceBase);
  std::copy(acc.begin(), acc.end(), out.begin());
  coll_finish(coll::CollOp::kAllreduce, start);
}

template <typename T, typename Op>
void Comm::reduce_scatter(std::span<const T> in, std::span<T> out,
                          Op op) const {
  static_assert(std::is_trivially_copyable_v<T>);
  const int n = size();
  support::require(in.size() % static_cast<std::size_t>(n) == 0,
                   "reduce_scatter: input size not divisible by size()");
  const std::size_t block = in.size() / static_cast<std::size_t>(n);
  support::require(out.size() >= block,
                   "reduce_scatter: output buffer too small");
  if (n == 1) {
    std::copy(in.begin(), in.end(), out.begin());
    return;
  }
  const std::size_t bytes = in.size() * sizeof(T);
  const int algo = coll_select(coll::CollOp::kReduceScatter, bytes);
  const double start = proc_->clock();
  std::vector<T> acc(in.begin(), in.end());
  coll::run_schedule(*this,
                     *coll_schedule(coll::CollOp::kReduceScatter, algo,
                                    0, block, sizeof(T)),
                     std::span<T>(acc), op, internal_tag::kReduceScatterBase);
  const auto mine = std::span<const T>(acc).subspan(
      block * static_cast<std::size_t>(rank()), block);
  std::copy(mine.begin(), mine.end(), out.begin());
  coll_finish(coll::CollOp::kReduceScatter, start);
}

template <typename T>
void Comm::allgather(std::span<const T> send_data, std::span<T> recv_data) const {
  static_assert(std::is_trivially_copyable_v<T>);
  const int n = size();
  const std::size_t block = send_data.size();
  support::require(recv_data.size() >= block * static_cast<std::size_t>(n),
                   "allgather: receive buffer too small");
  std::copy(send_data.begin(), send_data.end(),
            recv_data.begin() + static_cast<std::ptrdiff_t>(
                                    block * static_cast<std::size_t>(rank())));
  if (n == 1) return;
  const std::size_t bytes = block * static_cast<std::size_t>(n) * sizeof(T);
  const int algo = coll_select(coll::CollOp::kAllgather, bytes);
  const double start = proc_->clock();
  // Allgather schedules only copy blocks around; the combiner is never used.
  coll::run_schedule(*this,
                     *coll_schedule(coll::CollOp::kAllgather, algo, 0,
                                    block, sizeof(T)),
                     recv_data,
                     [](const T& a, const T&) { return a; },
                     internal_tag::kAllgatherBase);
  coll_finish(coll::CollOp::kAllgather, start);
}

template <typename T>
void Comm::gather(std::span<const T> send_data, std::span<T> recv_data,
                  int root) const {
  static_assert(std::is_trivially_copyable_v<T>);
  check_member_rank(root, "gather root");
  const std::size_t count = send_data.size();
  if (rank() == root) {
    support::require(recv_data.size() >= count * static_cast<std::size_t>(size()),
                     "gather: receive buffer too small at root");
    std::copy(send_data.begin(), send_data.end(),
              recv_data.begin() + static_cast<std::ptrdiff_t>(
                                      count * static_cast<std::size_t>(root)));
    for (int r = 0; r < size(); ++r) {
      if (r == root) continue;
      recv(recv_data.subspan(count * static_cast<std::size_t>(r), count), r,
           internal_tag::kGather);
    }
  } else {
    send(send_data, root, internal_tag::kGather);
  }
}

template <typename T>
void Comm::scatter(std::span<const T> send_data, std::span<T> recv_data,
                   int root) const {
  static_assert(std::is_trivially_copyable_v<T>);
  check_member_rank(root, "scatter root");
  const std::size_t count = recv_data.size();
  if (rank() == root) {
    support::require(send_data.size() >= count * static_cast<std::size_t>(size()),
                     "scatter: send buffer too small at root");
    for (int r = 0; r < size(); ++r) {
      if (r == root) continue;
      send(send_data.subspan(count * static_cast<std::size_t>(r), count), r,
           internal_tag::kScatter);
    }
    auto self = send_data.subspan(count * static_cast<std::size_t>(root), count);
    std::copy(self.begin(), self.end(), recv_data.begin());
  } else {
    recv(recv_data, root, internal_tag::kScatter);
  }
}

template <typename T>
void Comm::alltoall(std::span<const T> send_data, std::span<T> recv_data) const {
  static_assert(std::is_trivially_copyable_v<T>);
  const int n = size();
  support::require(send_data.size() % static_cast<std::size_t>(n) == 0,
                   "alltoall: send size not divisible by communicator size");
  const std::size_t count = send_data.size() / static_cast<std::size_t>(n);
  support::require(recv_data.size() >= send_data.size(),
                   "alltoall: receive buffer too small");
  // Self piece.
  {
    auto self = send_data.subspan(count * static_cast<std::size_t>(rank()), count);
    std::copy(self.begin(), self.end(),
              recv_data.begin() +
                  static_cast<std::ptrdiff_t>(count * static_cast<std::size_t>(rank())));
  }
  // Pairwise rounds: in round s, send to rank+s, receive from rank-s. Each
  // round is a cyclic-shift permutation, so every ordered pair is covered
  // exactly once for any n — including odd n and the even-n round s == n/2
  // where dst == src (send-then-recv with the buffered substrate). The tag
  // wraps at 256 to stay inside the reserved block; per-sender FIFO keeps
  // reused tags matched in order.
  for (int s = 1; s < n; ++s) {
    const int dst = (rank() + s) % n;
    const int src = (rank() - s + n) % n;
    send(send_data.subspan(count * static_cast<std::size_t>(dst), count), dst,
         internal_tag::kAlltoallBase + (s & 0xff));
    recv(recv_data.subspan(count * static_cast<std::size_t>(src), count), src,
         internal_tag::kAlltoallBase + (s & 0xff));
  }
}

template <typename T>
void Comm::gatherv(std::span<const T> send_data, std::span<T> recv_data,
                   std::span<const int> counts, std::span<const int> displs,
                   int root) const {
  static_assert(std::is_trivially_copyable_v<T>);
  check_member_rank(root, "gatherv root");
  if (rank() == root) {
    support::require(counts.size() == static_cast<std::size_t>(size()) &&
                         displs.size() == static_cast<std::size_t>(size()),
                     "gatherv: counts/displs must have one entry per rank");
    for (int r = 0; r < size(); ++r) {
      const auto count = static_cast<std::size_t>(counts[static_cast<std::size_t>(r)]);
      const auto displ = static_cast<std::size_t>(displs[static_cast<std::size_t>(r)]);
      support::require(displ + count <= recv_data.size(),
                       "gatherv: receive buffer too small");
      auto slot = recv_data.subspan(displ, count);
      if (r == root) {
        support::require(send_data.size() == count,
                         "gatherv: root contribution size mismatch");
        std::copy(send_data.begin(), send_data.end(), slot.begin());
      } else {
        Status s = recv(slot, r, internal_tag::kGatherv);
        support::require(s.bytes == count * sizeof(T),
                         "gatherv: contribution size mismatch");
      }
    }
  } else {
    send(send_data, root, internal_tag::kGatherv);
  }
}

template <typename T>
void Comm::scatterv(std::span<const T> send_data, std::span<const int> counts,
                    std::span<const int> displs, std::span<T> recv_data,
                    int root) const {
  static_assert(std::is_trivially_copyable_v<T>);
  check_member_rank(root, "scatterv root");
  if (rank() == root) {
    support::require(counts.size() == static_cast<std::size_t>(size()) &&
                         displs.size() == static_cast<std::size_t>(size()),
                     "scatterv: counts/displs must have one entry per rank");
    for (int r = 0; r < size(); ++r) {
      const auto count = static_cast<std::size_t>(counts[static_cast<std::size_t>(r)]);
      const auto displ = static_cast<std::size_t>(displs[static_cast<std::size_t>(r)]);
      support::require(displ + count <= send_data.size(),
                       "scatterv: send buffer too small");
      auto piece = send_data.subspan(displ, count);
      if (r == root) {
        support::require(recv_data.size() == count,
                         "scatterv: root receive size mismatch");
        std::copy(piece.begin(), piece.end(), recv_data.begin());
      } else {
        send(piece, r, internal_tag::kScatterv);
      }
    }
  } else {
    recv(recv_data, root, internal_tag::kScatterv);
  }
}

template <typename T, typename Op>
void Comm::scan(std::span<const T> in, std::span<T> out, Op op) const {
  static_assert(std::is_trivially_copyable_v<T>);
  support::require(out.size() >= in.size(), "scan: output buffer too small");
  std::vector<T> acc(in.begin(), in.end());
  if (rank() > 0) {
    std::vector<T> incoming(in.size());
    recv(std::span<T>(incoming), rank() - 1, internal_tag::kScan);
    for (std::size_t i = 0; i < acc.size(); ++i) {
      acc[i] = op(incoming[i], acc[i]);
    }
  }
  if (rank() + 1 < size()) {
    send(std::span<const T>(acc), rank() + 1, internal_tag::kScan);
  }
  std::copy(acc.begin(), acc.end(), out.begin());
}

}  // namespace hmpi::mp
