// Shared constants and small value types of the message-passing substrate.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>

namespace hmpi::mp {

/// Wildcard source rank for receives (like MPI_ANY_SOURCE).
inline constexpr int kAnySource = -1;
/// Wildcard tag for receives (like MPI_ANY_TAG).
inline constexpr int kAnyTag = -1;

/// Timeout of a blocking wait that names none. Timeouts only order the
/// waits a stalled world fails first (docs/simulator.md); one without an
/// explicit timeout ranks after every explicit one.
inline constexpr double kNoTimeout = std::numeric_limits<double>::infinity();

/// Highest user tag; tags above it (and all negative tags) are reserved for
/// the library's internal collective algorithms.
inline constexpr int kMaxUserTag = (1 << 20) - 1;

/// Completion information of a receive (like MPI_Status).
struct Status {
  int source = kAnySource;     ///< Rank of the sender within the communicator.
  int tag = kAnyTag;           ///< Tag of the matched message.
  std::size_t bytes = 0;       ///< Payload size in bytes.
  double arrival_time = 0.0;   ///< Virtual time the message fully arrived.
};

/// Per-process counters accumulated over a run.
struct Stats {
  std::uint64_t msgs_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t msgs_received = 0;
  std::uint64_t bytes_received = 0;
  double compute_units = 0.0;  ///< Total benchmark units executed.
  double compute_time = 0.0;   ///< Virtual seconds spent computing.
  double wait_time = 0.0;      ///< Virtual seconds the clock jumped at receives.
};

}  // namespace hmpi::mp
