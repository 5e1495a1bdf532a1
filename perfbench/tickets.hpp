// The svc workload's exactly-once check on completion tickets.
#pragma once

#include <array>
#include <cstdint>

namespace perfbench {

/// Exactly-once accounting of one client's tickets in constant memory.
/// Valid while fewer than kWindow requests are in flight: then ticket
/// t - kWindow has completed by the time ticket t is handed out, and one ring
/// of kWindow bits covers every ticket still open.
class TicketWindow {
 public:
  static constexpr std::uint64_t kWindow = 1024;

  /// Ticket `t` was handed out. False when ticket t - kWindow never
  /// completed.
  bool hand_out(std::uint64_t t) {
    const bool ok = t <= kWindow || test(t);
    bits_[slot(t) / 64] &= ~bit(t);
    return ok;
  }

  /// Ticket `t` completed, with `handed` tickets handed out so far. False
  /// for a duplicate, a stale ticket, or one never handed out.
  bool complete(std::uint64_t t, std::uint64_t handed) {
    if (t == 0 || t > handed || t + kWindow <= handed || test(t)) return false;
    bits_[slot(t) / 64] |= bit(t);
    return true;
  }

  /// Every ticket still inside the window completed.
  bool all_complete(std::uint64_t handed) const {
    for (std::uint64_t t = handed > kWindow ? handed - kWindow + 1 : 1;
         t <= handed; ++t) {
      if (!test(t)) return false;
    }
    return true;
  }

 private:
  static std::uint64_t slot(std::uint64_t t) { return t % kWindow; }
  static std::uint64_t bit(std::uint64_t t) {
    return std::uint64_t{1} << (slot(t) % 64);
  }
  bool test(std::uint64_t t) const {
    return (bits_[slot(t) / 64] & bit(t)) != 0;
  }

  std::array<std::uint64_t, kWindow / 64> bits_{};
};

}  // namespace perfbench
