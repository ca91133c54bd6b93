// A minimal blocking LTCQ client over loopback TCP: one connection,
// whole frames in and out. One thread may send while another receives.
#ifndef PERFBENCH_WIRE_CLIENT_H_
#define PERFBENCH_WIRE_CLIENT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace perfbench {

class WireClient {
 public:
  WireClient() = default;
  ~WireClient() { Close(); }
  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  bool Connect(uint16_t port);
  // Writes all of `bytes` (already framed).
  bool Send(std::string_view bytes);
  // Reads one frame; nullopt on EOF or error.
  std::optional<std::string> Receive();
  void Close();

 private:
  int fd_ = -1;
  std::string buffer_;  // received bytes; frames before offset_ are consumed
  size_t offset_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_WIRE_CLIENT_H_
