#include "wire_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace perfbench {

bool WireClient::Connect(uint16_t port) {
  Close();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    Close();
    return false;
  }
  return true;
}

bool WireClient::Send(std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    bytes.remove_prefix(static_cast<size_t>(n));
  }
  return true;
}

std::optional<std::string> WireClient::Receive() {
  char chunk[65536];
  for (;;) {
    const size_t available = buffer_.size() - offset_;
    if (available >= 4) {
      uint32_t length = 0;
      for (int i = 3; i >= 0; --i) {
        length = (length << 8) | static_cast<uint8_t>(buffer_[offset_ + i]);
      }
      if (available >= 4 + static_cast<size_t>(length)) {
        std::string payload = buffer_.substr(offset_ + 4, length);
        offset_ += 4 + static_cast<size_t>(length);
        return payload;
      }
    }
    buffer_.erase(0, offset_);
    offset_ = 0;
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return std::nullopt;
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

void WireClient::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buffer_.clear();
  offset_ = 0;
}

}  // namespace perfbench
