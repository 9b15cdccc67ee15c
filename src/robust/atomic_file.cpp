#include "robust/atomic_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "robust/faultpoint.h"

namespace pg::robust {

namespace {

[[noreturn]] void fail(int fd, const std::string& tmp, const std::string& what) {
  const std::string reason = std::strerror(errno);
  if (fd >= 0) ::close(fd);
  ::unlink(tmp.c_str());
  throw std::runtime_error("atomic write: " + what + " " + tmp + ": " +
                           reason);
}

}  // namespace

void atomic_write_file(const std::string& path, std::string_view content,
                       std::string_view site, std::uint64_t arg) {
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) fail(-1, tmp, "cannot create");

  std::size_t written = 0;
  while (written < content.size()) {
    const ssize_t n =
        ::write(fd, content.data() + written, content.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail(fd, tmp, "cannot write");
    }
    written += static_cast<std::size_t>(n);
  }

  // The injection point sits between write and fsync+rename -- the worst
  // moment: `crash` leaves only the temp file (the final path is intact
  // or absent, never torn), `short-write` truncates and renames anyway
  // to exercise loaders against a torn final file. An injected `throw`
  // cleans up like a real failure: no leaked fd, no temp left behind.
  FaultHit hit;
  try {
    hit = faultpoint(site, arg);
  } catch (...) {
    ::close(fd);
    ::unlink(tmp.c_str());
    throw;
  }
  if (hit.short_write && content.size() > 1) {
    if (::ftruncate(fd, static_cast<off_t>(content.size() / 2)) != 0) {
      fail(fd, tmp, "cannot truncate");
    }
  }

  if (::fsync(fd) != 0) fail(fd, tmp, "cannot fsync");
  if (::close(fd) != 0) fail(-1, tmp, "cannot close");
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    fail(-1, tmp, "cannot rename into place:");
  }
}

}  // namespace pg::robust
