// FileBackend's loops (the device-window spin, the span writes) start on
// 32-byte boundaries, so their timing does not move with the size of earlier
// translation units (see kernels/serial/serial_backend.cpp).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC optimize("align-loops=32")
#endif

#include "checkpoint/file_backend.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <chrono>
#include <thread>

#include "common/check.hpp"
#include "common/timer.hpp"

namespace adcc::checkpoint {

FileBackend::FileBackend(const FileBackendConfig& cfg) : cfg_(cfg) {
  ADCC_CHECK(!cfg_.directory.empty(), "FileBackend needs a directory");
  std::filesystem::create_directories(cfg_.directory);
}

FileBackend::~FileBackend() {
  // A cell that errored mid-drain destroys its env (and this backend) while
  // the drain thread may still be pwriting into the slot files: join it
  // before any fd is closed or the scratch directory is removed, or the
  // cleanup races the drain (unlinked-but-open slot files, resurrected
  // directories).
  teardown_drain();
  for (int& fd : fds_) {
    if (fd >= 0) ::close(fd);
  }
  for (int& fd : read_fds_) {
    if (fd >= 0) ::close(fd);
  }
  std::error_code ec;
  std::filesystem::remove(slot_path(0), ec);
  std::filesystem::remove(slot_path(1), ec);
  std::filesystem::remove(meta_path(), ec);
  // Drop the scratch directory we created when this backend was the last user
  // (remove() refuses non-empty directories, so concurrent backends sharing a
  // directory — ctest -j — are safe). Without this, repeated smoke runs
  // accumulate one empty per-pid directory per adccbench/test invocation.
  std::filesystem::remove(cfg_.directory, ec);
}

std::filesystem::path FileBackend::slot_path(int slot) const {
  return cfg_.directory / ("slot" + std::to_string(slot) + ".ckpt");
}

std::filesystem::path FileBackend::meta_path() const { return cfg_.directory / "meta.ckpt"; }

void FileBackend::begin_slot(int slot, std::size_t image_bytes) {
  // A crash injected mid-save unwinds past finish_slot and leaves the write
  // fd open; reclaim it here so repeated crash scenarios cannot leak fds.
  if (fds_[slot] >= 0) {
    ::close(fds_[slot]);
    fds_[slot] = -1;
  }
  // No O_TRUNC: preserved content is what makes the dirty-chunk filter valid
  // for files too — clean chunks keep their bytes from the previous save to
  // this slot. The image size is fixed by the object set, so the ftruncate is
  // a no-op after the first save.
  const int fd = ::open(slot_path(slot).c_str(), O_WRONLY | O_CREAT, 0644);
  ADCC_CHECK(fd >= 0, "cannot open checkpoint slot file");
  ADCC_CHECK(::ftruncate(fd, static_cast<off_t>(image_bytes)) == 0,
             "cannot size checkpoint slot file");
  fds_[slot] = fd;
  device_free_at_ = now_seconds();
}

void FileBackend::write_span(int slot, std::size_t offset, const void* src,
                             std::size_t bytes) {
  ADCC_CHECK(fds_[slot] >= 0, "write_span outside begin_slot/finish_slot");
  const char* p = static_cast<const char*>(src);
  std::size_t done = 0;
  while (done < bytes) {
    const ssize_t w = ::pwrite(fds_[slot], p + done, bytes - done,
                               static_cast<off_t>(offset + done));
    ADCC_CHECK(w > 0, "checkpoint write failed");
    done += static_cast<std::size_t>(w);
  }
  if (cfg_.throttle_bytes_per_s > 0) {
    double window_end;
    {
      std::lock_guard<std::mutex> lock(device_mu_);
      const double start = std::max(now_seconds(), device_free_at_);
      device_free_at_ = start + static_cast<double>(bytes) / cfg_.throttle_bytes_per_s;
      window_end = device_free_at_;
    }
    // A sleep lasts at least the kernel's timer slack (50 us by default), so
    // a shorter window — a small chunk or the slot header — is spun out:
    // sleeping would charge the scheduler's wake-up latency, not the window.
    constexpr double kTimerSlack = 50e-6;
    const double wait = window_end - now_seconds();
    if (wait >= kTimerSlack) {
      std::this_thread::sleep_for(std::chrono::duration<double>(wait));
    } else {
      while (now_seconds() < window_end) {
      }
    }
  }
}

void FileBackend::finish_slot(int slot) {
  ADCC_CHECK(fds_[slot] >= 0, "finish_slot without begin_slot");
  if (cfg_.sync) ::fdatasync(fds_[slot]);
  ::close(fds_[slot]);
  fds_[slot] = -1;
}

void FileBackend::commit_marker(int slot, std::uint64_t version) {
  // The record is overwritten in place. Truncating first would free and
  // reallocate the file's block on every commit, turning each fdatasync into
  // a filesystem-journal commit, and would leave an empty marker between the
  // truncate and the write.
  const int mfd = ::open(meta_path().c_str(), O_WRONLY | O_CREAT, 0644);
  ADCC_CHECK(mfd >= 0, "cannot open checkpoint meta file");
  std::uint64_t rec[2] = {static_cast<std::uint64_t>(slot), version};
  ADCC_CHECK(::pwrite(mfd, rec, sizeof(rec), 0) == sizeof(rec), "meta write failed");
  if (cfg_.sync) ::fdatasync(mfd);
  ::close(mfd);
}

std::size_t FileBackend::read_span(int slot, std::size_t offset, void* dst,
                                   std::size_t bytes) const {
  // One lazily-opened read fd per slot: load()/probe_torn() issue one
  // read_span per chunk, and an open/close pair each would dominate small
  // chunks. The fd stays valid across saves (same inode, never truncated
  // away) and is closed by the destructor.
  int& fd = read_fds_[slot];
  if (fd < 0) fd = ::open(slot_path(slot).c_str(), O_RDONLY);
  if (fd < 0) return 0;
  char* p = static_cast<char*>(dst);
  std::size_t done = 0;
  while (done < bytes) {
    const ssize_t r = ::pread(fd, p + done, bytes - done, static_cast<off_t>(offset + done));
    if (r <= 0) break;
    done += static_cast<std::size_t>(r);
  }
  return done;
}

std::pair<int, std::uint64_t> FileBackend::latest() const {
  std::uint64_t rec[2] = {0, 0};
  const int fd = ::open(meta_path().c_str(), O_RDONLY);
  if (fd < 0) return {0, 0};
  const ssize_t r = ::read(fd, rec, sizeof(rec));
  ::close(fd);
  if (r != sizeof(rec)) return {0, 0};
  return {static_cast<int>(rec[0]), rec[1]};
}

}  // namespace adcc::checkpoint
