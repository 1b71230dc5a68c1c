// Local hard-drive checkpointing (the paper's test case 2).
//
// Chunk spans are pwritten at their fixed image offsets into per-slot files
// and synced with fdatasync at the save epilogue. Because modern CI storage
// is much faster than the 2017 local HDD the paper measured, an optional
// device bandwidth model (default 150 MB/s) preserves the figure's shape:
// every span occupies a window on a single modeled device queue and the
// writing worker waits until its window closes. With one pipeline worker
// that reproduces the seed's synchronous-write timing; with --ckpt_threads
// > 1 the next chunk's serialization + CRC overlaps the previous chunk's
// device window, which is exactly how a pipelined checkpointer beats a
// synchronous one on real hardware. Pass 0 to disable the model and measure
// the real device.
#pragma once

#include <filesystem>
#include <mutex>

#include "checkpoint/backend.hpp"

namespace adcc::checkpoint {

struct FileBackendConfig {
  std::filesystem::path directory;          ///< Created if absent.
  double throttle_bytes_per_s = 150e6;      ///< 0 → no device model.
  bool sync = true;                         ///< fdatasync at finish_slot.
};

class FileBackend final : public Backend {
 public:
  explicit FileBackend(const FileBackendConfig& cfg);
  ~FileBackend() override;

  std::pair<int, std::uint64_t> latest() const override;

 protected:
  void begin_slot(int slot, std::size_t image_bytes) override;
  void write_span(int slot, std::size_t offset, const void* src, std::size_t bytes) override;
  void finish_slot(int slot) override;
  void commit_marker(int slot, std::uint64_t version) override;
  std::size_t read_span(int slot, std::size_t offset, void* dst,
                        std::size_t bytes) const override;

 private:
  std::filesystem::path slot_path(int slot) const;
  std::filesystem::path meta_path() const;

  FileBackendConfig cfg_;
  int fds_[2] = {-1, -1};  ///< Open during a save (begin_slot .. finish_slot).
  mutable int read_fds_[2] = {-1, -1};  ///< Lazily opened, one per slot.

  // Modeled device queue: write_span reserves [start, start + bytes/bw) under
  // the lock, then waits outside it until its window closes — so concurrent
  // workers never exceed the device bandwidth in aggregate. The wait sleeps,
  // leaving the worker's CPU free for the next chunk's serialization, except
  // for a window shorter than the timer slack, which it spins out.
  std::mutex device_mu_;
  double device_free_at_ = 0.0;
};

}  // namespace adcc::checkpoint
