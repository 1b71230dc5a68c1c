// Chunk format of the durability engine.
//
// A checkpoint slot image is no longer an opaque byte stream: it is a
// self-describing sequence of fixed-size chunks, each carrying an integrity
// header, so that
//   * chunks can be serialized independently (the WritePipeline parallelizes
//     the save across --ckpt_threads workers at deterministic image offsets),
//   * unchanged chunks can be skipped (incremental checkpointing is a dirty-
//     chunk filter over the same engine, not a parallel implementation), and
//   * a crash mid-save leaves *detectable* evidence: a torn slot mixes chunk
//     versions / breaks CRCs instead of silently memcpy-ing garbage back.
//
// Slot image layout (all offsets fixed by the object set and chunk size):
//
//   [SlotHeader][u64 object_bytes[object_count]]     <- written LAST in a save
//   [ChunkHeader][payload] [ChunkHeader][payload] ...<- chunk_count entries
//
// The slot header is written after every chunk landed, and the backend's
// (slot, version) marker is committed after that — exactly the double-buffer
// commit order the seed used, so a crash mid-checkpoint still leaves the
// previous checkpoint intact.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "checkpoint/codec.hpp"

namespace adcc::checkpoint {

/// A view of one application object included in checkpoints. Zero-byte
/// objects are legal (they occupy a table entry but no chunks).
struct ObjectView {
  std::string name;
  void* data = nullptr;
  std::size_t bytes = 0;
};

/// Total payload bytes of an object set.
std::size_t total_bytes(std::span<const ObjectView> objs);

/// CRC-32 (IEEE, reflected 0xEDB88320). `seed` chains a previous result:
/// crc32(b, n, crc32(a, m)) is the CRC of a followed by b. Inputs of 64 bytes
/// and more fold 16-byte blocks with PCLMULQDQ when the CPU has it; shorter
/// inputs, tail bytes and other CPUs use a slicing-by-4 table loop. Both give
/// the same value, so on-media images do not depend on the CPU.
std::uint32_t crc32(const void* data, std::size_t bytes, std::uint32_t seed = 0);

/// The kernel crc32 runs on this CPU: "pclmul" or "table".
const char* crc32_kernel();

/// How the engine splits and serializes a checkpoint.
struct ChunkConfig {
  std::size_t chunk_bytes = 256u << 10;  ///< Payload bytes per chunk.
  int threads = 1;                       ///< --ckpt_threads (pipeline workers).
  /// --ckpt_async: CheckpointSet::save dispatches to save_async (stage +
  /// background drain) instead of blocking through the device window.
  bool async = false;
  /// --ckpt_compress: per-chunk payload codec applied on the pipeline workers
  /// before the device-bandwidth queue (see codec.hpp). Chunks that do not
  /// shrink fall back to raw storage individually.
  CodecSpec compress;
  /// --ckpt_async_depth: staging-arena ring depth for save_async. Depth 1 is
  /// the classic one-drain-in-flight handshake; deeper rings let bursty units
  /// stage save K+1 while save K still drains (the backend serializes the
  /// drains FIFO, so commit order — and crash semantics — are unchanged).
  int async_depth = 1;
  /// --ckpt_dirty_commit: mostly-clean images skip whole-slot alternation —
  /// saves rewrite only dirty chunks in place in the committed slot and
  /// refresh clean chunks' epoch stamps, with the marker still committing
  /// last. A crash mid-save risks the in-place image (torn-slot salvage or
  /// the aged other slot recover it); see checkpoint_set.hpp.
  bool dirty_commit = false;
};

inline constexpr std::uint32_t kSlotMagic = 0x41444343u;   // "ADCC"
inline constexpr std::uint32_t kChunkMagic = 0x41446B63u;  // "ADkc"
/// Format 2: 56-byte ChunkHeader with per-chunk epoch stamps and the
/// compression fields (stored_bytes / codec / stored_crc).
inline constexpr std::uint32_t kChunkFormat = 2;

/// Fixed-size slot prologue; the object-size table (u64 per object) follows.
struct SlotHeader {
  std::uint32_t magic = 0;
  std::uint32_t format = 0;
  std::uint64_t version = 0;       ///< Checkpoint version of the slot image.
  std::uint64_t chunk_bytes = 0;   ///< Payload capacity the image was cut with.
  std::uint64_t payload_bytes = 0;
  std::uint32_t object_count = 0;
  std::uint32_t chunk_count = 0;
  std::uint32_t table_crc = 0;     ///< CRC of the object-size table.
  std::uint32_t header_crc = 0;    ///< CRC of this struct with header_crc = 0.
};
static_assert(sizeof(SlotHeader) == 48);

/// Per-chunk prologue, immediately followed by the stored payload bytes
/// (stored_bytes <= payload_bytes; the chunk's image region is always sized
/// for the raw payload, compressed chunks simply write it short).
struct ChunkHeader {
  std::uint32_t magic = 0;
  std::uint32_t object = 0;         ///< Object index in registration order.
  std::uint32_t index = 0;          ///< Chunk index within the object.
  std::uint32_t payload_bytes = 0;  ///< Raw (decompressed) payload bytes.
  std::uint64_t version = 0;        ///< Version of the save that wrote it.
  /// Newest save this chunk's payload was verified valid for (>= version):
  /// dirty-commit saves re-stamp clean chunks' epochs instead of rewriting
  /// them, so a copy is good for every version in [version, epoch] — the
  /// coherence interval torn-slot salvage unions over.
  std::uint64_t epoch = 0;
  std::uint32_t stored_bytes = 0;   ///< Bytes on media after this header.
  std::uint32_t codec = 0;          ///< checkpoint::Codec of the stored bytes.
  std::uint32_t payload_crc = 0;    ///< CRC of the raw payload.
  std::uint32_t stored_crc = 0;     ///< CRC of the stored (possibly compressed) bytes.
  std::uint32_t reserved = 0;
  std::uint32_t header_crc = 0;     ///< CRC of this struct with header_crc = 0.
};
static_assert(sizeof(ChunkHeader) == 56);

std::uint32_t slot_header_crc(const SlotHeader& h);
std::uint32_t chunk_header_crc(const ChunkHeader& h);

/// The deterministic chunk decomposition of an object set: every chunk's
/// identity and image offset is a pure function of (objects, chunk_bytes), so
/// pipeline workers write disjoint spans and images are byte-identical across
/// worker counts.
struct ChunkLayout {
  struct Chunk {
    std::uint32_t object = 0;
    std::uint32_t index = 0;
    std::size_t object_offset = 0;
    std::uint32_t payload_bytes = 0;
    std::size_t image_offset = 0;  ///< Of the ChunkHeader.
  };

  std::vector<Chunk> chunks;
  std::vector<std::uint64_t> object_bytes;
  std::size_t header_bytes = 0;  ///< SlotHeader + object-size table.
  std::size_t image_bytes = 0;
  std::size_t payload_bytes = 0;

  static ChunkLayout make(std::span<const ObjectView> objs, std::size_t chunk_bytes);
};

/// Slot capacity one checkpoint of `objs` needs under `chunk_bytes` chunking
/// (payload + chunk headers + slot header) — for sizing NVM slot allocations.
std::size_t checkpoint_image_bytes(std::span<const ObjectView> objs, std::size_t chunk_bytes);

}  // namespace adcc::checkpoint
