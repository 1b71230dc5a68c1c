// Per-chunk payload compression for the durability engine (--ckpt_compress).
//
// The codec trades CPU on the --ckpt_threads pipeline workers for modeled
// device bandwidth: chunks are compressed *before* they enter the backend's
// device-bandwidth queue, so a 15% size cut is a 15% shorter device window —
// and, because checkpoint overhead is the part of the device time the compute
// window cannot hide, the overhead cut is amplified beyond the size cut.
//
// The scheme is a fast in-tree byte-plane transform (no external deps),
// aimed at the engine's dominant payload — arrays of doubles whose
// neighboring values share sign/exponent structure:
//
//   1. Shuffle the payload into 8 interleaved byte planes (plane b holds the
//      bytes at positions ≡ b mod 8), so the sign/exponent bytes of an f64
//      array land together instead of being strided through random mantissa
//      bytes. The tail (payload % 8 bytes) is stored raw.
//   2. Encode each plane with the cheapest of several candidates, chosen per
//      plane by measured size: raw, constant, run-length (a control-byte RLE
//      whose worst case is +1/128), k-bit dictionary packing for planes with
//      ≤ 2/4/16 distinct byte values (exponent planes compress 2-8x this way
//      even when runs are broken by random interleaving), and — at level 2
//      — RLE over the plane's byte-delta stream (helps smoothly varying
//      exponents) plus canonical Huffman (a 128-byte nibble table of code
//      lengths, then an MSB-first bitstream), which carries the mid-entropy
//      planes the dictionary packers cannot touch.
//
// Chunks that do not shrink are stored raw (ChunkHeader::codec = kRaw), so
// incompressible payloads cost one compression attempt and zero bytes. The
// transform is a pure function of the payload bytes: slot images stay
// byte-identical across --ckpt_threads worker counts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace adcc::checkpoint {

/// Wire identifier of a chunk payload's stored encoding (ChunkHeader::codec).
enum class Codec : std::uint32_t {
  kRaw = 0,  ///< Stored bytes are the payload bytes.
  kLz = 1,   ///< Byte-plane shuffle + per-plane pack/RLE (this file).
};

/// Parsed --ckpt_compress specification: "none" or "lz[:LEVEL]", LEVEL 1 or 2.
///
/// Which level each path runs: `--ckpt_compress=lz` (and so the fuzz deck and
/// the nightly ckpt_compress gate) runs level 2; `CodecSpec{Codec::kLz}`, the
/// default level, runs level 1 — perfbench's shard_crash and dirty_commit
/// scenarios compress that way. Neither level can go: on the full
/// ckpt_compress deck (two runs, shared 4-vCPU host) level 1 cuts the
/// uncompressed overhead to 0.86-0.88x at ring depth 1 and 0.88-0.89x at
/// depth 2, missing the deck's 0.85x gate that level 2 meets (0.82-0.84x),
/// while level 2 encodes CG vectors 2.7-6x slower than level 1 for 1.5-3.8
/// points fewer stored bytes.
struct CodecSpec {
  Codec codec = Codec::kRaw;
  int level = 1;  ///< 1: shuffle + pack/RLE; 2 adds delta-RLE and Huffman.
};

/// Parses "none" | "lz" | "lz:1" | "lz:2" into `out` ("lz" is "lz:2").
/// Returns false (and fills `error`, if given) on a malformed spec or any
/// other level; `out` is untouched on failure.
bool parse_codec(std::string_view spec, CodecSpec* out, std::string* error = nullptr);

/// Compresses `bytes` payload bytes into `dst` (resized as needed). Returns
/// the stored size, or 0 when the encoding would not shrink the payload (the
/// caller stores the chunk raw; `dst` contents are then unspecified).
std::size_t lz_compress(const void* src, std::size_t bytes, std::vector<std::byte>& dst,
                        int level);

/// Decompresses a `lz_compress` stream of `stored` bytes back into exactly
/// `raw_bytes` at `dst`. Returns false on a malformed/truncated stream (the
/// torn-chunk path; `dst` may be partially written).
bool lz_decompress(const std::byte* src, std::size_t stored, void* dst, std::size_t raw_bytes);

}  // namespace adcc::checkpoint
