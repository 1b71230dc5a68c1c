#include "checkpoint/codec.hpp"

#include <algorithm>
#include <array>
#include <cstring>

namespace adcc::checkpoint {

namespace {

// Stream layout (after the ChunkHeader, which records stored/raw sizes):
//   [u8 plane_count == kPlanes]
//   kPlanes x ( [u8 method] [u32le enc_len] [enc_len bytes] )
//   [raw tail: payload % kPlanes bytes]
constexpr std::size_t kPlanes = 8;        // f64 lanes.
constexpr std::size_t kMinPayload = 64;   // Below this the headers dominate.

enum Method : std::uint8_t {
  kMethodRaw = 0,
  kMethodConst = 1,
  kMethodRle = 2,
  kMethodPack4 = 3,  // 16-entry table, 2 values/byte.
  kMethodPack2 = 4,  // 4-entry table, 4 values/byte.
  kMethodPack1 = 5,  // 2-entry table, 8 values/byte.
  kMethodDeltaRle = 6,
  kMethodHuff = 7,   // Canonical Huffman, 128-byte nibble length table.
};

constexpr std::size_t kNoFit = static_cast<std::size_t>(-1);

/// Control-byte RLE: c < 128 copies the next c+1 literal bytes; c >= 128
/// repeats the next byte c-126 times (runs 3..129 are encoded, shorter runs
/// ride the literal stream). Worst case: +1 byte per 128 literals.
std::size_t rle_encode(const std::uint8_t* p, std::size_t len, std::vector<std::uint8_t>& out,
                       std::size_t budget) {
  out.clear();
  std::size_t i = 0;
  std::size_t lit_start = 0;
  const auto flush_literals = [&](std::size_t end) {
    while (lit_start < end) {
      const std::size_t n = std::min<std::size_t>(end - lit_start, 128);
      out.push_back(static_cast<std::uint8_t>(n - 1));
      out.insert(out.end(), p + lit_start, p + lit_start + n);
      lit_start += n;
    }
  };
  while (i < len) {
    std::size_t run = 1;
    while (i + run < len && p[i + run] == p[i] && run < 129) ++run;
    if (run >= 3) {
      flush_literals(i);
      out.push_back(static_cast<std::uint8_t>(126 + run));
      out.push_back(p[i]);
      i += run;
      lit_start = i;
    } else {
      i += run;
    }
    if (out.size() + (i - lit_start) > budget) return kNoFit;
  }
  flush_literals(len);
  return out.size() > budget ? kNoFit : out.size();
}

bool rle_decode(const std::uint8_t* src, std::size_t n, std::uint8_t* dst, std::size_t len) {
  std::size_t i = 0;
  std::size_t o = 0;
  while (i < n) {
    const std::uint8_t c = src[i++];
    if (c < 128) {
      const std::size_t take = static_cast<std::size_t>(c) + 1;
      if (i + take > n || o + take > len) return false;
      std::memcpy(dst + o, src + i, take);
      i += take;
      o += take;
    } else {
      const std::size_t run = static_cast<std::size_t>(c) - 126;
      if (i >= n || o + run > len) return false;
      std::memset(dst + o, src[i++], run);
      o += run;
    }
  }
  return o == len;
}

/// k-bit dictionary packing for planes with few distinct values: a sorted
/// value table then ceil(len * k / 8) packed index bytes, first value in the
/// high bits. Exponent planes of same-magnitude doubles hit this even when
/// random interleaving defeats RLE.
struct PackPlan {
  std::uint8_t method;
  std::size_t table;   // Table entries (2 / 4 / 16).
  unsigned bits;       // Index width.
};

constexpr PackPlan kPackPlans[] = {
    {kMethodPack1, 2, 1}, {kMethodPack2, 4, 2}, {kMethodPack4, 16, 4}};

std::size_t pack_size(const PackPlan& plan, std::size_t len) {
  return plan.table + (len * plan.bits + 7) / 8;
}

void pack_encode(const PackPlan& plan, const std::uint8_t* p, std::size_t len,
                 const std::vector<std::uint8_t>& values, std::vector<std::uint8_t>& out) {
  out.assign(pack_size(plan, len), 0);
  std::array<std::uint8_t, 256> index{};
  for (std::size_t v = 0; v < values.size(); ++v) index[values[v]] = static_cast<std::uint8_t>(v);
  std::copy(values.begin(), values.end(), out.begin());
  const unsigned per_byte = 8 / plan.bits;
  for (std::size_t i = 0; i < len; ++i) {
    const unsigned shift = static_cast<unsigned>(8 - plan.bits * (i % per_byte + 1));
    out[plan.table + i / per_byte] |=
        static_cast<std::uint8_t>(index[p[i]] << shift);
  }
}

bool pack_decode(const PackPlan& plan, const std::uint8_t* src, std::size_t n,
                 std::uint8_t* dst, std::size_t len) {
  if (n != pack_size(plan, len)) return false;
  const unsigned per_byte = 8 / plan.bits;
  const std::uint8_t mask = static_cast<std::uint8_t>((1u << plan.bits) - 1u);
  for (std::size_t i = 0; i < len; ++i) {
    const unsigned shift = static_cast<unsigned>(8 - plan.bits * (i % per_byte + 1));
    dst[i] = src[(src[plan.table + i / per_byte] >> shift) & mask];
  }
  return true;
}

/// Canonical Huffman over one plane, for the mid-entropy case the dictionary
/// packers cannot touch (e.g. a low-exponent plane with hundreds of distinct
/// bytes at 6-7 bits of entropy). Stream: 128 bytes of 4-bit code lengths
/// (symbol 2i in the high nibble, 2i+1 in the low; 0 = unused symbol), then
/// the MSB-first bitstream, zero-padded to a byte. Codes are canonical —
/// assigned in (length, symbol) order — so the stream is a pure function of
/// the plane bytes and slot images stay deterministic.
constexpr unsigned kHuffMaxBits = 15;  // Lengths must fit a nibble.
constexpr std::size_t kHuffTable = 128;

/// Deterministic Huffman code lengths, capped at kHuffMaxBits. Leaves are
/// merged smallest-(freq, symbol)-first with leaves winning freq ties against
/// internal nodes, then overlong codes are shortened by deepening the longest
/// sub-cap code until the Kraft sum fits (the canonical length-limit fixup).
void huff_lengths(const std::array<std::uint32_t, 256>& freq,
                  std::array<std::uint8_t, 256>& len) {
  len.fill(0);
  std::vector<std::uint8_t> syms;
  for (int s = 0; s < 256; ++s) {
    if (freq[s] != 0) syms.push_back(static_cast<std::uint8_t>(s));
  }
  if (syms.empty()) return;
  if (syms.size() == 1) {
    len[syms[0]] = 1;
    return;
  }
  std::sort(syms.begin(), syms.end(), [&](std::uint8_t a, std::uint8_t b) {
    return freq[a] != freq[b] ? freq[a] < freq[b] : a < b;
  });

  const std::size_t n = syms.size();
  std::vector<std::uint64_t> f(syms.size());
  for (std::size_t i = 0; i < n; ++i) f[i] = freq[syms[i]];
  std::vector<std::size_t> parent(2 * n - 1, 0);
  std::size_t leaf = 0;
  std::size_t inode = n;  // Internal nodes occupy f[n .. 2n-2], created FIFO.
  const auto take = [&]() {
    if (leaf < n && (inode >= f.size() || f[leaf] <= f[inode])) return leaf++;
    return inode++;
  };
  while (f.size() < 2 * n - 1) {
    const std::size_t a = take();
    const std::size_t b = take();
    parent[a] = f.size();
    parent[b] = f.size();
    f.push_back(f[a] + f[b]);
  }
  std::vector<std::uint8_t> depth(2 * n - 1, 0);
  for (std::size_t i = 2 * n - 2; i-- > 0;) {
    depth[i] = static_cast<std::uint8_t>(depth[parent[i]] + 1);
  }
  for (std::size_t i = 0; i < n; ++i) {
    len[syms[i]] = std::min<std::uint8_t>(depth[i], kHuffMaxBits);
  }

  std::uint64_t kraft = 0;
  for (std::size_t i = 0; i < n; ++i) kraft += 1ull << (kHuffMaxBits - len[syms[i]]);
  while (kraft > (1ull << kHuffMaxBits)) {
    // Deepen the longest code still under the cap by one bit; syms is sorted
    // rarest-first so scanning it front-to-back picks a cheap victim
    // deterministically.
    std::size_t victim = n;
    for (std::size_t i = 0; i < n; ++i) {
      if (len[syms[i]] < kHuffMaxBits &&
          (victim == n || len[syms[i]] > len[syms[victim]])) {
        victim = i;
      }
    }
    ++len[syms[victim]];
    kraft -= 1ull << (kHuffMaxBits - len[syms[victim]]);
  }
}

/// Canonical code assignment from lengths: codes handed out in (length,
/// symbol) order. Returns false when the lengths oversubscribe the code space
/// (decoder-side corruption guard; encoder-built lengths always fit).
bool huff_codes(const std::array<std::uint8_t, 256>& len,
                std::array<std::uint16_t, 256>& code) {
  std::array<std::uint32_t, kHuffMaxBits + 1> count{};
  for (int s = 0; s < 256; ++s) ++count[len[s]];
  count[0] = 0;
  std::uint64_t kraft = 0;
  std::uint32_t next = 0;
  std::array<std::uint32_t, kHuffMaxBits + 1> first{};
  for (unsigned l = 1; l <= kHuffMaxBits; ++l) {
    next = (next + count[l - 1]) << 1;
    first[l] = next;
    kraft += static_cast<std::uint64_t>(count[l]) << (kHuffMaxBits - l);
  }
  if (kraft > (1ull << kHuffMaxBits)) return false;
  for (int s = 0; s < 256; ++s) {
    if (len[s] != 0) code[s] = static_cast<std::uint16_t>(first[len[s]]++);
  }
  return true;
}

std::size_t huff_encode(const std::uint8_t* p, std::size_t plane_len,
                        std::vector<std::uint8_t>& out, std::size_t budget) {
  std::array<std::uint32_t, 256> freq{};
  for (std::size_t i = 0; i < plane_len; ++i) ++freq[p[i]];
  std::array<std::uint8_t, 256> len;
  huff_lengths(freq, len);
  std::uint64_t bits = 0;
  for (int s = 0; s < 256; ++s) bits += static_cast<std::uint64_t>(freq[s]) * len[s];
  const std::size_t total = kHuffTable + (bits + 7) / 8;
  if (total > budget) return kNoFit;  // Sized from the histogram: no wasted encode.

  std::array<std::uint16_t, 256> code{};
  huff_codes(len, code);
  out.assign(total, 0);
  for (int s = 0; s < 256; ++s) {
    out[s >> 1] |= static_cast<std::uint8_t>(len[s] << ((s & 1) ? 0 : 4));
  }
  std::uint32_t acc = 0;
  unsigned nbits = 0;
  std::size_t o = kHuffTable;
  for (std::size_t i = 0; i < plane_len; ++i) {
    acc = (acc << len[p[i]]) | code[p[i]];
    nbits += len[p[i]];
    while (nbits >= 8) {
      out[o++] = static_cast<std::uint8_t>(acc >> (nbits - 8));
      nbits -= 8;
    }
  }
  if (nbits != 0) out[o++] = static_cast<std::uint8_t>(acc << (8 - nbits));
  return total;
}

bool huff_decode(const std::uint8_t* src, std::size_t n, std::uint8_t* dst,
                 std::size_t plane_len) {
  if (n < kHuffTable) return false;
  std::array<std::uint8_t, 256> len;
  for (int s = 0; s < 256; ++s) {
    len[s] = static_cast<std::uint8_t>((src[s >> 1] >> ((s & 1) ? 0 : 4)) & 0x0F);
  }
  std::array<std::uint16_t, 256> code{};
  if (!huff_codes(len, code)) return false;
  // Flat one-shot lookup: every 15-bit window resolves to (length, symbol) in
  // one load. Entries left 0 (length 0) catch windows outside the code space.
  std::vector<std::uint16_t> lut(1u << kHuffMaxBits, 0);
  for (int s = 0; s < 256; ++s) {
    if (len[s] == 0) continue;
    const std::uint32_t base = static_cast<std::uint32_t>(code[s])
                               << (kHuffMaxBits - len[s]);
    const std::uint32_t span = 1u << (kHuffMaxBits - len[s]);
    const std::uint16_t entry = static_cast<std::uint16_t>((len[s] << 8) | s);
    std::fill(lut.begin() + base, lut.begin() + base + span, entry);
  }
  std::uint32_t acc = 0;
  unsigned nbits = 0;
  std::size_t i = kHuffTable;
  for (std::size_t o = 0; o < plane_len; ++o) {
    while (nbits < kHuffMaxBits && i < n) {
      acc = (acc << 8) | src[i++];
      nbits += 8;
    }
    const std::uint32_t window =
        nbits >= kHuffMaxBits ? (acc >> (nbits - kHuffMaxBits)) & 0x7FFFu
                              : (acc << (kHuffMaxBits - nbits)) & 0x7FFFu;
    const std::uint16_t entry = lut[window];
    const unsigned l = entry >> 8;
    if (l == 0 || l > nbits) return false;
    dst[o] = static_cast<std::uint8_t>(entry & 0xFF);
    nbits -= l;
  }
  // The stream ends exactly here: sub-byte zero padding only.
  return i == n && nbits < 8 && (acc & ((1u << nbits) - 1u)) == 0;
}

void put_u32(std::vector<std::byte>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xFFu));
}

std::uint32_t get_u32(const std::byte* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

}  // namespace

bool parse_codec(std::string_view spec, CodecSpec* out, std::string* error) {
  const auto fail = [&](const std::string& msg) {
    if (error != nullptr) *error = msg;
    return false;
  };
  if (spec == "none") {
    *out = CodecSpec{Codec::kRaw, 1};
    return true;
  }
  std::string_view level_str;
  if (spec.substr(0, 2) != "lz") {
    return fail("unknown codec '" + std::string(spec) + "' (expected none|lz[:LEVEL])");
  }
  std::string_view rest = spec.substr(2);
  if (!rest.empty()) {
    if (rest[0] != ':') {
      return fail("unknown codec '" + std::string(spec) + "' (expected none|lz[:LEVEL])");
    }
    level_str = rest.substr(1);
    // Levels above 2 would run level 2's code, so they are not accepted.
    if (level_str != "1" && level_str != "2") {
      return fail("codec level '" + std::string(level_str) + "' out of range (1-2)");
    }
  }
  CodecSpec parsed;
  parsed.codec = Codec::kLz;
  parsed.level = level_str.empty() ? 2 : level_str[0] - '0';  // "lz" == "lz:2".
  *out = parsed;
  return true;
}

std::size_t lz_compress(const void* src, std::size_t bytes, std::vector<std::byte>& dst,
                        int level) {
  if (bytes < kMinPayload) return 0;
  const auto* in = static_cast<const std::uint8_t*>(src);
  const std::size_t plane_len = bytes / kPlanes;
  const std::size_t tail = bytes % kPlanes;

  dst.clear();
  dst.reserve(bytes);
  dst.push_back(static_cast<std::byte>(kPlanes));

  std::vector<std::uint8_t> plane(plane_len);
  std::vector<std::uint8_t> rle_buf;
  std::vector<std::uint8_t> delta_buf;
  std::vector<std::uint8_t> delta_rle_buf;
  std::vector<std::uint8_t> pack_buf;
  std::vector<std::uint8_t> huff_buf;
  std::vector<std::uint8_t> values;

  for (std::size_t b = 0; b < kPlanes; ++b) {
    for (std::size_t i = 0; i < plane_len; ++i) plane[i] = in[i * kPlanes + b];

    std::array<bool, 256> seen{};
    values.clear();
    for (std::size_t i = 0; i < plane_len && values.size() <= 16; ++i) {
      if (!seen[plane[i]]) {
        seen[plane[i]] = true;
        values.push_back(plane[i]);
      }
    }

    // Candidates, best (strictly smallest) wins; raw is the backstop so a
    // plane never grows past plane_len + the 5-byte record header.
    std::uint8_t method = kMethodRaw;
    std::size_t best = plane_len;
    const std::uint8_t* enc = plane.data();

    if (values.size() == 1) {
      method = kMethodConst;
      best = 1;
      enc = values.data();
    } else if (values.size() <= 16) {
      std::sort(values.begin(), values.end());
      for (const PackPlan& plan : kPackPlans) {
        if (values.size() <= plan.table && pack_size(plan, plane_len) < best) {
          pack_encode(plan, plane.data(), plane_len, values, pack_buf);
          method = plan.method;
          best = pack_buf.size();
          enc = pack_buf.data();
          break;  // Plans are ordered narrowest-first; the first fit is best.
        }
      }
    }
    if (const std::size_t n = rle_encode(plane.data(), plane_len, rle_buf, best);
        n != kNoFit && n < best) {
      method = kMethodRle;
      best = n;
      enc = rle_buf.data();
    }
    if (level >= 2) {
      delta_buf.resize(plane_len);
      std::uint8_t prev = 0;
      for (std::size_t i = 0; i < plane_len; ++i) {
        delta_buf[i] = static_cast<std::uint8_t>(plane[i] - prev);
        prev = plane[i];
      }
      if (const std::size_t n = rle_encode(delta_buf.data(), plane_len, delta_rle_buf, best);
          n != kNoFit && n < best) {
        method = kMethodDeltaRle;
        best = n;
        enc = delta_rle_buf.data();
      }
      if (const std::size_t n = huff_encode(plane.data(), plane_len, huff_buf, best);
          n != kNoFit && n < best) {
        method = kMethodHuff;
        best = n;
        enc = huff_buf.data();
      }
    }

    dst.push_back(static_cast<std::byte>(method));
    put_u32(dst, static_cast<std::uint32_t>(best));
    const auto* enc_bytes = reinterpret_cast<const std::byte*>(enc);
    dst.insert(dst.end(), enc_bytes, enc_bytes + best);
    if (dst.size() + tail >= bytes) return 0;  // Not shrinking; store raw.
  }
  const auto* tail_bytes = reinterpret_cast<const std::byte*>(in + plane_len * kPlanes);
  dst.insert(dst.end(), tail_bytes, tail_bytes + tail);
  return dst.size() < bytes ? dst.size() : 0;
}

bool lz_decompress(const std::byte* src, std::size_t stored, void* dst, std::size_t raw_bytes) {
  auto* out = static_cast<std::uint8_t*>(dst);
  if (stored < 1 || static_cast<std::size_t>(src[0]) != kPlanes) return false;
  const std::size_t plane_len = raw_bytes / kPlanes;
  const std::size_t tail = raw_bytes % kPlanes;
  std::size_t pos = 1;

  std::vector<std::uint8_t> plane(plane_len);
  for (std::size_t b = 0; b < kPlanes; ++b) {
    if (pos + 5 > stored) return false;
    const auto method = static_cast<std::uint8_t>(src[pos]);
    const std::size_t n = get_u32(src + pos + 1);
    pos += 5;
    if (pos + n > stored) return false;
    const auto* enc = reinterpret_cast<const std::uint8_t*>(src + pos);
    pos += n;

    switch (method) {
      case kMethodRaw:
        if (n != plane_len) return false;
        std::copy(enc, enc + n, plane.begin());
        break;
      case kMethodConst:
        if (n != 1) return false;
        std::fill(plane.begin(), plane.end(), enc[0]);
        break;
      case kMethodRle:
        if (!rle_decode(enc, n, plane.data(), plane_len)) return false;
        break;
      case kMethodPack1:
      case kMethodPack2:
      case kMethodPack4: {
        const PackPlan* plan = nullptr;
        for (const PackPlan& p : kPackPlans) {
          if (p.method == method) plan = &p;
        }
        if (plan == nullptr || !pack_decode(*plan, enc, n, plane.data(), plane_len)) {
          return false;
        }
        break;
      }
      case kMethodDeltaRle: {
        if (!rle_decode(enc, n, plane.data(), plane_len)) return false;
        std::uint8_t acc = 0;
        for (std::size_t i = 0; i < plane_len; ++i) {
          acc = static_cast<std::uint8_t>(acc + plane[i]);
          plane[i] = acc;
        }
        break;
      }
      case kMethodHuff:
        if (!huff_decode(enc, n, plane.data(), plane_len)) return false;
        break;
      default:
        return false;
    }
    for (std::size_t i = 0; i < plane_len; ++i) out[i * kPlanes + b] = plane[i];
  }
  if (pos + tail != stored) return false;
  std::memcpy(out + plane_len * kPlanes, src + pos, tail);
  return true;
}

}  // namespace adcc::checkpoint
