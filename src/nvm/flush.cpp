// The per-line flush loops start on 32-byte boundaries, so their timing does
// not move with the size of earlier translation units (see
// kernels/serial/serial_backend.cpp).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC optimize("align-loops=32")
#endif

#include "nvm/flush.hpp"

#include <atomic>
#include <cstdint>

#include "common/align.hpp"

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#define ADCC_X86 1
#else
#define ADCC_X86 0
#endif

namespace adcc::nvm {

namespace {

#if ADCC_X86
// One loop per instruction, each compiled for the ISA extension it needs; the
// CPUID probe below guarantees only a supported one ever runs.
void flush_lines_clflush(std::uintptr_t first, std::uintptr_t last) {
  for (std::uintptr_t line = first; line <= last; line += kCacheLine) {
    _mm_clflush(reinterpret_cast<const void*>(line));
  }
}

__attribute__((target("clflushopt"))) void flush_lines_clflushopt(std::uintptr_t first,
                                                                  std::uintptr_t last) {
  for (std::uintptr_t line = first; line <= last; line += kCacheLine) {
    _mm_clflushopt(reinterpret_cast<void*>(line));
  }
}

__attribute__((target("clwb"))) void flush_lines_clwb(std::uintptr_t first, std::uintptr_t last) {
  for (std::uintptr_t line = first; line <= last; line += kCacheLine) {
    _mm_clwb(reinterpret_cast<void*>(line));
  }
}

FlushInstruction probe_instruction() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) {
    if (ebx & bit_CLWB) return FlushInstruction::kClwb;
    if (ebx & bit_CLFLUSHOPT) return FlushInstruction::kClflushopt;
  }
  return FlushInstruction::kClflush;
}
#endif

}  // namespace

FlushInstruction flush_instruction() {
#if ADCC_X86
  static const FlushInstruction chosen = probe_instruction();
  return chosen;
#else
  return FlushInstruction::kClflush;
#endif
}

const char* flush_instruction_name(FlushInstruction ins) {
  switch (ins) {
    case FlushInstruction::kClflushopt:
      return "clflushopt";
    case FlushInstruction::kClwb:
      return "clwb";
    case FlushInstruction::kClflush:
      break;
  }
  return "clflush";
}

void flush_range(const void* p, std::size_t bytes) {
  if (bytes == 0) return;
#if ADCC_X86
  const auto addr = reinterpret_cast<std::uintptr_t>(p);
  const std::uintptr_t mask = ~static_cast<std::uintptr_t>(kCacheLine - 1);
  const std::uintptr_t first = addr & mask;
  const std::uintptr_t last = (addr + bytes - 1) & mask;
  switch (flush_instruction()) {
    case FlushInstruction::kClwb:
      flush_lines_clwb(first, last);
      return;
    case FlushInstruction::kClflushopt:
      flush_lines_clflushopt(first, last);
      return;
    case FlushInstruction::kClflush:
      break;
  }
  flush_lines_clflush(first, last);
#else
  (void)p;
  std::atomic_thread_fence(std::memory_order_seq_cst);
#endif
}

void store_fence() {
#if ADCC_X86
  _mm_sfence();
#else
  std::atomic_thread_fence(std::memory_order_seq_cst);
#endif
}

std::size_t flush_line_count(const void* p, std::size_t bytes) {
  return lines_spanned(p, bytes);
}

}  // namespace adcc::nvm
