// Native cache-flush and fence primitives (the persistence ISA extensions).
//
// The paper flushes with CLFLUSH and notes that CLFLUSHOPT/CLWB "should further
// improve performance". On x86-64, flush_range uses the best of the three the
// CPU has, chosen once from CPUID leaf 7 the way PMDK's libpmem does: CLWB
// (write back, keep the line cached), else CLFLUSHOPT (weakly ordered flush),
// else CLFLUSH. CLWB and CLFLUSHOPT are ordered only by a fence, so a persist
// is flush_range followed by store_fence(). Elsewhere a portable fence fallback
// keeps the code path exercised (costs are then modelled purely by
// nvm::PerfModel).
#pragma once

#include <cstddef>

namespace adcc::nvm {

enum class FlushInstruction {
  kClflush,     ///< Serializing flush + invalidate (paper's choice).
  kClflushopt,  ///< Weakly-ordered flush + invalidate.
  kClwb,        ///< Weakly-ordered write-back; the line may stay cached.
};

/// The instruction flush_range executes on this CPU. Builds without native
/// flushes (non-x86) report kClflush, the instruction their fence stands in for.
FlushInstruction flush_instruction();

/// Lower-case mnemonic of `ins` ("clflush", "clflushopt", "clwb").
const char* flush_instruction_name(FlushInstruction ins);

/// Flushes every cache line overlapping [p, p+bytes) with flush_instruction().
/// Not durable until the next store_fence().
void flush_range(const void* p, std::size_t bytes);

/// Store fence ordering flushed lines before subsequent stores.
void store_fence();

/// Number of cache lines flush_range would touch for [p, p+bytes).
std::size_t flush_line_count(const void* p, std::size_t bytes);

}  // namespace adcc::nvm
