#pragma once

#include <memory>
#include <string>

#include "dfs/ec/erasure_code.h"
#include "dfs/util/args.h"

namespace dfs::ec {

/// Builds a code from a compact textual spec, the format the command-line
/// tools and configuration files use:
///
///   "rs:n,k"     GF(2^8) systematic Reed-Solomon        e.g. rs:20,15
///   "rs16:n,k"   GF(2^16) wide Reed-Solomon             e.g. rs16:300,290
///   "crs:n,k"    bit-matrix Cauchy Reed-Solomon         e.g. crs:12,10
///   "lrc:k,l,r"  Azure-style local reconstruction code  e.g. lrc:12,2,2
///   "hh:n,k"     Hitchhiker-XOR piggybacked RS          e.g. hh:14,10
///   "xor:k"      single-parity code (k+1, k)            e.g. xor:5
///   "rep:r"      r-way replication                      e.g. rep:3
///
/// Error contract, uniform across families:
///   - Returns nullptr iff the TEXT is malformed — unknown family, wrong
///     parameter count, or a parameter that is not a whole decimal integer
///     (e.g. "rs:a,b", "lrc:12,2", "paq:4,2").
///   - Throws std::invalid_argument iff the text parses but the NUMBERS are
///     invalid for the family (e.g. rs:2,5, hh:5,4, rep:1, lrc:12,5,2).
std::shared_ptr<ErasureCode> make_code_from_spec(const std::string& spec);

/// Human-readable list of accepted spec formats (for tool usage messages).
const char* code_spec_help();

/// FlagTable parser for a --code flag: sets `code` from the spec, and
/// throws std::invalid_argument naming the flag on either kind of bad spec.
util::FlagTable::Parser code_flag(std::shared_ptr<ErasureCode>& code);

}  // namespace dfs::ec
