#pragma once
// Synthetic text workloads for WordCount/grep experiments: a deterministic
// pseudo-word dictionary sampled with zipf popularity — the same first-order
// statistics (heavy-tailed word frequency) as natural-language corpora,
// which is what makes map-side combining effective.

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace hpbdc::algos {

struct TextGenConfig {
  std::size_t vocabulary = 10000;
};

/// Every generated line holds between these many words, inclusive.
inline constexpr std::size_t kWordsPerLineMin = 5;
inline constexpr std::size_t kWordsPerLineMax = 15;

/// Deterministic pseudo-word for a vocabulary rank (rank 0 most frequent).
std::string word_for_rank(std::size_t rank);

/// Generate `lines` lines of zipf-sampled words.
std::vector<std::string> generate_text(const TextGenConfig& cfg, std::size_t lines,
                                       Rng& rng);

/// Split a line into whitespace-delimited tokens.
std::vector<std::string> tokenize(const std::string& line);

}  // namespace hpbdc::algos
