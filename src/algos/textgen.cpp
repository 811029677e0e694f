#include "algos/textgen.hpp"

#include <stdexcept>

namespace hpbdc::algos {

std::string word_for_rank(std::size_t rank) {
  // Bijective base-26 encoding prefixed with 'w': stable, sortable-ish, and
  // collision-free across the whole vocabulary.
  std::string s;
  std::size_t v = rank + 1;
  while (v > 0) {
    --v;
    s.push_back(static_cast<char>('a' + v % 26));
    v /= 26;
  }
  return "w" + s;
}

std::vector<std::string> generate_text(const TextGenConfig& cfg, std::size_t lines,
                                       Rng& rng) {
  if (cfg.vocabulary == 0) throw std::invalid_argument("generate_text: empty vocabulary");
  // Pre-render the dictionary once.
  std::vector<std::string> dict(cfg.vocabulary);
  for (std::size_t i = 0; i < cfg.vocabulary; ++i) dict[i] = word_for_rank(i);

  constexpr double kZipfTheta = 0.9;  // word-popularity skew
  ZipfGenerator zipf(cfg.vocabulary, kZipfTheta);
  std::vector<std::string> out;
  out.reserve(lines);
  for (std::size_t l = 0; l < lines; ++l) {
    const auto n = static_cast<std::size_t>(rng.next_in(
        static_cast<std::int64_t>(kWordsPerLineMin),
        static_cast<std::int64_t>(kWordsPerLineMax)));
    std::string line;
    for (std::size_t w = 0; w < n; ++w) {
      if (w > 0) line.push_back(' ');
      line += dict[zipf.next(rng)];
    }
    out.push_back(std::move(line));
  }
  return out;
}

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && line[i] == ' ') ++i;
    std::size_t j = i;
    while (j < line.size() && line[j] != ' ') ++j;
    if (j > i) out.push_back(line.substr(i, j - i));
    i = j;
  }
  return out;
}

}  // namespace hpbdc::algos
