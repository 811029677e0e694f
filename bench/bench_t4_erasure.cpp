// T4 — Erasure coding vs replication (DESIGN.md): storage overhead and
// encode/decode throughput for RS(k,m) codes on a 16 MiB object. Expected
// shape: RS overhead = 1 + m/k (vs 3.0x for triple replication); encode
// throughput falls as m grows; decode of data-shard losses costs about one
// matrix-vector pass over the object.
// --json=FILE also writes encode_mb_per_s (and decode_mb_per_s for the RS
// codes) per scheme (bench_json.hpp).

#include <iostream>
#include <optional>
#include <string>

#include "bench_json.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/stopwatch.hpp"
#include "storage/reed_solomon.hpp"

int main(int argc, char** argv) {
  using namespace hpbdc;
  using namespace hpbdc::storage;
  bench::JsonWriter json("t4_erasure", argc, argv);

  constexpr std::size_t kObject = 16ULL << 20;  // 16 MiB keeps 1-core runs short
  Rng rng(5);
  std::vector<std::uint8_t> object(kObject);
  for (auto& b : object) b = static_cast<std::uint8_t>(rng());

  std::cout << "T4: erasure coding a " << (kObject >> 20) << " MiB object\n\n";
  Table tbl({"scheme", "overhead", "encode MB/s", "decode MB/s (m data lost)",
             "tolerates"});

  // Replication baseline: "encode" is memcpy to the replicas.
  {
    Stopwatch sw;
    std::vector<std::vector<std::uint8_t>> replicas;
    for (int i = 0; i < 2; ++i) replicas.push_back(object);  // 3x total copies
    const double mb_per_s = static_cast<double>(kObject) / 1e6 / (sw.elapsed_ms() / 1e3);
    tbl.row({"3x replication", "3.00x", Table::num(mb_per_s, 0), "(no decode needed)",
             "2 losses"});
    json.metric("encode_mb_per_s", mb_per_s, {{"scheme", "3x replication"}});
  }

  struct Code {
    std::size_t k, m;
  };
  for (const auto& code : {Code{4, 2}, Code{6, 3}, Code{8, 4}, Code{10, 4}}) {
    ReedSolomon rs(code.k, code.m);
    auto data = ReedSolomon::split(object, code.k);

    Stopwatch enc;
    auto parity = rs.encode(data);
    const double enc_ms = enc.elapsed_ms();

    // Worst-case decode: lose m data shards.
    std::vector<std::optional<Shard>> survivors(code.k + code.m);
    for (std::size_t i = code.m; i < code.k; ++i) survivors[i] = data[i];
    for (std::size_t i = 0; i < code.m; ++i) survivors[code.k + i] = parity[i];
    Stopwatch dec;
    auto restored = rs.decode(survivors);
    const double dec_ms = dec.elapsed_ms();
    if (ReedSolomon::join(restored, kObject) != object) {
      std::cerr << "BUG: decode mismatch\n";
      return 1;
    }

    const double overhead =
        1.0 + static_cast<double>(code.m) / static_cast<double>(code.k);
    const std::string scheme =
        "RS(" + std::to_string(code.k) + "," + std::to_string(code.m) + ")";
    const double enc_mb_per_s = static_cast<double>(kObject) / 1e6 / (enc_ms / 1e3);
    const double dec_mb_per_s = static_cast<double>(kObject) / 1e6 / (dec_ms / 1e3);
    tbl.row({scheme, Table::num(overhead) + "x", Table::num(enc_mb_per_s, 0),
             Table::num(dec_mb_per_s, 0), std::to_string(code.m) + " losses"});
    json.metric("encode_mb_per_s", enc_mb_per_s, {{"scheme", scheme}});
    json.metric("decode_mb_per_s", dec_mb_per_s, {{"scheme", scheme}});
  }
  tbl.print(std::cout);
  std::cout << "\nexpected shape: RS cuts storage overhead ~2x vs replication "
               "while tolerating the same or more losses, at the cost of "
               "GF(256) math on the write path.\n";
  return 0;
}
