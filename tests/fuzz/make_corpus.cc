// Regenerates the committed seed corpora under tests/fuzz/corpus/ from the
// real encoders, so seeds track the wire/container formats instead of
// rotting as hand-maintained hex. Run after changing a format:
//
//   ./sttr_fuzz_make_corpus tests/fuzz/corpus
//
// and commit the result. Seeds are starting points, not coverage — the
// fuzzer mutates from here; the replay driver (fuzz_driver.h) additionally
// treats every committed file as a regression input on tier-1 runs.

#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "core/delta.h"

namespace {

void WriteSeed(const std::filesystem::path& dir, const std::string& name,
               const std::string& bytes) {
  std::filesystem::create_directories(dir);
  std::ofstream out(dir / name, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) {
    std::cerr << "make_corpus: failed to write " << (dir / name) << "\n";
    std::exit(1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::cerr << "usage: sttr_fuzz_make_corpus <corpus-dir>\n";
    return 2;
  }
  const std::filesystem::path root(argv[1]);

  // HTTP request heads: the shapes the serving port actually sees.
  WriteSeed(root / "http", "get_recommend.txt",
            "GET /recommend?user=42&city=7&k=10 HTTP/1.1\r\n"
            "Host: localhost\r\nConnection: keep-alive\r\n\r\n");
  WriteSeed(root / "http", "get_close.txt",
            "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
  WriteSeed(root / "http", "pipelined.txt",
            "GET /stats HTTP/1.1\r\n\r\nGET /healthz HTTP/1.1\r\n\r\n");
  WriteSeed(root / "http", "torn_head.txt",
            "GET /recommend?user=1 HTTP/1.1\r\nHos");

  // Delta checkpoint containers.
  {
    sttr::DeltaCheckpoint delta;
    delta.base_epoch = 3;
    delta.base_model_crc = 0xdeadbeef;
    delta.seq = 2;
    delta.events_applied = 128;
    delta.config_fingerprint = "fuzz-seed-fingerprint";
    delta.user.dim = 4;
    delta.user.rows = {1, 7};
    delta.user.values = {0.1f, 0.2f, 0.3f, 0.4f, -1.0f, -2.0f, -3.0f, -4.0f};
    delta.poi.dim = 4;
    delta.poi.rows = {3};
    delta.poi.values = {9.0f, 8.0f, 7.0f, 6.0f};
    delta.word.dim = 2;
    WriteSeed(root / "ckpt", "delta_small.bin",
              sttr::EncodeDeltaCheckpoint(delta));

    delta.dense_params = std::string(32, '\x42');
    std::string with_dense = sttr::EncodeDeltaCheckpoint(delta);
    WriteSeed(root / "ckpt", "delta_dense.bin", with_dense);
    WriteSeed(root / "ckpt", "delta_torn.bin",
              with_dense.substr(0, with_dense.size() / 2));
    // One deliberately corrupted container: parsing must fail cleanly.
    with_dense[with_dense.size() / 3] ^= 0x40;
    WriteSeed(root / "ckpt", "delta_bitflip.bin", with_dense);
  }

  std::cout << "make_corpus: wrote seeds under " << root << "\n";
  return 0;
}
