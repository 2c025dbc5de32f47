// bench_paper [id...]: the one emitter of the paper figures. Runs the
// named drivers (every driver, in paper order, when no id is given),
// prints each title, table and note, and writes every table to
// <id>[_<table>].csv in the working directory. Run inside
// tests/golden/paper to regenerate the goldens paper_golden_test pins.
#include <cstdio>
#include <string>
#include <vector>

#include "paper/paper.hpp"

int main(int argc, char** argv) {
  using mss::paper::Driver;
  using mss::paper::kDrivers;

  std::vector<const Driver*> chosen;
  for (int a = 1; a < argc; ++a) {
    const Driver* found = nullptr;
    for (const auto& d : kDrivers) {
      if (argv[a] == std::string(d.id)) found = &d;
    }
    if (found == nullptr) {
      std::fprintf(stderr, "bench_paper: unknown figure '%s'; valid ids:\n",
                   argv[a]);
      for (const auto& d : kDrivers) std::fprintf(stderr, "  %s\n", d.id);
      return 2;
    }
    chosen.push_back(found);
  }
  if (chosen.empty()) {
    for (const auto& d : kDrivers) chosen.push_back(&d);
  }

  int status = 0;
  for (const Driver* d : chosen) {
    std::printf("=== %s ===\n\n", d->title);
    const auto fig = d->run();
    for (const auto& t : fig.tables) {
      if (!t.title.empty()) std::printf("--- %s ---\n", t.title.c_str());
      std::printf("%s", t.table.str(6).c_str());
      const std::string path =
          std::string(d->id) + (t.name.empty() ? "" : "_" + t.name) + ".csv";
      if (t.table.write_csv(path)) {
        std::printf("(written to %s)\n\n", path.c_str());
      } else {
        std::fprintf(stderr, "bench_paper: could not write %s\n", path.c_str());
        status = 1;
      }
    }
    std::printf("%s\n\n", fig.note.c_str());
  }
  return status;
}
