// Seed-stability self-check of the benchmark's input generation: for every
// workload, generating twice from the same seed must give byte-identical
// inputs (equal digests), and a different seed must give different ones.
// Exits non-zero on any violation.

#include <cstdio>

#include "workloads.hpp"

int main() {
  using perfbench::Workload;
  int failures = 0;
  for (Workload w : {Workload::kReadHot, Workload::kEvalCold, Workload::kChurnDurable}) {
    const uint64_t a = perfbench::InputDigest(perfbench::MakeInputs(w, 1));
    const uint64_t b = perfbench::InputDigest(perfbench::MakeInputs(w, 1));
    const uint64_t c = perfbench::InputDigest(perfbench::MakeInputs(w, 2));
    const bool same_seed_ok = a == b;
    const bool other_seed_ok = a != c;
    std::printf("%-14s seed1=%016llx seed1again=%016llx seed2=%016llx  %s\n",
                perfbench::WorkloadName(w), static_cast<unsigned long long>(a),
                static_cast<unsigned long long>(b), static_cast<unsigned long long>(c),
                same_seed_ok && other_seed_ok ? "ok" : "FAIL");
    failures += (same_seed_ok ? 0 : 1) + (other_seed_ok ? 0 : 1);
  }
  return failures == 0 ? 0 : 1;
}
