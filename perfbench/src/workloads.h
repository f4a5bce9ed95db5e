#pragma once
// The two workloads. Both build their inputs (identities, answers, schedules)
// from the seed alone and size their work from --seconds, so two commits run
// with the same arguments measure exactly the same work.

#include <cstdint>
#include <string>

#include "harness.h"
#include "layers.h"

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 1;
  unsigned seconds = 30;
  bool trace = false;
  std::string workdir;  // scratch directory inside the checkout
  bool small = false;   // self-test sizing: one small task, one replay
  TraceCost trace_cost;  // measured before a traced run
  // Self-test faults (never set in a measured run).
  bool plant_bad_attestation = false;
  bool plant_tampered_block = false;
};

/// The paper's §VI deployment: anonymous CPL-AA submissions, requester
/// reward proofs, on-chain verification, settlement, then node sync.
Result run_lifecycle(const RunOptions& options);

/// The non-anonymous mode (RSA-certified attestations) as an open-loop
/// submission flood settled through Algorithm 1's timeout finalize path.
Result run_classic_flood(const RunOptions& options);

}  // namespace perfbench
