// Delay-distribution drift detection.
//
// The call graph and delay models are learned once and reused (§3:
// preprocessing is "re-run only if the application is updated"). But
// deployments change silently. The drift detector compares a fresh window
// of inferred gap samples against the current DelayModel with a
// Kolmogorov-Smirnov test per delay key; sustained drift means the model
// (and possibly the call graph) should be re-learned.
#pragma once

#include <map>
#include <vector>

#include "core/delay_model.h"
#include "stats/ks_test.h"

namespace traceweaver {

struct DriftFinding {
  DelayKey key;
  KsResult ks;
  bool drifted = false;
};

/// Tests each key's recent gap samples against the model. Keys without a
/// learned distribution or with too few samples are skipped.
std::vector<DriftFinding> DetectDrift(
    const DelayModel& model,
    const std::map<DelayKey, std::vector<double>>& recent_gaps);

/// True if any key drifted -- the "re-run preprocessing" trigger.
bool AnyDrift(const std::vector<DriftFinding>& findings);

}  // namespace traceweaver
