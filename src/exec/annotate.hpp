// Artifact v3 sidecar: record, per library entry, what the native
// execution backend lowers its kernels to — the exec-cache keys a
// serving process will hit and the lowered tape sizes. Purely
// informational for the artifact reader (machine code is never
// persisted), but it makes the cache contents of a deployment
// auditable from the shipped .oalib file alone.
#pragma once

#include "gpusim/device.hpp"
#include "libgen/artifact.hpp"
#include "support/status.hpp"

namespace oa::exec {

/// Fill `artifact.entries[*].exec` by reconstructing each entry's
/// program (libgen::reconstruct against the entry's own candidate),
/// compiling every kernel at the entry's tuned_size, passing it through
/// the launch gate for `device` as serving does, and lowering it.
/// Entries whose program cannot be reconstructed or lowered get an
/// empty sidecar — that is a property of the entry, not an error.
Status annotate_artifact(libgen::Artifact& artifact,
                         const gpusim::DeviceModel& device);

}  // namespace oa::exec
