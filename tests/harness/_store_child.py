"""Child process for cross-process precompute-store reattach tests.

Run as ``python _store_child.py <spec> <crypto> <seed>`` with the store
directory in the environment (``REPRO_STORE_DIR``) — exactly how a
*spawned* engine worker finds the campaign's store: no inherited Python
state, only the environment.
Prints a JSON line with the checksum of the attached arrays and the
child's store counters, so the parent test can assert byte-identity and
that the child attached (hit) instead of rebuilding (miss).
"""

import hashlib
import json
import sys

import numpy as np

from repro.harness.store import (
    ensure_workload_trace,
    get_active_store,
    store_stats_snapshot,
)
from repro.workloads.workload import WorkloadScale


def main() -> int:
    spec, crypto, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
    store = get_active_store()
    if store is None:
        print(json.dumps({"error": "no store resolved from environment"}))
        return 1
    arrays = ensure_workload_trace(
        store, spec, crypto, WorkloadScale.test(), seed
    )
    digest = hashlib.sha256()
    for name in sorted(arrays):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(arrays[name]).tobytes())
    stats = store_stats_snapshot()
    print(
        json.dumps(
            {
                "sha256": digest.hexdigest(),
                "hits": stats["store_trace_hits"],
                "misses": stats["store_trace_misses"],
                "builds": stats["workload_builds"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
