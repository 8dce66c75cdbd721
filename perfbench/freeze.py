#!/usr/bin/env python3
"""Freeze the output hashes that the benchmark checks against.

    python3 perfbench/freeze.py

Run it only at a commit whose outputs are trusted (the census goldens in
tests/golden pass there).  It records the sha256 of every census CSV the
census workloads write, at full and tiny size, and the digest of pass 0 of
the generator and poly-analysis workloads at the default seed, then re-runs
the benchmark's checks against what it froze.
"""

from __future__ import annotations

import json
import sys

import workloads as W
from run import E2E_WORKERS, OUT_ROOT


def main() -> int:
    expected = {"census": {}, "seeded": {}}
    results = []
    for tiny in (False, True):
        for name in W.WORKLOADS:
            if tiny and name not in W.TINY_CENSUS_STEPS:
                continue
            ctx = W.Context(OUT_ROOT / "freeze" / ("tiny" if tiny else "full") / name,
                            E2E_WORKERS, W.DEFAULT_SEED, tiny=tiny)
            res = W.run_pass(name, ctx, 0, W.prepare_pass(name, ctx, 0))
            results.append((name, ctx, res))
            if name in W.CENSUS_STEPS:
                for path in res.artifacts:
                    expected["census"].setdefault(path.parent.name, {})[path.name] = W.sha256_file(path)
            else:
                expected["seeded"][name] = {"0": W.pass_digest(res)}
    W.EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    failed = False
    for name, ctx, res in results:
        W.check_pass(name, ctx, res)
        for label, problems in res.failures.items():
            failed = True
            print(f"{name} {label}: {problems}")
    print(f"froze {len(expected['census'])} census steps and "
          f"{len(expected['seeded'])} seeded digests -> {W.EXPECTED_PATH}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
