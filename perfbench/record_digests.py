"""Record the class-key digests of every named item into digests.json.

    python3 perfbench/record_digests.py

Run once, at the commit whose results are the reference, from the root of
a source checkout.  Every item must pass its published-value checks; only
the digest comparison is skipped.
"""

from __future__ import annotations

import json
import sys

from run import DIGESTS, SRC, Clock, run_pass

sys.path.insert(0, str(SRC))
import workloads  # noqa: E402


def main() -> int:
    digests: dict[str, str] = {}
    for name in workloads.WORKLOADS:
        failures: list[str] = []
        p = run_pass(workloads.ITEMS[name](0), {}, failures, Clock())
        other = [f for f in failures if "class-key digest" not in f]
        if other:
            print("\n".join(other), file=sys.stderr)
            return 1
        digests.update(p["digests"])
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"{len(digests)} digests written to {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
