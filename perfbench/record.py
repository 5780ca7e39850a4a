"""Record perfbench/expected.json: the outputs every benchmark run is
checked against, taken at the default seed from the current checkout.

    python3 perfbench/record.py

Run it only on a commit whose outputs are known to be right (the digests
in the repository were recorded on the commit that added the benchmark);
a later change that alters an output must show up as failed operations,
not as a re-recorded file.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
from collections import Counter

import workloads
from run import HERE, SRC, TMP, Runner

# status tally of the full registry when the benchmark was defined
REGISTRY_TALLY = {"pass": 21, "discrepancy-noted": 4, "out-of-scope": 4}


def main() -> int:
    seed = workloads.DEFAULT_SEED
    out = {}
    for name in workloads.NAMES:
        try:
            facts = Runner(name, seed).spawn("plain")["facts"]
        finally:
            shutil.rmtree(TMP, ignore_errors=True)
        if name == "registry":
            out[name] = {"canonical_sha256": facts["canonical_sha256"],
                         "status": facts["status"],
                         "claim_sha256": facts["claim_sha256"]}
        else:
            out[name] = {"spaces": facts["spaces"]}
    sizes = [s["size"] for s in out["invariant-search"]["spaces"]]
    tally = dict(Counter(out["registry"]["status"].values()))
    if sizes != workloads.BASIS_SIZES or tally != REGISTRY_TALLY:
        print(f"error: basis sizes {sizes}, registry tally {tally}",
              file=sys.stderr)
        return 1
    # the child rebuilds canonical() from the JSON report; check it agrees
    sys.path.insert(0, str(SRC))
    from comitant.verify import run_verifications
    direct = run_verifications(seed=seed).canonical()
    if (hashlib.sha256(direct.encode()).hexdigest()
            != out["registry"]["canonical_sha256"]):
        print("error: rebuilt canonical report differs from canonical()",
              file=sys.stderr)
        return 1
    (HERE / "expected.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
