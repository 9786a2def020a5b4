"""Write bench/reference/cli_batch.json, the cli_batch oracle's reference.

    python3 bench/make_reference.py

Run it from the root of a source checkout at the commit whose verdicts are
to be pinned. It runs every cli_batch config for the default seed (0) and
every demo once, and records exit codes, audit verdicts and failing steps,
and each row's verdict and margin. Regenerate it only when a change is
meant to alter verdicts, and say so in the change.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
import workloads

SEED = 0


def main() -> int:
    tmp = run.ROOT / ".bench_tmp" / f"reference-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        runner = run.Runner(tmp)
        ref = {"seed": SEED, "audits": {}, "rows": {}, "demos": {}}
        for name, cfg in workloads.cli_configs(SEED).items():
            path = tmp / f"{name}.config.json"
            path.write_text(json.dumps(cfg), encoding="utf-8")
            code = runner.child(["cli", "--", "run", str(path), "--out", str(tmp / name)])[0]["code"]
            report = json.loads((tmp / f"{name}.json").read_text(encoding="utf-8"))
            entry = workloads.reference_entry(code, report, with_rows=True)
            ref["audits"][name] = {"audits": entry.pop("audits")}
            ref["rows"][name] = entry
            verdicts = sorted({r[0] for r in entry["rows"]})
            print(f"{name}: exit {code}, rows {len(entry['rows'])} {verdicts}, audits {ref['audits'][name]['audits']}")
        for demo in workloads.DEMOS:
            code = runner.child(["cli", "--", "demo", demo])[0]["code"]
            ref["demos"][demo] = code
            print(f"demo {demo}: exit {code}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if not any(tmp.parent.iterdir()):
            tmp.parent.rmdir()
    out = run.BENCH / "reference" / "cli_batch.json"
    out.parent.mkdir(exist_ok=True)
    # one row per line keeps the file reviewable as a diff
    lines = [json.dumps({k: v for k, v in ref.items() if k != "rows"}, sort_keys=True)[:-1] + ', "rows": {']
    for i, (name, entry) in enumerate(sorted(ref["rows"].items())):
        head = {k: v for k, v in entry.items() if k != "rows"}
        lines.append(f' "{name}": {json.dumps(head)[:-1]}, "rows": [')
        lines.append(",\n".join("  " + json.dumps(r) for r in entry["rows"]))
        lines.append("]}" + ("," if i < len(ref["rows"]) - 1 else ""))
    lines.append("}}")
    text = "\n".join(lines) + "\n"
    assert json.loads(text) == ref
    out.write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
