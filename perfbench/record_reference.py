"""Record the fixture reference values that ``checks.py`` compares with.

    python3 perfbench/record_reference.py

Runs the unmoved equilateral fixture through the command line at nmax 13
and writes ``reference.json``: the abscissas (transfer k=6, periodic
n=10, which every workload's nmax >= 10 reproduces) and the determinant
zeros for each truncation order a workload searches.  Re-record only
when a change to the program is meant to move these values, and say why
in CHANGES.md.
"""

import csv
import json
import sys
import tempfile
from pathlib import Path

import run

DET_ORDERS = (9, 10, 12, 13)


def main() -> int:
    run.bootstrap()
    from billzeta import cli
    from billzeta.geometry import save_config

    import pipeline

    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        tmp = Path(tmp)
        cfg, cache = tmp / "fixture.json", tmp / "fixture.jsonl"
        save_config(pipeline.fixture_config(None), cfg)

        def table(*argv):
            out = tmp / argv[0]
            code = cli.main([str(a) for a in argv] + ["--cache", str(cache), "--out", str(out)])
            if code != 0:
                sys.exit(f"record_reference: {argv} exited {code}")
            name = "poles.csv" if argv[0] == "poles" else f"{argv[0]}.csv"
            with open(out / name, encoding="utf-8", newline="") as fh:
                return list(csv.DictReader(fh))

        table("orbits", "--config", cfg, "--nmax", 13)
        abscissas = {}
        for row in table("abscissas"):
            abscissas.setdefault(row["quantity"], {})[row["method"]] = float(row["value"])
        poles = {
            str(n): [[float(r["re"]), float(r["im"]), int(r["multiplicity"])]
                     for r in table("poles", "--det-n", n)]
            for n in DET_ORDERS
        }
    reference = {
        "fixture": "equilateral, side 6, unit radii",
        "commit": run.git_commit(),
        "abscissas": abscissas,
        "poles": poles,
    }
    path = run.HERE / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
