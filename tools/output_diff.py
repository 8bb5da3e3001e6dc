"""Compare two output trees written by `tools/output_sha256.py --out`.

    python3 tools/output_diff.py A B

For every file whose bytes differ between the trees, it prints the largest
absolute deviation of the numbers in it and the largest relative deviation,
|b - a| / |a| over the entries with |a| >= 1e-12.  A number is a float in a
JSON file or a CSV cell that parses as a float on both sides.  Every other
change is listed by itself: a file on one side only, a JSON key, a verdict,
a string, an integer (such as an exit code in `exit_codes.json`), a CSV
header or row count, a number that turned non-finite, binary content.  Exits
1 when there is any such change, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Iterator

import numpy as np

REL_FLOOR = 1e-12


def _files(root: str) -> set[str]:
    return {
        os.path.relpath(os.path.join(d, f), root) for d, _, names in os.walk(root) for f in names
    }


def _json_leaves(obj, path: str = "") -> Iterator[tuple[str, object]]:
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _json_leaves(v, f"{path}.{k}" if path else k)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _json_leaves(v, f"{path}[{i}]")
    else:
        yield path, obj


def _as_float(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def _compare(a_path: str, b_path: str) -> tuple[list[tuple[float, float]], list[str]]:
    """Numeric (a, b) pairs that differ, and the other changes, of one file."""
    pairs: list[tuple[float, float]] = []
    other: list[str] = []
    if a_path.endswith(".json"):
        with open(a_path, encoding="utf-8") as fa, open(b_path, encoding="utf-8") as fb:
            a, b = dict(_json_leaves(json.load(fa))), dict(_json_leaves(json.load(fb)))
        other += [f"key {k!r} only in A" for k in sorted(a.keys() - b.keys())]
        other += [f"key {k!r} only in B" for k in sorted(b.keys() - a.keys())]
        for k in sorted(a.keys() & b.keys()):
            va, vb = a[k], b[k]
            if type(va) is float and type(vb) is float:
                pairs.append((va, vb))
            elif va != vb or type(va) is not type(vb):
                other.append(f"{k}: {va!r} -> {vb!r}")
    elif a_path.endswith(".csv"):
        with open(a_path, encoding="utf-8") as fa, open(b_path, encoding="utf-8") as fb:
            a, b = fa.read().splitlines(), fb.read().splitlines()
        if len(a) != len(b):
            other.append(f"{len(a)} lines -> {len(b)} lines")
        for i, (la, lb) in enumerate(zip(a, b)):
            ca, cb = la.split(","), lb.split(",")
            if len(ca) != len(cb):
                other.append(f"line {i + 1}: {len(ca)} cells -> {len(cb)} cells")
                continue
            for j, (sa, sb) in enumerate(zip(ca, cb)):
                if sa == sb:
                    continue
                xa, xb = _as_float(sa), _as_float(sb)
                if xa is None or xb is None:
                    other.append(f"line {i + 1} cell {j + 1}: {sa!r} -> {sb!r}")
                else:
                    pairs.append((xa, xb))
    else:
        other.append("binary content differs")
    finite = [(x, y) for x, y in pairs if np.isfinite(x) and np.isfinite(y)]
    other += [f"{x!r} -> {y!r}" for x, y in pairs if not (np.isfinite(x) and np.isfinite(y))]
    return finite, other


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="reference tree")
    parser.add_argument("b", help="tree compared with it")
    args = parser.parse_args(argv)
    fa, fb = _files(args.a), _files(args.b)
    changes = [f"`{p}`: only in A" for p in sorted(fa - fb)]
    changes += [f"`{p}`: only in B" for p in sorted(fb - fa)]
    print("| output | max abs dev | max rel dev |")
    print("| --- | --- | --- |")
    for rel in sorted(fa & fb):
        pa, pb = os.path.join(args.a, rel), os.path.join(args.b, rel)
        with open(pa, "rb") as ha, open(pb, "rb") as hb:
            if ha.read() == hb.read():
                continue
        pairs, other = _compare(pa, pb)
        changes += [f"`{rel}`: {c}" for c in other]
        x = np.array([p[0] for p in pairs])
        y = np.array([p[1] for p in pairs])
        dev = np.abs(y - x)
        big = np.abs(x) >= REL_FLOOR
        abs_dev = f"{dev.max():.3g}" if dev.size else "-"
        rel_dev = f"{(dev[big] / np.abs(x[big])).max():.3g}" if big.any() else "-"
        print(f"| `{rel}` | {abs_dev} | {rel_dev} |")
    print()
    print(f"{len(changes)} other change(s)")
    for c in changes:
        print(f"- {c}")
    return 1 if changes else 0


if __name__ == "__main__":
    sys.exit(main())
