"""Compare two `scripts/fit_fingerprint.py` outputs fit by fit.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python scripts/fit_fingerprint.py --seed 7 > A
    (same at the other commit)                                                  > B
    python scripts/fit_diff.py A B

Prints the number of fits whose weights or log-likelihood moved (in
total and per threshold), the largest weight and log-likelihood moves,
how many log-likelihoods fell from A to B and by how much at most, and
per side the total and largest iteration count and the unconverged and
failed fits.  Fits present on one side only are listed by key.  It reads
only the two text files, so it runs against outputs of any checkout.
"""

import argparse
import sys
from collections import Counter


def _read(path):
    fits = {}
    with open(path) as fh:
        for line_no, line in enumerate(fh, 1):
            fields = line.split(maxsplit=3)
            if len(fields) < 4:
                sys.exit(f"{path}:{line_no}: not a fingerprint line")
            name, node, label, rest = fields
            if rest.startswith("error "):
                fits[name, int(node), label] = None
                continue
            weights, loglik, iterations, converged, _pg = rest.split()
            fits[name, int(node), label] = (
                [float.fromhex(w) for w in weights.split(",")],
                float(loglik),
                int(iterations),
                converged == "True",
            )
    return fits


def _side(label, fits):
    done = [f for f in fits.values() if f is not None]
    iterations = [f[2] for f in done]
    print(f"{label}: {len(fits)} fits, {len(fits) - len(done)} failed, "
          f"{sum(not f[3] for f in done)} unconverged, "
          f"iterations total {sum(iterations)} max {max(iterations, default=0)}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("a", help="fingerprint output of the base commit")
    parser.add_argument("b", help="fingerprint output of the changed commit")
    args = parser.parse_args(argv)
    a, b = _read(args.a), _read(args.b)
    _side("A", a)
    _side("B", b)
    for key in sorted(a.keys() ^ b.keys()):
        print("only in", "A" if key in a else "B", *key)
    moved, fell = Counter(), []
    max_dw = max_dll = 0.0
    for key in sorted(a.keys() & b.keys()):
        fa, fb = a[key], b[key]
        if fa is None or fb is None:
            if (fa is None) != (fb is None):
                moved[key[2]] += 1
                print("failed on one side only:", *key)
            continue
        (wa, lla, _, _), (wb, llb, _, _) = fa, fb
        if wa == wb and lla == llb:
            continue
        moved[key[2]] += 1
        max_dw = max(max_dw, max(abs(x - y) for x, y in zip(wa, wb)))
        max_dll = max(max_dll, abs(lla - llb))
        if llb < lla:
            fell.append(lla - llb)
    print(f"moved: {sum(moved.values())}",
          " ".join(f"{label}={count}" for label, count in sorted(moved.items())))
    print(f"max |dw|: {max_dw:.3g}  max |dloglik|: {max_dll:.3g}")
    print(f"loglik fell: {len(fell)}, by at most {max(fell, default=0.0):.3g}")


if __name__ == "__main__":
    main()
