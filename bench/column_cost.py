"""Build time per window column as N grows, for the reference table in README.md.

    python3 bench/column_cost.py [N ...]        # default 100 200 400 800

One build at sigma=0.063, a=1.2 (a dim-36 window) per N, map 1,1,1,2 with
kick 0.02. The window does not depend on N, so the time per column shows
how the per-column dense work scales.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import chordnoise as cn  # noqa: E402


def main(sizes) -> None:
    for n in sizes:
        geom = cn.TorusGeometry(n)
        u = cn.quantize_linear_map(geom, cn.LinearMapSpec(1, 1, 1, 2)) @ cn.nonlinear_kick(geom, 0.02)
        ch = cn.make_gaussian(geom, 0.063)
        start = time.perf_counter()
        tp = cn.build_noisy_propagator(ch, u, 1.2)
        per_col = (time.perf_counter() - start) / tp.dim
        print(f"N={n:4d}  dim={tp.dim}  {per_col * 1e3:8.2f} ms per column")


if __name__ == "__main__":
    main([int(x) for x in sys.argv[1:]] or [100, 200, 400, 800])
