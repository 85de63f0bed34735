"""Extract the incenter net from a patch and measure its Delone constants.

The net drops one point at the incenter of every full kite and dart, so
c1 (closest pair) and c2 (largest empty hole) certify that the pattern is
uniformly separated and relatively dense. c1 has a closed form: the
minimum is realized by two dart incenters facing each other across a
shared edge, each one dart inradius (sin 36 / phi) from it, at distance
2*sin(36 deg)/phi.  On this covering net both constants come exactly from
the tiling: a sun vertex in the window (five kites on one apex) and two
darts on one axis end are the witnesses, and lemmas on the tiles do the
rest (see ``Net``).  The net file written here carries each point's tile
class and exact ring incenter, so ``load_net`` gives the same net back, with
the same exact constants.
"""

import math
from pathlib import Path

from penrosenet import (
    COVERING_RADIUS_BOUND,
    HALF_KITE,
    PHI_FLOAT,
    Square,
    export_net,
    extract_net,
    generate_patch_covering,
    render_svg,
)

OUT = Path(__file__).resolve().parent / "output"
OUT.mkdir(exist_ok=True)


def main() -> None:
    window = Square(0.0, 0.0, 24.0)
    patch = generate_patch_covering(window)
    net = extract_net(patch)

    kites = int((net.source_kinds == HALF_KITE).sum())
    print(f"patch: {len(patch)} half-tiles covering the {window.side:g}-window")
    print(f"net:   {len(net)} points ({kites} kite, {len(net) - kites} dart)")

    closed_form = 2.0 * math.sin(math.radians(36.0)) / PHI_FLOAT
    print(f"\nc1 of the net  {net.c1:.12f}")
    print(f"c1 closed form {closed_form:.12f}   (2 sin 36 / phi)")

    # c2 is the largest empty circle centred in the window: 1, attained at
    # the sun vertices, where five kite incenters sit at distance 1
    print(f"\nc2 exact       {net.c2:.6f}  (+/- {net.c2_error_bound:.0e})")
    print(f"c2 upper bound {COVERING_RADIUS_BOUND:.6f}  (dart circumradius, sqrt(3 - phi))")

    net_path = OUT / "net24.txt"
    export_net(net, str(net_path))
    print(f"\nwrote net to {net_path}")

    svg_path = OUT / "net24.svg"
    svg_path.write_text(render_svg(patch, net=net, overlay="net"))
    print(f"wrote overlay rendering to {svg_path}")


if __name__ == "__main__":
    main()
