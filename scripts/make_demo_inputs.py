#!/usr/bin/env python3
"""Write sample input files for every CLI subcommand into a directory.

Usage: python scripts/make_demo_inputs.py [outdir]
"""

import pathlib
import random
import sys

from isotower.certjson import algebra_doc, cyclic_doc, quaternion_doc, system_doc
from isotower.csa import CyclicExtensionData, matrix_algebra, quaternion_structure_algebra
from isotower.generate import random_quaternion
from isotower.presets import cyclic_cubic, cyclic_sqrt, field_cubic, field_septic
from isotower.quadforms import QFSystem, QuadraticForm
from isotower.serialize import canonical_dumps
from isotower.splitting import standard_quaternion
from isotower.tower import QQ, tower_extend


def main():
    outdir = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else "demo_inputs")
    outdir.mkdir(parents=True, exist_ok=True)

    system = QFSystem(
        (
            QuadraticForm.diagonal(QQ, 0, [1, 1, 1, 1]),
            QuadraticForm.diagonal(QQ, 0, [1, 2, 3, 4]),
        )
    )
    (outdir / "system_r2.json").write_text(canonical_dumps(system_doc(system)))

    # forms over a level above Q: the recursion on level-1 data
    sqrt2 = cyclic_sqrt(2).tower
    system = QFSystem(
        (
            QuadraticForm.diagonal(sqrt2, 1, [1, 1, 1, 1]),
            QuadraticForm.diagonal(sqrt2, 1, [1, sqrt2.gen(), 3, 4]),
        )
    )
    (outdir / "system_sqrt2.json").write_text(canonical_dumps(system_doc(system)))

    cubic = field_cubic()
    quat = standard_quaternion(cubic.gen(), cubic.rational(2))
    (outdir / "cubic_quat.json").write_text(canonical_dumps(quaternion_doc(quat)))

    # (b, -3) over Q[x]/(x^4 - x - 1): Galois group S4, so no quadratic
    # subfield and an honest empty 2-part; r = 4 is even, so the mirrored
    # levels are square-tested rather than guaranteed to stack
    quartic = tower_extend(QQ, [-1, -1, 0, 0, 1], label="b")
    quat = standard_quaternion(quartic.gen(), quartic.rational(-3))
    (outdir / "quartic_quat.json").write_text(canonical_dumps(quaternion_doc(quat)))

    # (3, x + 1) over Q(2^(1/7)): u is rational, so in the large split branch
    # (1, alpha, alpha^2) is dependent and alpha lies in Q
    septic = field_septic()
    quat = standard_quaternion(septic.rational(3), septic.gen() + 1)
    (outdir / "septic_rational_u.json").write_text(canonical_dumps(quaternion_doc(quat)))

    # a random quaternion over Q[x]/(x^8 - 2) with its 2-part declared empty:
    # r = 8 takes the large split branch, and the certificate's integers
    # run past 4300 digits
    octic = tower_extend(QQ, [-2, 0, 0, 0, 0, 0, 0, 0, 1], label="a8")
    quat = random_quaternion(random.Random(0), octic)
    (outdir / "octic_quat.json").write_text(canonical_dumps(quaternion_doc(quat)))

    # a random quaternion over Q(sqrt2)(3^(1/3)) with its 2-part Q(sqrt2)
    # declared: the transfer runs over F = Q(sqrt2), a level above Q
    sextic = tower_extend(tower_extend(QQ, [-2, 0, 1], label="s2"), [-3, 0, 0, 1], label="c3")
    quat = random_quaternion(random.Random(0), sextic)
    (outdir / "sextic_quat.json").write_text(canonical_dumps(quaternion_doc(quat)))

    cyc = cyclic_sqrt(2)
    cor_input = {
        "algebra": algebra_doc(matrix_algebra(cyc.tower, 1)),
        "cyclic": cyclic_doc(cyc),
    }
    (outdir / "m2_sqrt2.json").write_text(canonical_dumps(cor_input))

    minus_one = cyc.tower.rational(-1, 1)
    division = quaternion_structure_algebra(standard_quaternion(minus_one, minus_one))
    cor_input = {"algebra": algebra_doc(division), "cyclic": cyclic_doc(cyc)}
    (outdir / "quat_sqrt2.json").write_text(canonical_dumps(cor_input))

    # K = Q(sqrt2, sqrt3) over F = Q(sqrt2): a corestriction whose F is not Q
    k_tower = tower_extend(cyc.tower, [-3, 0, 1], label="sqrt3")
    cyc_k = CyclicExtensionData.create(k_tower, 2, [[1, 0], [0, -1]], 2)
    cor_input = {
        "algebra": algebra_doc(matrix_algebra(k_tower, 2)),
        "cyclic": cyclic_doc(cyc_k),
    }
    (outdir / "m2_sqrt2_sqrt3.json").write_text(canonical_dumps(cor_input))

    # M2 along the cyclic cubic: sigma of order 3, so its square is applied too
    cyc3 = cyclic_cubic()
    cor_input = {"algebra": algebra_doc(matrix_algebra(cyc3.tower, 1)), "cyclic": cyclic_doc(cyc3)}
    (outdir / "m2_cubic.json").write_text(canonical_dumps(cor_input))

    print(f"wrote {outdir}/system_r2.json   (isotropy --input)")
    print(f"wrote {outdir}/system_sqrt2.json  (isotropy --input, forms over Q(sqrt2))")
    print(f"wrote {outdir}/cubic_quat.json  (split-quaternion --input)")
    print(f"wrote {outdir}/quartic_quat.json  (split-quaternion --input --two-part 0)")
    print(f"wrote {outdir}/septic_rational_u.json  (split-quaternion --input, alpha in Q)")
    print(f"wrote {outdir}/octic_quat.json  (split-quaternion --input --two-part 0)")
    print(f"wrote {outdir}/sextic_quat.json  (split-quaternion --input --two-part 1)")
    print(f"wrote {outdir}/m2_sqrt2.json    (corestrict --input)")
    print(f"wrote {outdir}/quat_sqrt2.json  (corestrict --input, a division algebra)")
    print(f"wrote {outdir}/m2_sqrt2_sqrt3.json  (corestrict --input, K/F = Q(sqrt2, sqrt3)/Q(sqrt2))")
    print(f"wrote {outdir}/m2_cubic.json    (corestrict --input, sigma of order 3)")


if __name__ == "__main__":
    main()
