"""``sncdegen class``: the three derivations of the arrangement class
P(r, n), an agreement verdict and the residue modulo L."""

from __future__ import annotations

from . import cli, grothring


def run(r: int, n: int) -> cli.Output:
    cli.refuse("class", "r", r, 1, grothring.MAX_ENUMERATION_SIZE)
    cli.refuse("class", "n", n, 0, cli.CLASS_MAX_N)
    inclexcl = grothring.arrangement_class_inclusion_exclusion(r, n)
    closed = grothring.arrangement_class_closed(r, n)
    recursive = grothring.arrangement_class_recursive(r, n)
    agree = closed == recursive == inclexcl
    residue = grothring.reduce_mod_L(closed)
    return agree, lambda: {
        "r": r,
        "n": n,
        "closed": closed.to_json_dict(),
        "recursive": recursive.to_json_dict(),
        "inclusion_exclusion": inclexcl.to_json_dict(),
        "agree": agree,
        "residue_mod_L": residue,
    }, lambda: [
        f"arrangement class P(r={r}, n={n}) of {r} hyperplanes in P^{n + 1}",
        f"  closed formula:       {closed.render()}",
        f"  recursion:            {recursive.render()}",
        f"  inclusion-exclusion:  {inclexcl.render()}",
        f"  residue mod L:        {residue}",
        f"  verdict:              {'AGREE' if agree else 'DISAGREE'}",
    ]
