"""Tests for the command-line driver: exit codes, output formats,
round-trip stability and determinism."""

import contextlib
import gc
import importlib
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import clear_caches, src_env
from sncdegen import (
    checks,
    cli,
    cmd_dual,
    cmd_resolve,
    cmd_verify,
    degeneration,
    duality,
    grothring,
    toriclat,
)
from sncdegen._intmat import unit
from sncdegen.cli import EXIT_FAILED, EXIT_OK, EXIT_USAGE, main
from sncdegen.grothring import L, MAX_ENUMERATION_SIZE, ONE, _subset_sizes
from sncdegen.toriclat import (
    Cone,
    Fan,
    blowup_chart_sequence,
    model_cone,
    sigma_subcone,
)
from test_mutations import (
    FLIPS,
    in_commands,
    plus,
    redundant_facet_at_3,
    shifted_first_chart,
    with_extra_generator,
    without_last_generator,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_json_round_trips(out):
    data = json.loads(out)
    assert json.dumps(data, indent=2) + "\n" == out
    return data


# -- golden output ------------------------------------------------------

GOLDEN = Path(__file__).parent / "golden"

#: Commands whose whole stdout is pinned in tests/golden/NAME.txt (text)
#: and NAME.json.  Regenerate a file only for an intended output change:
#: ``python -m sncdegen ARGS --format FMT > tests/golden/NAME.EXT``.
GOLDEN_COMMANDS = {
    "resolve_n5": ("resolve", "--n", "5"),
    "dual_n5": ("dual", "--n", "5"),
    "report_n5_d6": ("report", "--n", "5", "--d", "6"),
    "verify_all_max5": ("verify", "--scope", "all", "--max-n", "5"),
    "class_r5_n4": ("class", "--r", "5", "--n", "4"),
}


@pytest.mark.parametrize("fmt, ext", [("text", "txt"), ("json", "json")])
@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_stdout_matches_golden_file(capsys, name, fmt, ext):
    code, out, err = run_cli(capsys, *GOLDEN_COMMANDS[name], "--format", fmt)
    assert code == EXIT_OK and err == ""
    assert out == (GOLDEN / f"{name}.{ext}").read_text()


# -- output -------------------------------------------------------------


JSON_TEXT = st.text(st.sampled_from('"\\/\x00\x1f\n\t\x7fé€\u2028😀') | st.characters(),
                    max_size=8)
JSON_LEAVES = (st.none() | st.booleans() | JSON_TEXT
               | st.integers(-2**70, 2**70) | st.integers(2**64, 2**80))
JSON_VALUES = st.recursive(
    JSON_LEAVES | st.lists(st.integers() | st.booleans()),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(JSON_TEXT, inner, max_size=4),
    max_leaves=40)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(JSON_VALUES)
@example("")
@example("\x7f")
@example('"\\')
@example("é")
@example("😀")
@example({})
@example([])
@example({"a": {}, "b": [], "c": [{}, []]})
@example([{}, [], [[]]])
@example({"t": True, "f": False, "n": None})
def test_json_writer_matches_json_dumps(value):
    assert cli._json(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [1.5, {"x": [1, 0.5]}, ("a",)], ids=repr)
def test_json_writer_refuses_other_leaves(value):
    with pytest.raises(TypeError):
        cli._json(value)


@pytest.mark.parametrize("argv", [
    *(("resolve", "--n", str(n)) for n in (1, 2, 7, 20)),
    *(("dual", "--n", str(n)) for n in (1, 2, 9)),
    *(("report", "--n", str(n), "--d", str(d)) for n, d in ((2, 1), (3, 2), (6, 7))),
    *(("verify", "--scope", scope, "--max-n", "3") for scope in (*cli.SCOPES, "all")),
    *(("class", "--r", str(r), "--n", str(n)) for r, n in ((1, 0), (5, 4), (18, 17))),
], ids=" ".join)
def test_json_output_reserializes_byte_for_byte(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert code == EXIT_OK and err == ""
    assert_json_round_trips(out)


def test_each_format_builds_only_what_it_prints(capsys, monkeypatch, cold_caches):
    def refuse(*args):
        raise AssertionError("built output for a format that is not printed")

    argvs = [("resolve", "--n", "4"), ("report", "--n", "4", "--d", "5")]
    with monkeypatch.context() as m:
        m.setattr(Fan, "to_json_dict", refuse)
        m.setattr(degeneration.VerificationReport, "to_json_dict", refuse)
        assert [run_cli(capsys, *argv)[0] for argv in argvs] == [EXIT_OK] * 2
    with monkeypatch.context() as m:
        m.setattr(checks, "render_checks", refuse)
        m.setattr(degeneration.VerificationReport, "render_table", refuse)
        assert ([run_cli(capsys, *argv, "--format", "json")[0] for argv in argvs]
                == [EXIT_OK] * 2)


# -- class --------------------------------------------------------------


def test_class_text(capsys):
    code, out, err = run_cli(capsys, "class", "--r", "3", "--n", "2")
    assert code == EXIT_OK and err == ""
    assert "1 + 3*L^2" in out
    assert "AGREE" in out and "DISAGREE" not in out
    assert "residue mod L:        1" in out


def test_class_json(capsys):
    code, out, _ = run_cli(capsys, "class", "--r", "4", "--n", "2", "--format", "json")
    assert code == EXIT_OK
    data = assert_json_round_trips(out)
    assert data["closed"] == {"coeffs": [2, -2, 4]}
    assert data["closed"] == data["recursive"] == data["inclusion_exclusion"]
    assert data["agree"] is True
    assert data["residue_mod_L"] == 2


def test_class_single_hyperplane(capsys):
    code, out, _ = run_cli(capsys, "class", "--r", "1", "--n", "5", "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["closed"] == {"coeffs": [1, 1, 1, 1, 1, 1]}


def test_class_usage_error(capsys):
    code, out, err = run_cli(capsys, "class", "--r", "0", "--n", "2")
    assert code == EXIT_USAGE and out == ""
    assert "error" in err


def test_class_oversized_r_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "class", "--r", "27", "--n", "2")
    assert code == EXIT_USAGE and out == ""
    assert err.count("\n") == 1 and "r <= 26" in err


# -- dual ---------------------------------------------------------------


def test_dual_text(capsys):
    code, out, _ = run_cli(capsys, "dual", "--n", "2")
    assert code == EXIT_OK
    assert "[1, 1, -1]" in out
    assert "[PASS]" in out and "[FAIL]" not in out


def test_dual_json(capsys):
    code, out, _ = run_cli(capsys, "dual", "--n", "2", "--format", "json")
    assert code == EXIT_OK
    data = assert_json_round_trips(out)
    assert sorted(map(tuple, data["rays"])) == [
        (0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, -1)]
    assert data["involution"] is True and data["pass"] is True


def test_dual_n1_claims_no_generator_check(capsys):
    # at n = 1 the dual has 2 rays and the canonical list 3, so no
    # "dual generators" row runs and the key must not affirm one
    code, out, _ = run_cli(capsys, "dual", "--n", "1", "--format", "json")
    assert code == EXIT_OK
    data = assert_json_round_trips(out)
    assert data["canonical_generators"] is None
    assert [row["name"] for row in data["checks"]] == ["duality involution"]
    assert data["involution"] is True and data["pass"] is True
    _, out, _ = run_cli(capsys, "dual", "--n", "2", "--format", "json")
    assert json.loads(out)["canonical_generators"] is True


def double_descriptions(capsys, monkeypatch, *argv) -> tuple[int, int]:
    """The exit code of a command run with cold cone caches, and the
    number of double descriptions it ran."""
    calls = []
    extreme_rays = toriclat.extreme_rays
    monkeypatch.setattr(toriclat, "extreme_rays",
                        lambda *args: calls.append(args) or extreme_rays(*args))
    clear_caches()
    try:
        code, _, _ = run_cli(capsys, *argv, "--format", "json")
    finally:
        clear_caches()
    return code, len(calls)


def test_dual_runs_two_double_descriptions(capsys, monkeypatch):
    # one for the model cone's facets, one for the dual's: the involution
    # row compares the two and builds no third cone
    assert double_descriptions(capsys, monkeypatch, "dual", "--n", "6") == (EXIT_OK, 2)


def test_dual_usage_error(capsys):
    code, _, _ = run_cli(capsys, "dual", "--n", "0")
    assert code == EXIT_USAGE


# -- resolve ------------------------------------------------------------


def test_resolve_n2_json(capsys):
    code, out, _ = run_cli(capsys, "resolve", "--n", "2", "--format", "json")
    assert code == EXIT_OK
    data = assert_json_round_trips(out)
    assert len(data["fan"]["max_cones"]) == 2
    assert len(data["charts"]) == 2
    assert data["semistable"] == {"reduced": True, "smooth": True, "snc": True}
    chart = data["charts"][0]
    assert set(chart) == {"coords", "relation"}
    assert all(set(c) == {"name", "monomial"} for c in chart["coords"])
    assert set(chart["relation"]) == {"left", "right"}


def test_resolve_n1_has_no_charts(capsys):
    code, out, _ = run_cli(capsys, "resolve", "--n", "1", "--format", "json")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["charts"] == []
    assert len(data["fan"]["max_cones"]) == 1
    assert data["semistable"]["snc"] is True


def test_resolve_fails_on_a_dropped_slab(capsys, slab_mutant):
    # sigma_n dropped: every cone is still unimodular and the fiber reduced,
    # so only the partition row can catch it
    slab_mutant(fan=lambda n: Fan([sigma_subcone(n, k) for k in range(1, n)]))
    code, out, _ = run_cli(capsys, "resolve", "--n", "4", "--format", "json")
    assert code == EXIT_FAILED
    data = json.loads(out)
    assert len(data["fan"]["max_cones"]) == 3
    assert data["semistable"]["snc"] is True
    rows = {row["name"]: row for row in data["checks"]}
    assert rows["cones unimodular"]["pass"] and rows["semistable fiber"]["pass"]
    assert not rows["partition of model cone"]["pass"]
    assert rows["partition of model cone"]["detail"].startswith("unmatched wall")


def test_resolve_report_and_verify_print_one_certificate(capsys):
    def rows_of(*argv):
        _, out, _ = run_cli(capsys, *argv, "--format", "json")
        return {row["name"]: (row["pass"], row["detail"])
                for row in json.loads(out)["checks"]}

    # report certifies k = 6 and restricts it to each lower stratum, whose
    # partition row says so and whose other two rows are resolve's
    names = ["cones unimodular", "partition of model cone", "semistable fiber"]
    faces = {1: "x2=...=x6=0", 2: "x3=...=x6=0", 3: "x4=...=x6=0", 4: "x5=x6=0", 5: "x6=0"}
    verify = rows_of("verify", "--scope", "lemma-toric", "--max-n", "6")
    report = rows_of("report", "--n", "6", "--d", "7")
    for k in range(1, 7):
        resolve = rows_of("resolve", "--n", str(k))
        assert list(resolve) == names
        assert [verify[f"{name} n={k}"] for name in names] == list(resolve.values()), k
        if k < 6:
            resolve["partition of model cone"] = (True, f"restricted from k=6 to {faces[k]}")
        assert ([report[f"stratum k={k}: {name}"] for name in names]
                == list(resolve.values())), k
        dual = rows_of("dual", "--n", str(k))
        assert list(dual) == ["dual generators"] * (k >= 2) + ["duality involution"]
        assert [verify[f"{name} n={k}"] for name in dual] == list(dual.values()), k


def test_resolve_usage_error(capsys):
    code, _, _ = run_cli(capsys, "resolve", "--n", "-3")
    assert code == EXIT_USAGE


# -- verify -------------------------------------------------------------


def test_verify_arrangement_scope(capsys):
    code, out, _ = run_cli(capsys, "verify", "--scope", "lemma-arrangement",
                           "--max-n", "6", "--format", "json")
    assert code == EXIT_OK
    data = assert_json_round_trips(out)
    assert data["pass"] is True
    assert all(row["pass"] for row in data["checks"])
    names = [row["name"] for row in data["checks"]]
    assert "triple agreement n=6" in names
    assert "boundary residue r=n+2, n=5" in names


def test_verify_toric_runs_one_double_description_per_chart(capsys, monkeypatch):
    # per n: the model cone, its dual and sigma_1 (each later slab comes by
    # exchange), then for n >= 2 one per chart cone, whose rays are compared
    # with the slab's stored facets and not with a built dual cone
    code, count = double_descriptions(capsys, monkeypatch,
                                      "verify", "--scope", "lemma-toric", "--max-n", "6")
    assert code == EXIT_OK
    assert count == sum(3 + (n if n >= 2 else 0) for n in range(1, 7)) == 38


def test_verify_toric_scope(capsys):
    code, out, _ = run_cli(capsys, "verify", "--scope", "lemma-toric",
                           "--max-n", "4", "--format", "json")
    assert code == EXIT_OK
    data = json.loads(out)
    names = [row["name"] for row in data["checks"]]
    assert "dual generators n=4" in names
    assert "partition of model cone n=3" in names
    assert "charts match dual cones n=2" in names
    assert all(row["pass"] for row in data["checks"])


def test_verify_partition_row_names_its_witness(capsys, slab_mutant):
    # drop sigma_n from every fan but the one-slab fan of n=1
    slab_mutant(fan=lambda n: Fan(
        [sigma_subcone(n, k) for k in range(1, n)] or [sigma_subcone(n, n)]))
    code, out, _ = run_cli(capsys, "verify", "--scope", "lemma-toric",
                           "--max-n", "3", "--format", "json")
    assert code == EXIT_FAILED
    rows = {row["name"]: row for row in json.loads(out)["checks"]}
    assert rows["partition of model cone n=1"]["pass"]
    assert not rows["partition of model cone n=3"]["pass"]
    assert rows["partition of model cone n=3"]["detail"].startswith("unmatched wall with rays")


def unrestricted_rows(depth, broken, strata):
    """The failing rows of the lower strata of a report whose certificate
    of depth `depth` failed its row `broken`: no fan is restricted to them."""
    why = f"no restriction from k={depth}: its row {broken!r} fails"
    no_count = "no orbit count: no fan was restricted"
    return {f"stratum k={k}: {name}": detail for k in strata for name, detail in [
        ("cones unimodular", why), ("partition of model cone", why), ("semistable fiber", why),
        ("resolved fiber class", no_count), ("mod-L invariance", no_count)]}


def test_overlapping_cone_fails_the_partition_row(capsys, slab_mutant):
    # the slab fan of n = 4 plus sigma_2 with x_1 and x_2 swapped, which
    # overlaps sigma_1 and sigma_2: a row fails, and nothing raises.  report
    # restricts k = 4 to the lower strata, so it restricts no fan to them
    slabs = toriclat.resolution_fan(4)
    swapped = Cone([(r[1], r[0], *r[2:]) for r in sigma_subcone(4, 2).rays])
    slab_mutant(fan=lambda k: (
        Fan([*slabs, swapped]) if k == 4 else toriclat.resolution_fan(k)))
    code, out, _ = run_cli(capsys, "resolve", "--n", "4", "--format", "json")
    report_code, report_out, _ = run_cli(capsys, "report", "--n", "4", "--d", "5",
                                         "--format", "json")
    assert code == report_code == EXIT_FAILED
    failing = [row for row in json.loads(out)["checks"] if not row["pass"]]
    assert [row["name"] for row in failing] == ["partition of model cone"]
    assert failing[0]["detail"].startswith("unmatched wall with rays")
    rows = {row["name"]: row for row in json.loads(report_out)["checks"]}
    row = rows["stratum k=4: partition of model cone"]
    assert not row["pass"] and row["detail"] == failing[0]["detail"]
    assert {name: row["detail"] for name, row in rows.items()
            if not row["pass"] and "k=4" not in name} == unrestricted_rows(
        4, "partition of model cone", range(1, 4))


def test_wrong_fiber_direction_fails_the_resolved_fiber_class_row(capsys, slab_mutant):
    # certify the fiber of z_1 (direction e_1*) instead of t: the fan, the
    # reducedness and the residues 0 == 0 all pass, and only the class
    # tells; k = 2 passes, as t*y = z_1*z_2 is symmetric in (t, y) <-> (z_1, z_2).
    # The fiber of z_1 has two components at every k, D_rho for the rays e_1
    # and f_1 = e_1 + e_(k+1), which are the rays that e_1* pairs positively
    slab_mutant(direction=lambda k: unit(k + 1, 0))
    code, out, _ = run_cli(capsys, "report", "--n", "4", "--d", "5", "--format", "json")
    text_code, text, _ = run_cli(capsys, "report", "--n", "4", "--d", "5")
    failing = {
        "stratum k=1: resolved fiber class":
            "orbit count gives -L^3 + 2*L^4; 2 component(s) at L=1; expected L^4",
        "stratum k=3: resolved fiber class":
            "orbit count gives L^3 + 2*L^4; 2 component(s) at L=1; expected 3*L^4",
        "stratum k=4: resolved fiber class":
            "orbit count gives 2*L^3 + 2*L^4; 2 component(s) at L=1; expected 4*L^4",
    }
    assert code == text_code == EXIT_FAILED
    rows = json.loads(out)["checks"]
    assert {r["name"]: r["detail"] for r in rows if not r["pass"]} == failing
    failed = [re.fullmatch(r"  \[FAIL\] (.+?)  +(.+)", line).groups()
              for line in text.splitlines() if line.startswith("  [FAIL] ")]
    assert dict(failed) == failing


@pytest.mark.parametrize("fan, max_n, witnesses", [
    (lambda n: Fan([model_cone(n)]), 2, {
        "cones unimodular n=2": "is not unimodular: 4 rays in rank 3",
    }),
    (lambda n: Fan([Cone([(1, 0), (1, 2)])]), 1, {
        "cones unimodular n=1": "is not unimodular: ray [1, 0] pairs 2 with its opposite facet",
        "semistable fiber n=1": "; ray [1, 2] pairs 2 with the fiber direction",
    }),
], ids=["model-cone", "index-2"])
def test_verify_unimodular_and_semistable_rows_name_their_witness(
        capsys, slab_mutant, fan, max_n, witnesses):
    slab_mutant(fan=fan)
    code, out, _ = run_cli(capsys, "verify", "--scope", "lemma-toric",
                           "--max-n", str(max_n), "--format", "json")
    assert code == EXIT_FAILED
    rows = {row["name"]: row for row in json.loads(out)["checks"]}
    for name, witness in witnesses.items():
        assert not rows[name]["pass"]
        assert rows[name]["detail"].endswith(witness), rows[name]


def test_non_unimodular_cones_leave_no_orbit_count(capsys, slab_mutant):
    # the model cone itself as the fan of k = 3, 6 rays in rank 4: without
    # unimodular cones there is no orbit count, so both class rows fail too,
    # and no fan is restricted to k = 1, 2
    slab_mutant(fan=lambda k: Fan([model_cone(k)]) if k == 3 else toriclat.resolution_fan(k))
    code, out, _ = run_cli(capsys, "report", "--n", "3", "--d", "4", "--format", "json")
    assert code == EXIT_FAILED
    no_count = "no orbit count: the cones are not unimodular"
    assert {r["name"]: r["detail"] for r in json.loads(out)["checks"] if not r["pass"]} == {
        "stratum k=3: cones unimodular": f"{model_cone(3)!r} is not unimodular: 6 rays in rank 4",
        "stratum k=3: semistable fiber": "reduced=True, smooth=False",
        "stratum k=3: resolved fiber class": no_count,
        "stratum k=3: mod-L invariance": no_count,
        **unrestricted_rows(3, "cones unimodular", (1, 2)),
    }


VERIFY_N2 = ("verify", "--scope", "lemma-toric", "--max-n", "2")
DUAL_N2 = ("dual", "--n", "2")
VERIFY_N3 = ("verify", "--scope", "lemma-toric", "--max-n", "3")
DUAL_N3 = ("dual", "--n", "3")
EXTRA_RAY = (("dual_generators", without_last_generator),
             "ray [1, 1, -1] of the dual cone is not a canonical generator")
MISSING_GENERATOR = (("dual_generators", with_extra_generator),
                     "canonical generator [1, 1, 1] is not a ray of the dual cone")


REDUNDANT_FACET = (("model_cone", redundant_facet_at_3), "dual(dual(sigma)) == sigma")


@pytest.mark.parametrize("argv, row, mutant, witness", [
    (VERIFY_N2, "dual generators n=2", *EXTRA_RAY),
    (VERIFY_N2, "dual generators n=2", *MISSING_GENERATOR),
    (VERIFY_N2, "charts match dual cones n=2",
     ("sigma_subcone", lambda n, k: sigma_subcone(n, n + 1 - k)),
     "mismatch at chart 1: ray [-1, 0, 1] only in the dual cone"),
    (VERIFY_N2, "charts match dual cones n=2",
     ("blowup_chart_sequence", lambda n: blowup_chart_sequence(n)[::-1]),
     "mismatch at chart 1: ray [-1, 0, 1] only in the chart cone"),
    (VERIFY_N2, "charts match dual cones n=2",
     ("blowup_chart_sequence", shifted_first_chart),
     "mismatch at chart 1: ray [0, 1, 0] only in the dual cone"),
    (DUAL_N2, "dual generators", *EXTRA_RAY),
    (DUAL_N2, "dual generators", *MISSING_GENERATOR),
    (VERIFY_N3, "duality involution n=3", *REDUNDANT_FACET),
    (DUAL_N3, "duality involution", *REDUNDANT_FACET),
], ids=["extra-ray", "missing-generator", "dual-differs", "chart-differs", "chart-monomial",
        "dual-extra-ray", "dual-missing-generator", "redundant-facet",
        "dual-redundant-facet"])
def test_verify_duality_rows_name_their_witness(capsys, monkeypatch, cold_caches,
                                                 argv, row, mutant, witness):
    in_commands(*mutant)(monkeypatch)
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == EXIT_FAILED
    data = json.loads(out)
    rows = {r["name"]: r for r in data["checks"]}
    assert not rows[row]["pass"]
    assert rows[row]["detail"] == witness
    assert all(r["pass"] for name, r in rows.items() if name != row)
    assert data["pass"] is False
    code, out, _ = run_cli(capsys, *argv)
    assert code == EXIT_FAILED
    failed = [line for line in out.splitlines() if line.startswith("  [FAIL] ")]
    assert len(failed) == 1
    assert re.fullmatch(rf"  \[FAIL\] {re.escape(row)} +{re.escape(witness)}", failed[0])


@pytest.mark.parametrize("argv, row", [(VERIFY_N2, "charts match dual cones n=2"),
                                       (("resolve", "--n", "2"), "blow-up charts")],
                         ids=["verify", "resolve"])
def test_a_chart_that_cannot_be_built_fails_a_row(capsys, monkeypatch, cold_caches, argv, row):
    # without its last generator the dual of the model has no y, so the
    # relation t*y of the singular chart, which every blow-up chart is
    # replayed from, names a coordinate that is not there: a row names the
    # error, and nothing raises
    monkeypatch.setattr(duality, "dual_generators", without_last_generator)
    witness = ("a chart could not be built: "
               "relation index 3 out of range")
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == EXIT_FAILED
    rows = {r["name"]: r for r in json.loads(out)["checks"]}
    assert not rows[row]["pass"] and rows[row]["detail"] == witness
    code, out, _ = run_cli(capsys, *argv)
    assert code == EXIT_FAILED
    failed = [re.fullmatch(r"  \[FAIL\] (.+?)  +(.+)", line).groups()
              for line in out.splitlines() if line.startswith("  [FAIL] ")]
    assert dict(failed)[row] == witness


ARRANGEMENT_N3 = ("verify", "--scope", "lemma-arrangement", "--max-n", "3")
REPORT_N3_D4 = ("report", "--n", "3", "--d", "4")
DEGENERATION_N3 = ("verify", "--scope", "degeneration", "--max-n", "3")


@pytest.mark.parametrize("argv, module, name, by, at, failing", [
    (ARRANGEMENT_N3, grothring, "arrangement_class_inclusion_exclusion", L, (2, 3),
     {"triple agreement n=3": "first disagreement at r=2"}),
    # the closed formula is one of the three routes, so its constant term
    # flips the triple agreement too; past r = max-n it flips the boundary only
    (ARRANGEMENT_N3, grothring, "arrangement_class_closed", ONE, (2, 3),
     {"triple agreement n=3": "first disagreement at r=2",
      "residue 1 for r <= n+1, n=3": "fails at r=2"}),
    (ARRANGEMENT_N3, grothring, "arrangement_class_closed", ONE, (5, 3),
     {"boundary residue r=n+2, n=3": "residue 1, expected 0"}),
    (REPORT_N3_D4, degeneration, "arrangement_class_closed", ONE, None,
     {"central fiber class = 1 mod L":
      "[4 hyperplanes in P^4] = 2 + 2*L - 2*L^2 + 4*L^3, residue 2"}),
    (REPORT_N3_D4, degeneration, "affine_coordinate_arrangement_class", L, (2,),
     {"stratum k=2: singular fiber class":
      "scissor oracle gives -L^2 + 3*L^3 = L^2*(L^2 - (L-1)^2)"}),
    (DEGENERATION_N3, degeneration, "arrangement_class_closed", ONE, None,
     {f"degeneration n={n} d={d}": "failing: central fiber class = 1 mod L"
      for n in (2, 3) for d in range(1, n + 2)}),
    (DEGENERATION_N3, degeneration, "affine_coordinate_arrangement_class", L, (2,),
     {f"degeneration n={n} d={d}": "failing: stratum k=2: singular fiber class"
      for n, d in [(2, 2), (2, 3), (3, 2), (3, 3), (3, 4)]}),
], ids=["triple-agreement", "residue", "boundary-residue", "central-fiber",
        "singular-fiber", "degeneration-central-fiber", "degeneration-singular-fiber"])
def test_class_rows_name_their_witness(capsys, monkeypatch, cold_caches,
                                       argv, module, name, by, at, failing):
    plus(module, name, by, at)(monkeypatch)
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == EXIT_FAILED
    rows = json.loads(out)["checks"]
    assert {r["name"]: r["detail"] for r in rows if not r["pass"]} == failing
    code, out, _ = run_cli(capsys, *argv)
    assert code == EXIT_FAILED
    failed = [re.fullmatch(r"  \[FAIL\] (.+?)  +(.+)", line).groups()
              for line in out.splitlines() if line.startswith("  [FAIL] ")]
    assert dict(failed) == failing


def test_verify_degeneration_raises_each_power_of_L_minus_1_once(capsys, monkeypatch,
                                                                 cold_caches):
    # (L-1)^k depends on the depth k alone: the 25 reports of n <= 6 resolve
    # 75 strata, and raise it once for each of the 6 depths
    powers = []
    power = grothring.GrothClass.__pow__
    monkeypatch.setattr(grothring.GrothClass, "__pow__",
                        lambda self, k: powers.append((self, k)) or power(self, k))
    code, _, _ = run_cli(capsys, "verify", "--scope", "degeneration", "--max-n", "6")
    assert code == EXIT_OK
    assert sorted(k for base, k in powers if base == L - ONE) == list(range(1, 7))


def test_verify_degeneration_scope(capsys):
    code, out, _ = run_cli(capsys, "verify", "--scope", "degeneration",
                           "--max-n", "4", "--format", "json")
    assert code == EXIT_OK
    data = json.loads(out)
    assert [row["name"] for row in data["checks"]] == [
        f"degeneration n={n} d={d}" for n in range(2, 5) for d in range(1, n + 2)]
    assert all(row["pass"] for row in data["checks"])


@pytest.mark.parametrize("max_n", [0, 1, 3, 5])
def test_verify_rows_stay_inside_the_covered_range(capsys, max_n):
    # a row may name only an n or a k that the run covered
    code, out, _ = run_cli(capsys, "verify", "--scope", "all", "--max-n", str(max_n),
                           "--format", "json")
    assert code == EXIT_OK
    top = min(max_n, cmd_verify.TORIC_MAX_N, cmd_verify.ARRANGEMENT_MAX_N)
    data = json.loads(out)
    beyond = [row["name"] for row in data["checks"]
              if any(int(i) > top for i in re.findall(r"\b(?:n=|k<=)(\d+)", row["name"]))]
    assert beyond == []
    # a suite is covered only when it ran a row: the toric suite starts at
    # n = 1 and the degeneration suite at n = 2
    first = {"lemma-arrangement": 0, "lemma-toric": 1, "degeneration": 2}
    assert data["covered_max_n"] == {name: top for name, n in first.items() if n <= top}


def test_verify_text_summary(capsys):
    code, out, _ = run_cli(capsys, "verify", "--scope", "lemma-toric", "--max-n", "3")
    assert code == EXIT_OK
    assert "[PASS]" in out and "[FAIL]" not in out
    assert "checks passed" in out


def test_verify_deterministic(capsys):
    args = ("verify", "--scope", "all", "--max-n", "3", "--format", "json")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_verify_reports_covered_range(capsys):
    _, out, _ = run_cli(capsys, "verify", "--max-n", "12", "--format", "json")
    data = json.loads(out)
    assert data["max_n"] == 12
    assert data["covered_max_n"] == {
        "lemma-arrangement": 12, "lemma-toric": 12, "degeneration": 12}
    names = [row["name"] for row in data["checks"]]
    assert ("partition of model cone n=12" in names
            and "partition of model cone n=13" not in names)

    _, out, _ = run_cli(capsys, "verify", "--max-n", "3", "--format", "json")
    assert json.loads(out)["covered_max_n"] == {
        "lemma-arrangement": 3, "lemma-toric": 3, "degeneration": 3}

    _, out, _ = run_cli(capsys, "verify", "--scope", "lemma-toric", "--max-n", "20")
    assert out.splitlines()[1] == "covered: lemma-toric n<=16"


def test_verify_oversized_max_n_fails_fast(capsys):
    # every suite clamps its range, so an oversized max-n is no usage error
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "verify", "--max-n", "31", "--format", "json")
    assert time.perf_counter() - start < 2.0
    assert code == EXIT_OK
    assert json.loads(out)["covered_max_n"] == {
        "lemma-arrangement": 16, "lemma-toric": 16, "degeneration": 16}


def test_verify_arrangement_tallies_subsets_once_per_r(capsys, cold_caches):
    code, _, _ = run_cli(capsys, "verify", "--scope", "lemma-arrangement", "--max-n", "12")
    assert code == EXIT_OK
    assert _subset_sizes.cache_info().misses == 12


def test_verify_arrangement_suite_is_clamped(capsys):
    # without the clamp, n = 30 would enumerate about 31 * 2^31 subsets
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "verify", "--scope", "lemma-arrangement",
                           "--max-n", "30", "--format", "json")
    assert time.perf_counter() - start < 5.0
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["max_n"] == 30
    assert data["covered_max_n"] == {"lemma-arrangement": 16}
    names = [row["name"] for row in data["checks"]]
    assert "triple agreement n=16" in names and "triple agreement n=17" not in names


def test_verify_usage_error(capsys):
    code, _, _ = run_cli(capsys, "verify", "--scope", "everything")
    assert code == EXIT_USAGE


def test_verify_certifies_each_fan_once(capsys, monkeypatch, cold_caches):
    # the toric and degeneration suites share one certificate per rank
    ranks = []
    verify_partition = toriclat.verify_partition

    def counting(f, parent, bound=0):
        ranks.append(parent.rank)
        return verify_partition(f, parent, bound)

    monkeypatch.setattr(toriclat, "verify_partition", counting)
    code, _, _ = run_cli(capsys, "verify", "--scope", "all", "--max-n", "8", "--format", "json")
    assert code == EXIT_OK
    assert sorted(ranks) == list(range(2, 10))


# -- report -------------------------------------------------------------


def test_report_quartic_threefolds(capsys):
    code, out, _ = run_cli(capsys, "report", "--n", "3", "--d", "4")
    assert code == EXIT_OK
    assert "overall: PASS" in out
    assert "stratum k=3" in out


def test_report_json_schema(capsys):
    code, out, _ = run_cli(capsys, "report", "--n", "2", "--d", "3",
                           "--format", "json")
    assert code == EXIT_OK
    data = assert_json_round_trips(out)
    assert set(data) == {"model", "checks", "fiber_class_before",
                         "fiber_class_after", "mod_L_invariant"}
    assert data["model"] == {"type": "degeneration", "n": 2, "d": 3}
    assert data["mod_L_invariant"] is True


def test_report_rejects_outside_fano_range(capsys):
    code, _, err = run_cli(capsys, "report", "--n", "2", "--d", "4")
    assert code == EXIT_USAGE
    assert "d <= n+1" in err


def test_report_internal_error_is_no_usage_error(capsys, monkeypatch, cold_caches):
    # only the spec's refusals are usage errors: a fault inside the
    # certificate propagates from `report` as it does from `verify`
    def broken(top, k):
        raise ValueError("internal fault")

    monkeypatch.setattr(toriclat, "restrict_certificate", broken)
    for argv in (("report", "--n", "3", "--d", "4"),
                 ("verify", "--scope", "degeneration", "--max-n", "3")):
        with pytest.raises(ValueError, match="internal fault"):
            main(list(argv))
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("r", [1, MAX_ENUMERATION_SIZE])
def test_class_internal_error_is_no_usage_error(capsys, monkeypatch, r):
    # `class` refuses r and n itself: an error raised inside a derivation
    # propagates, as it does from `report`
    def broken(r, n):
        raise ValueError("internal fault")

    monkeypatch.setattr(grothring, "arrangement_class_inclusion_exclusion", broken)
    with pytest.raises(ValueError, match="internal fault"):
        main(["class", "--r", str(r), "--n", "3"])
    assert capsys.readouterr().err == ""


def test_report_oversized_stratum_fails_fast(capsys):
    # strata k = 1..24 would build a slab fan each before refusing k=31
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "report", "--n", "31", "--d", "32")
    assert time.perf_counter() - start < 2.0
    assert code == EXIT_USAGE and out == ""
    assert err.count("\n") == 1 and "k <= 24" in err


@pytest.mark.parametrize("argv, cap", [
    (("resolve", "--n", "43"), "resolve is limited to n <= 42"),
    (("dual", "--n", "193"), "dual is limited to n <= 192"),
    (("class", "--r", "2", "--n", "10001"), "class is limited to n <= 10000"),
    (("class", "--r", "27", "--n", "10000"), "r <= 26"),
    (("report", "--n", "10001", "--d", "3"), "report is limited to n <= 10000"),
])
def test_oversized_size_fails_fast(capsys, argv, cap):
    # each would run for seconds to minutes, or without end, before refusing
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 2.0
    assert code == EXIT_USAGE and out == ""
    assert err.count("\n") == 1 and cap in err


def test_each_command_passes_at_its_cap(capsys):
    # the largest input each admits, `resolve` being the replay's largest
    for argv in (("resolve", "--n", str(cmd_resolve.RESOLVE_MAX_N)),
                 ("dual", "--n", str(cmd_dual.DUAL_MAX_N)),
                 ("report", "--n", str(degeneration.MAX_CERTIFIED_STRATUM),
                  "--d", str(degeneration.MAX_CERTIFIED_STRATUM + 1))):
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == EXIT_OK, argv
        rows = json.loads(out)["checks"]
        assert rows and all(row["pass"] for row in rows), argv


def test_size_caps_admit_the_benchmark_sizes():
    assert cmd_resolve.RESOLVE_MAX_N >= 32 and cmd_dual.DUAL_MAX_N >= 24
    assert cli.CLASS_MAX_N >= 17 and MAX_ENUMERATION_SIZE >= 18


@pytest.mark.parametrize("argv", [("report", "--n", "3", "--d", "4", "--bound", "3"),
                                  ("verify", "--bound", "0")])
def test_bound_is_not_an_option(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_USAGE and out == ""
    assert err.count("\n") == 1 and "--bound" in err


# -- common plumbing ----------------------------------------------------


def test_readme_synopsis_lists_every_option():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    documented = {m[1]: set(re.findall(r"--[a-z][a-z-]*", m[2]))
                  for m in re.finditer(r"^sncdegen (\w+)(.*)$", readme.read_text(),
                                       re.MULTILINE)}
    defined = {name: set(options) - {"--format"}
               for name, (_, _, options) in cli.COMMANDS.items()}
    assert documented == defined


def test_parser_dispatches_and_names_the_suites_once():
    for name, (module, _, _) in cli.COMMANDS.items():
        assert callable(importlib.import_module(f"sncdegen.{module}").run), name
    assert list(cli.COMMANDS["verify"][2]["--scope"][0]) == [*cmd_verify.SUITES, "all"]


@pytest.mark.parametrize("argv, token", [
    ((), "subcommand"),
    (("frobnicate",), "'frobnicate'"),
    (("report", "--n", "3", "--d", "4", "--bound", "3"), "'--bound'"),
    (("resolve", "--n"), "--n"),
    (("resolve", "--n="), "--n"),
    (("resolve", "--n", "three"), "'three'"),
    (("resolve", "--n", "9" * 5000), "--n"),
    (("dual", "--n", "3", "--format", "xml"), "'xml'"),
    (("verify", "--scope", "nope"), "'nope'"),
    (("verify", "--fo", "json"), "'--fo'"),
    (("verify", "--scope", "lemma-toric", "--max-n", "0"), "checks nothing at max-n 0"),
    (("verify", "--scope", "degeneration", "--max-n", "1"), "checks nothing at max-n 1"),
    (("report", "--n", "4"), "--d"),
], ids=lambda v: (" ".join(v)[:40] or "no subcommand") if isinstance(v, tuple) else None)
def test_usage_error_is_one_stderr_line(capsys, argv, token):
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_USAGE and out == ""
    assert err.count("\n") == 1 and err.startswith("sncdegen: error:")
    assert token in err


def test_usage_error_through_the_module_has_no_traceback():
    proc = subprocess.run([sys.executable, "-m", "sncdegen", "resolve", "--n", "three"],
                          capture_output=True, text=True, env=src_env(), timeout=60)
    assert proc.returncode == EXIT_USAGE and proc.stdout == ""
    assert proc.stderr == "sncdegen: error: argument --n: invalid int value: 'three'\n"


# -- the program entry: `sncdegen.__main__.run` ---------------------------

#: Run in a child with the command line in `sys.argv`: apply the patch of
#: `FLIPS` that the environment names, if any, call `run`, and print whether
#: the heap is frozen from an `atexit` handler, which runs after `run` exits.
RUN_IN_CHILD = """
import atexit, gc, os, sys
atexit.register(lambda: print("frozen", gc.get_freeze_count() > 0, file=sys.stderr))
if os.environ.get("FLIP"):
    import pytest
    from test_mutations import FLIPS
    FLIPS[os.environ["FLIP"]](pytest.MonkeyPatch())
from sncdegen.__main__ import run
run()
"""


def test_main_in_process_freezes_nothing(capsys):
    before = gc.get_freeze_count()
    assert main(["class", "--r", "3", "--n", "2"]) == EXIT_OK
    assert main(["class", "--r", "0", "--n", "2"]) == EXIT_USAGE
    assert gc.get_freeze_count() == before


@pytest.mark.parametrize("argv, flip, expected", [
    (("report", "--n", "3", "--d", "4", "--format", "json"), None, EXIT_OK),
    (("class", "--r", "0", "--n", "2"), None, EXIT_USAGE),
    (("class", "--r", "2", "--n", "3"), "triple agreement", EXIT_FAILED),
], ids=lambda v: " ".join(v) if isinstance(v, tuple) else None)
def test_run_exits_as_main_returns_after_freezing(capsys, monkeypatch, argv, flip, expected):
    clear_caches()
    with monkeypatch.context() as patched:
        if flip:
            FLIPS[flip](patched)
        code, out, err = run_cli(capsys, *argv)
    clear_caches()
    assert code == expected
    env = dict(src_env(), FLIP=flip or "")
    env["PYTHONPATH"] += os.pathsep + str(Path(__file__).parent)
    proc = subprocess.run([sys.executable, "-c", RUN_IN_CHILD, *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err + "frozen True\n")
    if not flip:  # the module entry of the same command line
        proc = subprocess.run([sys.executable, "-m", "sncdegen", *argv],
                              capture_output=True, text=True, env=src_env(), timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)


def test_importing_the_entry_module_runs_nothing():
    proc = subprocess.run([sys.executable, "-c", "import sncdegen.__main__"],
                          capture_output=True, text=True, env=src_env(), timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")


#: Integer values: small sizes, spellings that are not integers, and huge
#: values on either side, one past the interpreter's digit limit.  A
#: positive huge value is refused by a size cap, except for `--max-n`,
#: which clips it to the suites' largest n: that is a full run at the cap,
#: which the tests above time, so here `--max-n` stays small or negative.
SMALL_INT = st.integers(-2, 6).map(str)
NOT_AN_INT = st.sampled_from(["", "x", "1.5", "0x10", " 3", "+4", "--n"])
HUGE_INT = st.integers(10**6, 10**40).map(str) | st.just("9" * 5000)


@st.composite
def command_lines(draw):
    """An argv for `main`: a subcommand of `COMMANDS` or not, then flags of
    its own or not, with valid or invalid values, repeated, in the
    `--flag value` or the `--flag=value` form, and perhaps a dangling flag
    or a request for help."""
    name = draw(st.sampled_from([*cli.COMMANDS, "frobnicate", "--help"]))
    options = cli.COMMANDS[name][2] if name in cli.COMMANDS else {"--n": (int,)}
    flags = st.sampled_from([*options, "--bound", "-n", "--N"])
    argv = [name]
    for flag in draw(st.lists(flags, max_size=5)):
        kind = options.get(flag, (int,))[0]
        if kind is int:
            huge = HUGE_INT.map("-".__add__)
            if flag != "--max-n":
                huge |= HUGE_INT
            value = draw(SMALL_INT if draw(st.booleans()) else NOT_AN_INT | huge)
        else:
            value = draw(st.sampled_from([*kind, "", "JSON", "nope"]))
        argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    argv += draw(st.sampled_from([[], [], ["--format"], ["--help"]]))
    return argv


@settings(max_examples=200, deadline=None, derandomize=True)
@given(command_lines())
@example(["class", "--r", "3", "--n=2", "--r", "4"])
@example(["dual", "--n", "3", "--format=json"])
@example(["resolve", "--n=3", "--format", "text"])
@example(["verify", "--scope", "lemma-toric", "--max-n", "2", "--scope=all"])
@example(["report", "--n", "3", "--d", "4", "--format", "json"])
def test_any_command_line_exits_0_1_or_2(argv):
    # in process, so a traceback would be an exception out of `main`
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    err = err.getvalue()
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_FAILED)
    if code == EXIT_USAGE:
        assert err.count("\n") == 1 and err.startswith("sncdegen: error: ")
    else:
        assert err == ""


@pytest.mark.parametrize("argv", [("-h",), ("--help",),
                                  *((name, flag) for name in cli.COMMANDS
                                    for flag in ("-h", "--help"))], ids=" ".join)
def test_help_names_every_subcommand_and_option(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_OK and err == ""
    if len(argv) == 1:
        assert all(f"  {name} " in out for name in cli.COMMANDS)
        return
    options = cli.COMMANDS[argv[0]][2]
    rows = [line.split(maxsplit=1) for line in out.splitlines() if line.startswith("  --")]
    assert [flag for flag, _ in rows] == list(options)
    for flag, text in rows:
        kind, default, _ = options[flag]
        assert ("required" if default is None else f"default {default}") in text
        assert kind is int or all(value in text for value in kind)


def test_unknown_subcommand(capsys):
    code, _, err = run_cli(capsys, "frobnicate")
    assert code == EXIT_USAGE and "error" in err


def test_missing_subcommand(capsys):
    code, _, _ = run_cli(capsys)
    assert code == EXIT_USAGE


def test_missing_required_flag(capsys):
    code, _, _ = run_cli(capsys, "class", "--r", "3")
    assert code == EXIT_USAGE


def test_bad_integer(capsys):
    code, _, _ = run_cli(capsys, "class", "--r", "three", "--n", "2")
    assert code == EXIT_USAGE


@pytest.mark.parametrize("buffering", [[], ["-u"]], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["report", "--n", "3", "--d", "4"],
                                  ["class", "--r", "3", "--n", "2"]], ids=" ".join)
def test_unwritable_stdout_is_one_error_line(buffering, argv):
    # /dev/full refuses every write with ENOSPC, whether print or the final
    # flush meets it first
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this platform")
    with open("/dev/full", "wb") as full:
        proc = subprocess.run([sys.executable, *buffering, "-m", "sncdegen", *argv],
                              stdout=full, stderr=subprocess.PIPE, env=src_env(), timeout=60)
    assert proc.stderr.decode() == (
        "sncdegen: error: cannot write the output: No space left on device\n")
    assert proc.returncode == 1


def test_closed_pipe_ends_without_traceback():
    # A pipe of one page, read one line and closed, like `| head -1`: the
    # rest of the output cannot fit, so the writer meets the closed pipe.
    fcntl = pytest.importorskip("fcntl")
    if not hasattr(fcntl, "F_SETPIPE_SZ"):
        pytest.skip("pipe capacity cannot be set on this platform")
    read_end, write_end = os.pipe()
    fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, 4096)
    if fcntl.fcntl(write_end, fcntl.F_GETPIPE_SZ) >= 6000:  # the output is ~6 kB
        pytest.skip("pipe capacity of one page holds the whole output")
    proc = subprocess.Popen(
        [sys.executable, "-m", "sncdegen", "verify", "--scope", "lemma-arrangement",
         "--format", "json"],
        stdout=write_end, stderr=subprocess.PIPE, env=src_env())
    os.close(write_end)
    with os.fdopen(read_end, "rb", buffering=0) as reader:
        first = reader.readline()
    _, err = proc.communicate(timeout=60)
    assert first == b"{\n"
    assert b"Traceback" not in err and err == b""
    assert proc.returncode == 1
