import csv
import dataclasses
import hashlib
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import numpy as np

import helpers
from certibif import continuation as cont
from certibif.cift import _ROOT_NAMES, certificate_json
from certibif.cli import (BranchPoints, build_parser, emit_bifurcation_diagram,
                          emit_branch_csv, emit_certificate_chain, main)


def test_transcritical_prints_location(tmp_path, capsys):
    rc = main(["--out", str(tmp_path), "transcritical"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "72.22222222222" in out
    assert (tmp_path / "transcritical.json").exists()


def test_farey_prints_fraction(capsys):
    rc = main(["farey", "0.126", "0.129"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "5/39"


def test_unwritable_output_dir_is_usage_error(capsys):
    rc = main(["--out", "/proc/no-such-dir/x", "transcritical"])
    assert rc == 2


def test_bad_flags_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["branch", "--no-such-flag"])
    assert exc.value.code == 2


def test_simulate_deterministic(tmp_path, capsys):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        rc = main(["--out", str(out), "simulate", "--R", "29.15",
                   "--years", "50", "--x0", "density:1500"])
        assert rc == 0
    assert (a / "simulate.csv").read_bytes() == (b / "simulate.csv").read_bytes()


def test_simulate_random_x0_seeded(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out, seed in ((a, "7"), (b, "7")):
        rc = main(["--out", str(out), "--seed", seed, "simulate", "--R", "100",
                   "--years", "10", "--x0", "random"])
        assert rc == 0
    assert (a / "simulate.csv").read_bytes() == (b / "simulate.csv").read_bytes()


def test_validate_sn_json_roundtrip(tmp_path, capsys, sn_cert):
    rc = main(["--out", str(tmp_path), "validate-sn"])
    assert rc == 0
    blob = (tmp_path / "sn_certificate.json").read_text()
    assert certificate_json(sn_cert) == blob
    helpers.assert_json_lossless(sn_cert, blob)
    assert sn_cert.delta_accuracy <= 1e-10


def test_certificate_numbers_are_decimal_strings(tmp_path):
    """Every number string that validate-sn, validate-ns and transcritical
    write parses with float(); only the names and the hash are text."""
    text_keys = {"kind", "system", "preconditioner_sha256"}

    def strings(node, key=None):
        if isinstance(node, dict):
            for k, v in node.items():
                yield from strings(v, k)
        elif isinstance(node, list):
            for v in node:
                yield from strings(v, key)
        elif isinstance(node, str) and key not in text_keys:
            yield key, node

    for verb, name in (("validate-sn", "sn_certificate.json"),
                       ("validate-ns", "ns_certificate.json"),
                       ("transcritical", "transcritical.json")):
        assert main(["--out", str(tmp_path), verb]) == 0
        found = list(strings(json.loads((tmp_path / name).read_text())))
        assert found
        for key, text in found:
            try:
                float(text)
            except ValueError:
                pytest.fail(f"{name}: {key} = {text!r} is not a decimal string")


def test_validate_ns_with_anchor_file(tmp_path, capsys, ns_cert):
    anchor_path = tmp_path / "anchor.json"
    anchor_path.write_text(json.dumps([repr(v) for v in ns_cert.anchor]))
    rc = main(["--out", str(tmp_path), "validate-ns", "--anchor", str(anchor_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Neimark-Sacker certified" in out


def test_anchor_of_the_wrong_length_is_usage_error(tmp_path, capsys, sn_cert, ns_cert):
    """Each verb rejects the other's anchor, naming both lengths."""
    for verb, cert, got, need in (("validate-ns", sn_cert, 27, 42),
                                  ("validate-sn", ns_cert, 42, 27)):
        anchor_path = tmp_path / f"{verb}.json"
        anchor_path.write_text(json.dumps({"anchor": [repr(v) for v in cert.anchor]}))
        rc = main(["--out", str(tmp_path), verb, "--anchor", str(anchor_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"has {got} entries" in err and f"needs {need}" in err


@pytest.mark.parametrize("content", ['{"x": 1}', "5", '{"anchor": [1, null]}', "[1, 2"])
def test_malformed_anchor_file_is_usage_error(tmp_path, capsys, content):
    """An anchor file that holds neither a list of numbers nor an object
    with one under "anchor", or no JSON at all, exits 2 with a message
    naming the file."""
    anchor_path = tmp_path / "anchor.json"
    anchor_path.write_text(content)
    rc = main(["--out", str(tmp_path), "validate-sn", "--anchor", str(anchor_path)])
    assert rc == 2
    assert f"error: anchor file {anchor_path} holds neither" in capsys.readouterr().err


@pytest.mark.parametrize("entry, text", [(2, "nan"), (0, "inf"), (26, "-inf")])
def test_non_finite_anchor_entry_is_usage_error(tmp_path, capsys, entry, text):
    """An anchor entry that is not finite (NaN, or a number that overflows
    to inf) exits 2 with a message naming the file and the entry."""
    values = ["1.0"] * 27
    values[entry] = {"nan": "NaN", "inf": "1e400", "-inf": "-1e400"}[text]
    anchor_path = tmp_path / "anchor.json"
    anchor_path.write_text("[" + ", ".join(values) + "]")
    rc = main(["--out", str(tmp_path), "validate-sn", "--anchor", str(anchor_path)])
    assert rc == 2
    assert (f"error: anchor in {anchor_path}: entry {entry} is {text}, not a finite number"
            in capsys.readouterr().err)
    assert not (tmp_path / "sn_certificate.json").exists()


@pytest.mark.parametrize("argv, output", [
    (["validate-sn", "--ell", "-1"], "sn_certificate.json"),
    (["validate-sn", "--ell", "nan"], "sn_certificate.json"),
    (["validate-sn", "--ell", "0"], "sn_certificate.json"),
    (["validate-ns", "--ell", "inf"], "ns_certificate.json"),
    (["branch", "--max-steps", "0"], "branch.csv"),
    (["branch", "--max-steps", "-3"], "branch.csv"),
    (["simulate", "--R", "160", "--years", "-1"], "simulate.csv"),
    (["simulate", "--R", "160", "--skip", "-1"], "simulate.csv"),
    (["diagram", "--points", "-1"], "diagram.csv"),
], ids=["ell-negative", "ell-nan", "ell-zero", "ell-inf", "max-steps-zero",
        "max-steps-negative", "years-negative", "skip-negative", "points-negative"])
def test_bad_count_or_radius_is_usage_error(tmp_path, capsys, argv, output):
    """--ell must be a positive finite number, --max-steps at least 1 and
    --years, --skip and --points at least 0: otherwise argparse exits 2
    naming the option, and nothing is written."""
    with pytest.raises(SystemExit) as exc:
        main(["--out", str(tmp_path)] + argv)
    assert exc.value.code == 2
    assert f"argument {argv[-2]}: " in capsys.readouterr().err
    assert not (tmp_path / output).exists()


def test_zero_counts_write_header_only_outputs(tmp_path):
    """0 years and 0 diagram points are valid counts: the CSV holds only
    its header."""
    assert main(["--out", str(tmp_path), "simulate", "--R", "160", "--years", "0"]) == 0
    assert main(["--out", str(tmp_path), "diagram", "--points", "0"]) == 0
    for name in ("simulate.csv", "diagram.csv"):
        assert len((tmp_path / name).read_text().splitlines()) == 1


_F = ", ".join(["0", "0", "0.36", "0.64", "0.82", "0.97", "0.98", "0.99"] + ["1"] * 5)


@pytest.mark.parametrize("line, field", [
    ("c1 = inf", "c1"), ("c2 = -inf", "c2"), ("omega = nan", "omega"),
    ("F = " + _F.replace("0.36", "nan"), "F"), ("F = " + _F.replace("0.36", "inf"), "F"),
    ("F = " + _F.replace("0.36", "-0.36"), "F"),
], ids=["c1-inf", "c2-minus-inf", "omega-nan", "F-nan", "F-inf", "F-negative"])
def test_non_finite_constants_are_usage_errors(tmp_path, capsys, line, field):
    """A config constant that is not finite (or a negative F entry) exits
    2 with a message naming the field, before any computation."""
    cfg = tmp_path / "params.cfg"
    cfg.write_text(line + "\n")
    rc = main(["--config", str(cfg), "--out", str(tmp_path), "transcritical"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f" {field} " in err
    assert not (tmp_path / "transcritical.json").exists()


def test_far_anchor_fails_at_the_cift_stage(tmp_path, capsys):
    """An anchor far outside the model's range (phi's exponentials
    overflow there) is a certification failure with exit 1, not a crash."""
    anchor_path = tmp_path / "far.json"
    anchor_path.write_text(json.dumps([-1e5] * 27))
    rc = main(["--out", str(tmp_path), "validate-sn", "--anchor", str(anchor_path)])
    assert rc == 1
    assert "certification failed: stage cift" in capsys.readouterr().err


def test_far_anchor_writes_only_the_failure_line(tmp_path):
    """The infinite enclosures of a far anchor raise no numpy warning on
    the way to the named failure."""
    anchor_path = tmp_path / "far.json"
    anchor_path.write_text(json.dumps([-1e5] * 27))
    proc = subprocess.run([sys.executable, "-m", "certibif.cli", "--out", str(tmp_path),
                           "validate-sn", "--anchor", str(anchor_path)],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [
        "certification failed: stage cift: (H2) failed: anchor Jacobian "
        "enclosure has 41 non-finite entries"]


def test_diagram_branch_structure(tmp_path, capsys):
    rc = main(["--out", str(tmp_path), "diagram", "--points", "400"])
    assert rc == 0
    lines = (tmp_path / "diagram.csv").read_text().splitlines()
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    iR, iP = header.index("R"), header.index("P")
    istab, ibr = header.index("stability"), header.index("branch")
    trivial = [r for r in rows if r[ibr] == "trivial"]
    assert all(float(r[iP]) == 0.0 for r in trivial)
    # trivial branch flips stability at R* = 72.22
    flips = [(float(a[iR]) + float(b[iR])) / 2
             for a, b in zip(trivial[:-1], trivial[1:]) if a[istab] != b[istab]]
    assert len(flips) == 1 and abs(flips[0] - 72.222) < 1.0
    # nontrivial branch flips near the Neimark-Sacker point
    nontriv = [r for r in rows if r[ibr] == "nontrivial"]
    flips = [(float(a[iR]) + float(b[iR])) / 2
             for a, b in zip(nontriv[:-1], nontriv[1:]) if a[istab] != b[istab]]
    assert any(abs(f - 154.1) < 2.0 for f in flips)


def test_rotation_csv(tmp_path, capsys):
    rc = main(["--out", str(tmp_path), "rotation", "--R-range", "160:200:3",
               "--iterates", "20000", "--skip", "5000", "--bins", "16"])
    assert rc == 0
    lines = (tmp_path / "rotation.csv").read_text().splitlines()
    assert lines[0] == "R,rho,convergence_gap,iterates"
    rows = [ln.split(",") for ln in lines[1:]]
    assert [float(r[0]) for r in rows] == [160.0, 180.0, 200.0]
    rhos = [float(r[1]) for r in rows]
    assert all(0.1 < rho < 0.15 for rho in rhos)
    assert rhos[0] > rhos[1] > rhos[2]       # rho falls with R on this range
    assert all(float(r[3]) == 20000 for r in rows)
    prof = (tmp_path / "angle_profile.csv").read_text().splitlines()
    assert len(prof) == 1 + 3 * 16


@pytest.mark.parametrize("factor, rotation_sha, profile_sha", [
    (None, "7bce198406f4de9f7428a4a5dcc8fe5e70ff87a51205178b88dd8d8b36badf0d",
     "e1d9aedbd5d12e07595faffb3555a6e5042f7f40e98099c646a67af75d4f4c8c"),
    ("1.45", "f64a0621de62982212a771752100f08c9644d81cebf9f6a3b639d0e5ac93050a",
     "aa6c1572990d3c549e4b7560509933e007ab67137dcfa92b7a8fbb63eb28bf68"),
], ids=["default-start", "x0-factor-1.45"])
def test_rotation_outputs_are_byte_stable(tmp_path, factor, rotation_sha, profile_sha):
    # the iterate tests compare at rtol 1e-12; these hashes catch a last-bit
    # drift in the orbit or its analysis
    argv = ["--out", str(tmp_path), "rotation", "--R-range", "160:200:3",
            "--iterates", "20000", "--skip", "2000"]
    assert main(argv + (["--x0-factor", factor] if factor else [])) == 0
    sha = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
           for f in ("rotation.csv", "angle_profile.csv")}
    assert sha == {"rotation.csv": rotation_sha, "angle_profile.csv": profile_sha}


def test_simulate_divergence_is_a_one_line_error(tmp_path, capsys):
    rc = main(["--out", str(tmp_path), "simulate", "--R", "100", "--x0-scale", "1e308",
               "--years", "5"])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == ["error: non-finite state at iterate 1"]


@pytest.mark.parametrize("argv, message", [
    (["--R-range", "20:30:2"], "error: at R = 20.0: angle increments change sign persistently"),
    (["--R-range", "160:200:3", "--x0-factor", "1e308"],
     "error: at R = 160.0: non-finite state at iterate 1"),
], ids=["rotation-undefined", "orbit-diverged"])
def test_rotation_failure_names_R(tmp_path, capsys, argv, message):
    rc = main(["--out", str(tmp_path), "rotation", *argv, "--iterates", "2000",
               "--skip", "100"])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(message)


@pytest.mark.parametrize("option, value", [
    ("--center", "2500"), ("--center", "1,2,3"), ("--center", "2500,inf"),
    ("--bins", "0"), ("--R-range", "160:200:0"),
    ("--iterates", "0"), ("--iterates", "1"), ("--iterates", "2"), ("--skip", "-1"),
])
def test_rotation_bad_option_is_usage_error(tmp_path, capsys, option, value):
    with pytest.raises(SystemExit) as exc:
        main(["--out", str(tmp_path), "rotation", option, value])
    assert exc.value.code == 2
    assert f"argument {option}: " in capsys.readouterr().err
    assert not (tmp_path / "rotation.csv").exists()


def test_rotation_three_iterates_is_the_least_count(tmp_path):
    """Three points give rho_N and rho_(0.8 N) one angle increment each,
    so the convergence gap is a number."""
    assert main(["--out", str(tmp_path), "rotation", "--R-range", "160:160:1",
                 "--iterates", "3"]) == 0
    with (tmp_path / "rotation.csv").open() as fh:
        (row,) = csv.DictReader(fh)
    assert row["iterates"] == "3.0" and math.isfinite(float(row["convergence_gap"]))


def test_branch_cli_short_run(tmp_path, capsys):
    rc = main(["--out", str(tmp_path), "branch", "--from-R", "300",
               "--max-steps", "12"])
    assert rc == 0
    lines = (tmp_path / "branch.csv").read_text().splitlines()
    assert len(lines) == 13
    chain = json.loads((tmp_path / "branch_certificates.json").read_text())
    assert chain["steps"] == 12 and chain["all_linked"]


def test_readme_commands_parse():
    """Every `certibif ...` line of README's command-line block parses, so
    the docs cannot keep a flag the CLI has dropped."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    commands = [ln.split("#", 1)[0].split() for ln in block.splitlines()
                if ln.startswith("certibif ")]
    assert commands
    for words in commands:
        build_parser().parse_args(words[1:])


def test_config_file_flows_through(tmp_path, capsys, coral):
    cfg = tmp_path / "params.cfg"
    cfg.write_text(coral.params.to_config())
    rc = main(["--config", str(cfg), "--out", str(tmp_path), "transcritical"])
    assert rc == 0


def test_config_key_set_twice_is_usage_error(tmp_path, capsys):
    """A key given twice exits 2 naming it and both lines, rather than
    taking the second value."""
    cfg = tmp_path / "params.cfg"
    cfg.write_text("c2 = 1.3e7\n# the same key again\nc2 = 2e7\n")
    rc = main(["--config", str(cfg), "--out", str(tmp_path), "transcritical"])
    assert rc == 2
    assert capsys.readouterr().err == (f"error: config key 'c2' set twice in {cfg}, "
                                       f"on lines 1 and 3\n")
    assert not (tmp_path / "transcritical.json").exists()


def test_branch_refuses_a_target_past_the_transcritical_point(tmp_path, capsys):
    # the branch meets x = 0 at R* = c2/c1 = 72.22..., so R = 73 is never reached
    rc = main(["--out", str(tmp_path), "branch", "--to-R", "73"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "R* = c2/c1" in err and "72.2222222222222" in err
    assert not (tmp_path / "branch_certificates.json").exists()


def test_branch_chain_traces_each_box(tmp_path):
    rc = main(["--out", str(tmp_path), "branch", "--max-steps", "12"])
    assert rc == 0
    chain = json.loads((tmp_path / "branch_certificates.json").read_text())
    assert chain["waves"] >= 1 and chain["replans"] >= 0 and chain["boxes_discarded"] >= 0
    for box in chain["boxes"]:
        assert box["bound_by"] in _ROOT_NAMES.tolist()
        vals = {k: float(box[k]) for k in ("d", "M1", "M2", "M3", "M4", "xi", "L2", "L4")}
        assert all(v >= 0.0 for v in vals.values())
        # the trace determines the certified constants (M4 = 0 on this map)
        assert float(box["L1"]) >= vals["M1"] + vals["M2"] + vals["M3"]


def test_branch_with_zero_survival_rate_fails_naming_it(tmp_path, capsys, coral):
    # S[5] = 0 leaves ages 7-13 empty at every fixed point: no scale for them
    S = list(coral.params.S)
    S[5] = 0.0
    cfg = tmp_path / "params.cfg"
    cfg.write_text(dataclasses.replace(coral.params, S=tuple(S)).to_config())
    rc = main(["--config", str(cfg), "--out", str(tmp_path), "branch",
               "--max-steps", "3"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "zero components x7, x8" in err and "x13" in err
    assert not (tmp_path / "branch_certificates.json").exists()


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "certibif.cli", "farey",
                           "0.24", "0.26"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "1/4"


def test_branch_emits_validated_diagram(tmp_path):
    rc = main(["--out", str(tmp_path), "branch", "--from-R", "300",
               "--max-steps", "8"])
    assert rc == 0
    lines = (tmp_path / "bifurcation_diagram.csv").read_text().splitlines()
    assert lines[0] == "R,P,stability,delta_u,branch"
    rows = [ln.split(",") for ln in lines[1:]]
    trivial = [r for r in rows if r[4] == "trivial"]
    nontriv = [r for r in rows if r[4] == "nontrivial"]
    assert len(nontriv) == 8 and trivial
    assert all(float(r[1]) == 0.0 for r in trivial)
    assert all(float(r[3]) > 0.0 for r in nontriv)


def test_simulate_x0_from_csv_and_fixed(tmp_path, coral):
    import numpy as np
    x0 = 500.0 * coral.cf.a
    path = tmp_path / "x0.csv"
    path.write_text(",".join(repr(float(v)) for v in x0))
    rc = main(["--out", str(tmp_path), "simulate", "--R", "100",
               "--x0", str(path), "--years", "5"])
    assert rc == 0
    rc = main(["--out", str(tmp_path), "simulate", "--R", "100",
               "--x0", "fixed", "--years", "5"])
    assert rc == 0
    lines = (tmp_path / "simulate.csv").read_text().splitlines()
    first = [float(v) for v in lines[1].split(",")]
    last = [float(v) for v in lines[-1].split(",")]
    # starting on the fixed point: the trajectory stays there
    assert abs(first[-1] - last[-1]) <= 1e-6 * abs(first[-1])


@pytest.mark.parametrize("text, message", [
    ("1.0,2.0,3.0", " has 3 entries; the map has d = 13 age classes"),
    ("\n".join([",".join(["1.0"] * 13)] * 2), " has 26 entries; the map has d = 13 age classes"),
    (",".join(["1.0"] * 5 + ["nan"] + ["1.0"] * 7), ": entry 5 is nan, not a finite number"),
], ids=["short", "two-rows", "nan"])
def test_simulate_x0_file_not_one_finite_state_is_usage_error(tmp_path, capsys, text, message):
    """An --x0 file that is not one row of d finite numbers exits 2 with a
    message naming the file, before any year is run."""
    path = tmp_path / "x0.csv"
    path.write_text(text + "\n")
    rc = main(["--out", str(tmp_path), "simulate", "--R", "100", "--x0", str(path),
               "--years", "5"])
    assert rc == 2
    assert capsys.readouterr().err == f"error: initial state in {path}{message}\n"
    assert not (tmp_path / "simulate.csv").exists()


def test_simulate_fixed_x0_without_nontrivial_fixed_point_fails(tmp_path, capsys):
    # below the saddle-node (R ~ 12.28) only the trivial fixed point exists
    rc = main(["--out", str(tmp_path), "simulate", "--R", "5",
               "--x0", "fixed", "--years", "5"])
    assert rc == 1
    assert "no nontrivial fixed point" in capsys.readouterr().err


def test_branch_emitters_write_the_reference_bytes(tmp_path, coral, branch_result,
                                                   preconditioned_system, raw_branch_result):
    """The one-pass emitters write the bytes of the box-by-box reference
    emitters, on the seed-0 branch and on the twenty raw-system boxes; the
    chain's one format string writes the bytes of one `json.dumps` per box."""
    runs = [(preconditioned_system, branch_result),
            (cont.CoralBranchSystem(coral), raw_branch_result)]
    for k, (system, res) in enumerate(runs):
        pts = BranchPoints.of(system, res)
        for name, emit, reference in (
                ("branch.csv", emit_branch_csv, helpers.emit_branch_csv),
                ("bifurcation_diagram.csv", emit_bifurcation_diagram,
                 helpers.emit_bifurcation_diagram),
                ("branch_certificates.json",
                 lambda path, _, res, pts: emit_certificate_chain(path, res, pts),
                 helpers.emit_certificate_chain)):
            emit(tmp_path / f"{k}-{name}", system, res, pts)
            reference(tmp_path / f"{k}-reference-{name}", system, res)
            assert ((tmp_path / f"{k}-{name}").read_bytes()
                    == (tmp_path / f"{k}-reference-{name}").read_bytes()), (k, name)


def test_stacked_trivial_labels_equal_single_calls(coral, branch_result,
                                                   preconditioned_system):
    """The diagram's 400 trivial-branch labels from one stacked eigenvalue
    call equal the labels of one call per matrix, on both sides of R*."""
    Rs = [preconditioned_system.R_of_t(b.t) for b in branch_result.boxes]
    lams = np.linspace(min(Rs) - 5.0, max(Rs), 400) / coral.cf.ba
    Js = np.stack([coral.jac_x(lam, np.zeros(coral.d)) for lam in lams])
    labels = cont.classify_stability(Js)
    assert labels == [cont.classify_stability(J[None])[0] for J in Js]
    assert {"stable", "unstable(1)"} <= set(labels)
