import dataclasses
import json
import subprocess
import sys

import pytest

from certibif.bifurcation import BifCertificate
from certibif.cli import main


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


def test_validate_sn_json_roundtrip(tmp_path, capsys):
    rc = main(["--out", str(tmp_path), "validate-sn"])
    assert rc == 0
    blob = (tmp_path / "sn_certificate.json").read_text()
    cert = BifCertificate.from_json_dict(json.loads(blob))
    assert json.loads(cert.dumps()) == json.loads(blob)
    assert cert.delta_accuracy <= 1e-10


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
        "certification failed: stage cift: (H2) failed: |I - BA| bound inf >= 1"]


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


def test_branch_cli_short_run(tmp_path, capsys):
    rc = main(["--out", str(tmp_path), "branch", "--from-R", "300",
               "--max-steps", "12"])
    assert rc == 0
    lines = (tmp_path / "branch.csv").read_text().splitlines()
    assert len(lines) == 13
    chain = json.loads((tmp_path / "branch_certificates.json").read_text())
    assert chain["steps"] == 12 and chain["all_linked"]


def test_branch_max_steps_default_is_the_config_default():
    from certibif.cli import build_parser
    from certibif.continuation import ContinuationConfig
    args = build_parser().parse_args(["branch"])
    assert args.max_steps == ContinuationConfig().max_steps


def test_branch_alpha_frac_default_is_the_config_default():
    from certibif.cli import build_parser
    from certibif.continuation import ContinuationConfig
    args = build_parser().parse_args(["branch"])
    assert args.alpha_frac == ContinuationConfig().alpha_frac


def test_branch_alpha_frac_outside_unit_interval_is_usage_error(tmp_path, capsys):
    # at alpha_frac = 1 the link inequality |alpha| + ... < delta_alpha fails
    rc = main(["--out", str(tmp_path), "branch", "--alpha-frac", "1.0"])
    assert rc == 2
    assert "alpha_frac must lie in (0, 1)" in capsys.readouterr().err
    assert not (tmp_path / "branch_certificates.json").exists()


def test_config_file_flows_through(tmp_path, capsys, coral):
    cfg = tmp_path / "params.cfg"
    cfg.write_text(coral.params.to_config())
    rc = main(["--config", str(cfg), "--out", str(tmp_path), "transcritical"])
    assert rc == 0


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


def test_simulate_fixed_x0_without_nontrivial_fixed_point_fails(tmp_path, capsys):
    # below the saddle-node (R ~ 12.28) only the trivial fixed point exists
    rc = main(["--out", str(tmp_path), "simulate", "--R", "5",
               "--x0", "fixed", "--years", "5"])
    assert rc == 1
    assert "no nontrivial fixed point" in capsys.readouterr().err
