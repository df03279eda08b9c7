"""Command-line interface: reports, exit codes, configuration."""

import hashlib
import json
import re
import shlex
from pathlib import Path

import pytest

import hecke_bz.reports
from hecke_bz.cli import MAX_PRINCIPAL_RANK, _build_parser, main
from hecke_bz.reports import (
    DEFAULTS,
    MIN_RANK,
    make_report,
    render_table,
    resolve_config,
)


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(argv, capsys):
    code, out, err = run(argv, capsys)
    return code, json.loads(out), err


def exit_code(argv, capsys):
    """main's exit status, whether returned or raised by argparse."""
    try:
        return run(argv, capsys)[0]
    except SystemExit as exc:
        capsys.readouterr()
        return exc.code


class TestDeriveSpeh:
    def test_single_box_strip(self, capsys):
        code, report, _ = run_json(
            ["derive-speh", "--shape", "3,1", "--i", "1"], capsys)
        assert code == 0
        assert report["command"] == "derive-speh"
        assert report["pass"] is True
        assert report["results"]["predicted"] == [[3], [2, 1]]
        assert report["results"]["computed"] == [[3], [2, 1]]

    def test_two_box_strip(self, capsys):
        code, report, _ = run_json(
            ["derive-speh", "--shape", "2,2", "--i", "2"], capsys)
        assert code == 0
        assert report["results"]["computed"] == [[1, 1]]

    def test_numeric_cross_check(self, capsys):
        code, report, _ = run_json(
            ["derive-speh", "--shape", "2,1", "--i", "1",
             "--kappa", "0.25"], capsys)
        assert code == 0
        assert report["inputs"]["q0"] == DEFAULTS["q0"]
        assert report["results"]["numeric_dim"] == report["results"]["dim"]

    def test_failing_report_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "hecke_bz.cli._pieri_report",
            lambda M, i: {"shape": list(M.meta["shape"]), "i": i, "dim": 0,
                          "predicted": [], "computed": [[1]],
                          "pass": False})
        code, report, _ = run_json(
            ["derive-speh", "--shape", "2,1", "--i", "1"], capsys)
        assert code == 1
        assert report["pass"] is False


class TestPrincipal:
    def test_rank_two(self, capsys):
        code, report, _ = run_json(
            ["principal", "--n", "2", "--t", "1,4"], capsys)
        assert code == 0
        assert report["results"]["dim"] == 2
        assert report["results"]["relations"]["pass"] is True

    def test_rank_one_reports_theta(self, capsys):
        code, report, _ = run_json(
            ["principal", "--n", "1", "--t", "5"], capsys)
        assert code == 0
        assert report["results"]["theta_1"] == "5"

    def test_derivative_dimension(self, capsys):
        code, report, _ = run_json(
            ["principal", "--n", "3", "--t", "1,2,4", "--derive", "1"],
            capsys)
        assert code == 0
        d = report["results"]["derivative"]
        assert d["i"] == 1 and d["dim"] == 6
        assert d["free_rank_prediction"] == 6

    def test_fractional_coordinates(self, capsys):
        code, report, _ = run_json(
            ["principal", "--n", "2", "--t", "1/2,7/3"], capsys)
        assert code == 0
        assert report["inputs"]["t"] == ["1/2", "7/3"]

    def test_decimal_coordinates_are_exact_fractions(self, capsys):
        argv = ["principal", "--n", "2", "--derive", "1", "--t"]
        _, decimal, _ = run(argv + ["0.5,2"], capsys)
        _, fraction, _ = run(argv + ["1/2,2"], capsys)
        assert decimal == fraction

    def test_linked_character(self, capsys):
        code, report, _ = run_json(
            ["principal", "--n", "3", "--t", "1,q,q^2", "--derive", "2"],
            capsys)
        assert code == 0
        assert report["inputs"]["t"] == ["1", "q", "q^2"]
        assert report["results"]["derivative"]["dim"] == 3

    def test_leading_minus_in_the_equals_form(self, capsys):
        code, report, _ = run_json(
            ["principal", "--n", "2", "--t=-1,2"], capsys)
        assert code == 0
        assert report["inputs"]["t"] == ["-1", "2"]


class TestUsageErrors:
    def test_bad_partition(self, capsys):
        code, out, err = run(
            ["derive-speh", "--shape", "3,x", "--i", "1"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("hecke-bz:")

    def test_empty_part(self, capsys):
        code, out, err = run(
            ["derive-speh", "--shape", "3,,1", "--i", "1"], capsys)
        assert code == 2 and out == ""
        assert err.strip() == "hecke-bz: not a partition: '3,,1'"

    def test_non_monotone_shape(self, capsys):
        code, _, err = run(
            ["derive-speh", "--shape", "1,3", "--i", "1"], capsys)
        assert code == 2 and "partition" in err

    def test_order_out_of_range(self, capsys):
        code, _, err = run(
            ["derive-speh", "--shape", "2,1", "--i", "7"], capsys)
        assert code == 2 and "0..3" in err

    def test_zero_character_coordinate(self, capsys):
        code, _, err = run(["principal", "--n", "2", "--t", "0,4"], capsys)
        assert code == 2 and "nonzero" in err

    def test_character_length_mismatch(self, capsys):
        code, _, err = run(["principal", "--n", "3", "--t", "1,2"], capsys)
        assert code == 2 and "coordinates" in err

    @pytest.mark.parametrize("text, message", [
        ("1e3,2", "bad expression syntax at 'e3'"),
        ("T[2 1],2", "T[2 1] is not a scalar"),
        ("1/0,2", "division by zero in Q(q)"),
    ])
    def test_bad_character_expression(self, text, message, capsys):
        code, out, err = run(["principal", "--n", "2", "--t", text], capsys)
        assert code == 2 and out == ""
        assert err.startswith("hecke-bz: bad character") and message in err

    def test_exponent_above_the_bound_is_rejected(self, capsys):
        # checked before the power, so q^1000000 is never formed
        code, out, err = run(["principal", "--n", "1", "--t", "q^1000000"],
                             capsys)
        assert code == 2 and out == ""
        assert err.startswith("hecke-bz: bad character")
        assert "|exponent| <= 100" in err

    def test_degree_above_the_bound_is_rejected(self, capsys):
        # every exponent is in range, but the outer power is never formed
        code, out, err = run(
            ["principal", "--n", "1", "--t", "((q+1)^100)^30"], capsys)
        assert code == 2 and out == ""
        assert err.startswith("hecke-bz: bad character")
        assert "degree <= 100" in err

    def test_coefficient_size_above_the_bound_is_rejected(self, capsys):
        # degree 0, but (9^100)^100 alone would have about 31,700 bits
        code, out, err = run(
            ["principal", "--n", "1", "--t", "((((9^100)^100)^100)^100)"],
            capsys)
        assert code == 2 and out == ""
        assert err.startswith("hecke-bz: bad character")
        assert "bits <= 4096" in err

    def test_operand_size_above_the_bound_is_rejected(self, capsys):
        # every power is in range, but the quotients' gcds would not
        # finish: the first quotient is refused before it runs
        code, out, err = run(
            ["principal", "--n", "1", "--t",
             "(3*q+1)^100/(q+3)^100+(5*q+1)^100/(q+5)^100"], capsys)
        assert code == 2 and out == ""
        assert err.startswith("hecke-bz: bad character")
        assert "quotient of degree 200" in err and "degree <= 100" in err

    def test_rank_above_the_bound_is_rejected(self, capsys):
        # checked before the character, so nothing of size n! is built
        n = MAX_PRINCIPAL_RANK + 1
        code, out, err = run(["principal", "--n", str(n), "--t", "1"],
                             capsys)
        assert code == 2 and out == ""
        assert f"at most {MAX_PRINCIPAL_RANK}, got {n}" in err

    def test_missing_required_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["derive-speh", "--i", "1"])
        assert info.value.code == 2

    def test_unknown_suite(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["verify", "no-such-suite"])
        assert info.value.code == 2

    @pytest.mark.parametrize("argv", [
        "principal --n 2 --t 1,4 --tol 1e-3",
        "principal --n 2 --t 1,4 --threads 2",
        "verify pieri --q 3",
        "verify pieri --n 2",
        "derive-speh --shape 2 --i 1 --threads 2",
        "derive-speh --shape 2 --i 1 --kappa 0.5 --tol 1e-3",
        "verify pieri --tol 1e-3",
        "verify leibniz --cluster-tol 1e-6",
    ])
    def test_flag_the_command_does_not_read(self, argv, capsys):
        assert exit_code(argv.split(), capsys) == 2

    def test_q_without_kappa(self, capsys):
        code, out, err = run(
            ["derive-speh", "--shape", "2", "--i", "1", "--q", "3"], capsys)
        assert code == 2 and out == ""
        assert "--kappa" in err

    @pytest.mark.parametrize("argv", [
        "derive-speh --shape 2,1 --i 1 --kappa 0.5 --q 0",
        "derive-speh --shape 2,1 --i 1 --kappa 0.5 --q -1",
        "verify bridge --max-n 1 --tol -1",
        "derive-speh --shape 3,1 --i 1 --kappa nan",
        "derive-speh --shape 3,1 --i 1 --kappa inf",
    ])
    def test_nonsense_setting(self, argv, capsys):
        assert exit_code(argv.split(), capsys) == 2


class TestConfiguration:
    def test_defaults(self):
        assert resolve_config() == DEFAULTS

    def test_flag_overrides_default(self, capsys):
        code, report, _ = run_json(
            ["derive-speh", "--shape", "2", "--i", "1",
             "--kappa", "0.5", "--q", "5.0"], capsys)
        assert code == 0
        assert report["inputs"]["q0"] == 5.0

    def test_thread_count_must_be_positive(self):
        with pytest.raises(ValueError):
            resolve_config(threads=0)

    @pytest.mark.parametrize("kwargs", [
        {"q0": 0.0}, {"q0": -1.0}, {"q0": float("inf")}, {"q0": float("nan")},
        {"tol": -1e-8}, {"tol": float("nan")},
        {"cluster_tol": -1.0}, {"cluster_tol": float("inf")},
    ])
    def test_nonsense_values_are_rejected(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            resolve_config(**kwargs)

    def test_zero_tolerance_is_allowed(self):
        assert resolve_config(tol=0.0, cluster_tol=0.0)["tol"] == 0.0

    @pytest.mark.parametrize("argv", [
        ["verify", "pieri", "--max-n", "4"],
        ["verify", "leibniz", "--max-n", "3"],
    ])
    def test_process_pool_prints_the_serial_report(self, argv, capsys):
        _, serial, _ = run(argv + ["--threads", "1"], capsys)
        _, pooled, _ = run(argv + ["--threads", "2"], capsys)
        serial, pooled = serial.splitlines(), pooled.splitlines()
        assert len(serial) == len(pooled)
        assert [(a, b) for a, b in zip(serial, pooled) if a != b] == [
            ('    "threads": 1', '    "threads": 2')]

    @pytest.mark.parametrize("threads, cases, cpus, want", [
        (1000, 522, 2, 2), (1000, 3, 8, 3), (2, 522, 8, 2), (1000, 522, 1, 0),
    ])
    def test_process_pool_is_capped_at_the_cpus(self, monkeypatch, threads,
                                                cases, cpus, want):
        # a stand-in pool records its size and maps serially, so no
        # process is started; want 0 means no pool at all
        sizes = []

        class Pool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(hecke_bz.reports, "ProcessPoolExecutor", Pool)
        monkeypatch.setattr(hecke_bz.reports, "_usable_cpus", lambda: cpus)
        out = hecke_bz.reports.run_cases(abs, range(-cases, 0), threads)
        assert out == list(range(cases, 0, -1))
        assert sizes == ([want] if want else [])


class TestRendering:
    def test_reports_are_byte_stable(self, capsys):
        argv = ["principal", "--n", "2", "--t", "1,4", "--derive", "1"]
        _, first, _ = run(argv, capsys)
        _, second, _ = run(argv, capsys)
        assert first == second

    def test_timings_are_opt_in(self, capsys):
        argv = ["principal", "--n", "1", "--t", "3"]
        _, report, _ = run_json(argv, capsys)
        assert "timings" not in report
        _, report, _ = run_json(argv + ["--timings"], capsys)
        assert "timings" in report and "seconds" in report["timings"]

    def test_report_key_order(self, capsys):
        _, report, _ = run_json(["principal", "--n", "1", "--t", "3"], capsys)
        assert list(report) == ["command", "inputs", "results", "pass"]

    def test_table_format(self, capsys):
        code, out, _ = run(
            ["principal", "--n", "2", "--t", "1,4", "--format", "table"],
            capsys)
        assert code == 0
        lines = out.splitlines()
        assert any(line.startswith("command") for line in lines)
        assert any(line.startswith("results.dim") for line in lines)

    def test_table_flattens_lists(self):
        report = make_report("demo", {"xs": [1, 2]}, {"rows": []}, True)
        table = render_table(report)
        assert "inputs.xs" in table and "[1, 2]" in table
        assert "results.rows" in table


class TestVerifySuites:
    """One tiny-bound run per registered suite."""

    def test_pieri(self, capsys):
        code, report, _ = run_json(
            ["verify", "pieri", "--max-n", "3"], capsys)
        assert code == 0
        assert report["pass"] is True
        assert report["results"]["cases"] == 20
        assert report["results"]["failures"] == []

    def test_finite_relations(self, capsys):
        code, report, _ = run_json(
            ["verify", "finite-relations", "--max-n", "3"], capsys)
        assert code == 0 and report["pass"] is True

    def test_affine_oracle(self, capsys):
        code, report, _ = run_json(
            ["verify", "affine-oracle", "--max-n", "2"], capsys)
        assert code == 0 and report["pass"] is True

    def test_graded_relations(self, capsys):
        code, report, _ = run_json(
            ["verify", "graded-relations", "--max-n", "3"], capsys)
        assert code == 0 and report["pass"] is True

    def test_leibniz(self, capsys):
        code, report, _ = run_json(
            ["verify", "leibniz", "--max-n", "2"], capsys)
        assert code == 0 and report["pass"] is True

    def test_bridge(self, capsys):
        code, report, _ = run_json(
            ["verify", "bridge", "--max-n", "2"], capsys)
        assert code == 0 and report["pass"] is True

    def test_antispherical(self, capsys):
        code, report, _ = run_json(
            ["verify", "antispherical", "--max-n", "2"], capsys)
        assert code == 0 and report["pass"] is True

    @pytest.mark.parametrize("suite, low", [
        ("pieri", 1), ("finite-relations", 2), ("affine-oracle", 2),
        ("graded-relations", 1), ("leibniz", 2), ("bridge", 1),
        ("antispherical", 2)])
    def test_bound_below_the_smallest_rank_is_rejected(self, suite, low,
                                                       capsys):
        assert MIN_RANK[suite] == low
        for bound in sorted({low - 1, 0, -1}):
            code, out, err = run(["verify", suite, "--max-n", str(bound)],
                                 capsys)
            assert code == 2 and out == ""
            assert f"at least {low}" in err


# sha256 of the default JSON output of exact-only reports; a refactor must
# leave them byte-identical.  Bridge is left out: its float residuals may
# differ between BLAS builds.
REPORT_DIGESTS = [
    (["verify", "pieri"],
     "0d40c2f2c6abca4cb5216565ac151ba87512e31ad1731bce3f0833009f5e3456"),
    (["verify", "graded-relations", "--max-n", "5"],
     "c7265391dd0f9079acc20cb3572829ec3fb45cb5c36b80af2cbcfcb287995395"),
    (["verify", "affine-oracle", "--max-n", "2"],
     "f4f680155f97d82a604b3854ec72d85b9aceb322412ef3af019b96c28409f099"),
    (["verify", "affine-oracle"],
     "c8d4b6c9ccd4f04fff663503c91f3616ab1e7405d2aa29b9f1f6d497399b03cd"),
    (["verify", "antispherical"],
     "bb8568b8942b6904e1dcf281a126871e71d3d2155ff2f1ddfe0bd8f1f9e75dd4"),
    (["verify", "finite-relations", "--max-n", "3"],
     "76d8c4912249debffb5d45b25aa516a587a32189e3d717f0da69d3fee755aa1b"),
    (["verify", "finite-relations"],
     "78c09e2cec03ebef80a9bb84dbfc328301a5b966aa05bac638f866ac13600851"),
    (["verify", "leibniz", "--max-n", "3"],
     "12d00a8085742c04a18a9c2e0b41390c63fd4ed8dd5af7ae07cd476b2e614913"),
    (["verify", "leibniz"],
     "2e9b932c05fabe693ef06e6b3cfec2b5e410e10aa263798affa6f7063364c524"),
    (["principal", "--n", "3", "--t", "1,2,4", "--derive", "1"],
     "b805e58131f2d95b89ade9feed799157a854082dbd7c3d7c89ecde16ccecdcb7"),
    (["principal", "--n", "4", "--t", "1,2,4,8", "--derive", "2"],
     "657587b013e02894482089175d508a2b6cc3363c9d5c82b580823accfc7d7124"),
    (["principal", "--n", "2", "--t", "1,q", "--derive", "1"],
     "36b4cab4af1bb2084e43b92b8f1e02d75f573f864a6bdb9561e4bd375dfa370d"),
    (["derive-speh", "--shape", "3,1", "--i", "1"],
     "6c4adeaf05b7a2257f28ece2b4ef02b3ed273846a4a7e12fb4f84604f130aca2"),
    # the numeric route: its one float-dependent value is an SVD rank
    (["derive-speh", "--shape", "3,1", "--i", "1", "--kappa", "0.5",
      "--q", "3.0"],
     "c62902aa1062c0fa6cc83d790cab7878434af31b3aa8395997566645a34c3d4b"),
]


@pytest.mark.parametrize("argv, digest", REPORT_DIGESTS,
                         ids=lambda v: " ".join(v) if isinstance(v, list)
                         else "")
def test_report_digest(argv, digest, capsys):
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_bridge_verdict_digest(capsys):
    # bridge is not in REPORT_DIGESTS: its float residuals may differ
    # between BLAS builds.  results.worst_residuals is removed, so the
    # pin covers the inputs, case count, failures and verdict.
    code, report, _ = run_json(["verify", "bridge", "--max-n", "3"], capsys)
    assert code == 0
    del report["results"]["worst_residuals"]
    text = json.dumps(report, indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "d87626fa7f6f75befbe2f19bcf15a9f52938c30e54b0bc8d031b72ff99325d71"


def readme_commands() -> list[str]:
    """The `hecke-bz ...` lines of README's Command line code block."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [line for line in block.splitlines()
            if line.startswith("hecke-bz ")]


def test_readme_has_commands():
    assert len(readme_commands()) >= 3


@pytest.mark.parametrize("line", readme_commands())
def test_readme_command_parses(line):
    # parsing only: a removed or misplaced flag in the docs fails here
    _build_parser().parse_args(shlex.split(line)[1:])
