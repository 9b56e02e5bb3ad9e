"""End-to-end command line behaviour, exit codes, and JSON output."""

import hashlib
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc

import pytest

import gammaroots
from gammaroots import cli, fateev, numeric
from gammaroots.cli import EXIT_OK, EXIT_USAGE, EXIT_VERIFICATION_FAILED, dumps_canonical, main
from gammaroots.exact import ONE
from gammaroots.fateev import VerificationReport, VerificationSummary, verify_all
from gammaroots.gammaword import GammaWord
from gammaroots.rootsys import FAMILIES, RANK_RANGE, RootSystemId
from test_prover import LATTICE_SEED_1_SHA256, REPLAY


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table_json(capsys):
    code, out, err = run(capsys, "table", "A", "2", "--format", "json")
    assert code == EXIT_OK and err == ""
    obj = json.loads(out)
    assert obj["family"] == "A" and obj["rank"] == 2
    assert obj["coxeter_number"] == 3
    assert obj["positive_root_count"] == 3
    assert obj["rho"] == ["1", "0", "-1"]
    assert obj["marks"] == [1, 1, 1]
    assert dumps_canonical(obj) == out.strip()


def test_table_text(capsys):
    code, out, err = run(capsys, "table", "A", "2")
    assert code == EXIT_OK
    assert "3 positive roots" in out
    assert "mark sum h = 3" in out
    assert "alpha_1" in out


def test_table_rejects_bad_rank(capsys):
    code, out, err = run(capsys, "table", "E", "9")
    assert code == EXIT_USAGE
    assert err.startswith("error:")


def test_word_text(capsys):
    code, out, err = run(capsys, "word", "D", "4", "1", "F")
    assert code == EXIT_OK
    assert "{2}/({1}{4})" in out
    assert "grid denominator 6" in out


def test_word_json_round_trip(capsys):
    code, out, err = run(capsys, "word", "G", "2", "1", "Fsecond", "--format", "json")
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["N"] == 12
    assert {"j": 1, "exponent": -2} in obj["terms"]
    assert dumps_canonical(obj) == out.strip()


def test_word_refuses_off_hypothesis(capsys):
    code, out, err = run(capsys, "word", "B", "3", "1", "F")
    assert code == EXIT_USAGE
    assert "simply laced" in err


def test_word_index_out_of_range(capsys):
    code, out, err = run(capsys, "word", "A", "3", "7", "F")
    assert code == EXIT_USAGE


def test_relations_json(capsys):
    code, out, err = run(capsys, "relations", "6", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert len(payload) == 6
    by_tag = {entry["tag"]: entry for entry in payload}
    mult = by_tag["multiplication(2,1)"]
    assert mult["vector"] == [
        {"j": 1, "exponent": 1},
        {"j": 2, "exponent": -1},
        {"j": 4, "exponent": 1},
    ]
    assert mult["value"] == [
        {"base": 2, "exponent_numerator": 1, "exponent_denominator": 3}
    ]


def test_relations_text(capsys):
    code, out, err = run(capsys, "relations", "6")
    assert code == EXIT_OK
    assert out.startswith("6 relations on the 1/6 grid")
    assert "reflection(1): gamma(1/6)*gamma(5/6) = 1" in out


def test_relations_rejects_grid_one(capsys):
    code, out, err = run(capsys, "relations", "1")
    assert code == EXIT_USAGE


def test_verify_family_json(capsys):
    code, out, err = run(
        capsys, "verify", "--family", "G", "--mode", "exact", "--format", "json"
    )
    assert code == EXIT_OK
    obj = json.loads(out)
    assert obj["passed"] is True
    assert obj["counts"] == {"proved_exact": 4}
    assert obj["mode"] == "exact"
    assert len(obj["reports"]) == 4
    assert all(r["certificate"] is not None for r in obj["reports"])
    assert dumps_canonical(obj) == out.strip()


def test_verify_text_summary_line(capsys):
    code, out, err = run(capsys, "verify", "--family", "G", "--mode", "exact")
    assert code == EXIT_OK
    assert out.strip().endswith("4 checks (proved_exact: 4) -> PASS")


def test_verify_rank_selection(capsys):
    code, out, err = run(
        capsys, "verify", "--family", "A", "--rank", "2", "--mode", "exact",
        "--format", "json",
    )
    assert code == EXIT_OK
    obj = json.loads(out)
    # one system, two indices, three variants
    assert len(obj["reports"]) == 6
    assert {r["rank"] for r in obj["reports"]} == {2}


def test_verify_rank_bounds(capsys):
    code, out, err = run(
        capsys, "verify", "--family", "B", "--rank-min", "3", "--rank-max", "4",
        "--variant", "Fprime", "--mode", "exact", "--format", "json",
    )
    assert code == EXIT_OK
    obj = json.loads(out)
    assert [(r["rank"], r["index"]) for r in obj["reports"]] == [
        (3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (4, 3), (4, 4),
    ]


def _exact_reports(capsys, *selection):
    code, out, err = run(capsys, "verify", *selection, "--mode", "exact", "--format", "json")
    assert code == EXIT_OK and err == ""
    obj = json.loads(out)
    assert obj["passed"] is True
    assert {r["status"] for r in obj["reports"]} == {"proved_exact"}
    return obj["reports"]


def test_verify_rank_past_the_default_cap(capsys):
    reports = _exact_reports(capsys, "--family", "A", "--rank", "16")
    assert len(reports) == 48
    assert {r["rank"] for r in reports} == {16}


def test_verify_rank_max_past_the_default_cap(capsys):
    reports = _exact_reports(capsys, "--family", "A", "--rank-max", "16", "--variant", "F")
    assert sorted({r["rank"] for r in reports}) == list(range(1, 17))


def test_verify_rank_window_above_the_default_cap(capsys):
    reports = _exact_reports(capsys, "--family", "A", "--rank-min", "13", "--rank-max", "14")
    assert [(r["rank"], r["index"]) for r in reports if r["variant"] == "F"] == (
        [(13, i) for i in range(1, 14)] + [(14, i) for i in range(1, 15)]
    )
    assert len(reports) == 3 * (13 + 14)


def test_verify_rank_min_above_the_default_cap_names_the_cap(capsys):
    code, out, err = run(capsys, "verify", "--family", "A", "--rank-min", "13", "--mode", "exact")
    assert code == EXIT_USAGE
    assert out == ""
    assert err == (
        "error: nothing to verify: --rank-min 13 is above the default rank cap 12 "
        "of the infinite families; give --rank-max as well\n"
    )


def test_verify_rank_flag_conflict(capsys):
    code, out, err = run(capsys, "verify", "--rank", "3", "--rank-min", "2")
    assert code == EXIT_USAGE
    assert "--rank excludes" in err


EMPTY_SELECTIONS = [
    ("--family", "G", "--rank", "3"),
    ("--family", "E", "--rank-min", "9"),
    ("--family", "G", "--rank-max", "0"),
    ("--family", "B", "--rank", "3", "--variant", "F"),
]


@pytest.mark.parametrize("selection", EMPTY_SELECTIONS)
def test_verify_empty_selection_is_usage_error(capsys, selection):
    code, out, err = run(capsys, "verify", *selection, "--mode", "exact")
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: nothing to verify")


@pytest.mark.parametrize("selection", EMPTY_SELECTIONS)
def test_empty_selection_fails_before_precision_setup(capsys, monkeypatch, selection):
    def refuse(*args, **kwargs):
        raise RuntimeError("precision setup reached")

    monkeypatch.setattr(numeric.PrecisionContext, "for_digits", refuse)
    code, out, err = run(capsys, "verify", *selection, "--digits", "800")
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: nothing to verify")


def _spy_verify_calls(monkeypatch):
    calls = []

    def spy(owner, name, label):
        original = getattr(owner, name)

        def wrapped(*args, **kwargs):
            calls.append(label)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapped)

    spy(numeric.PrecisionContext, "for_digits", "for_digits")
    spy(cli, "build", "build")
    spy(fateev, "verify_all", "verify_all")
    return calls


def test_verify_call_order(capsys, monkeypatch):
    """Precision setup, then the checks, which build each system as they reach it.

    verify_all takes a generator of builds, so one system is held at a time.
    """
    calls = _spy_verify_calls(monkeypatch)
    code, _, _ = run(capsys, "verify", "--family", "G", "--family", "F", "--mode", "both")
    assert code == EXIT_OK
    assert calls == ["for_digits", "verify_all", "build", "build"]


def test_exact_verify_sets_up_no_precision(capsys, monkeypatch):
    calls = _spy_verify_calls(monkeypatch)
    code, _, _ = run(capsys, "verify", "--family", "G", "--family", "F", "--mode", "exact")
    assert code == EXIT_OK
    assert calls == ["verify_all", "build", "build"]


def test_rank_bounds_zero_are_not_ignored():
    def ranks(rank_min, rank_max):
        return [ident.rank for ident in cli.system_ids(("G",), rank_min, rank_max)]

    assert ranks(None, 0) == []
    assert ranks(0, None) == [2]
    assert ranks(None, None) == [2]


def test_verify_json_is_byte_identical_across_runs(capsys):
    argv = ("verify", "--family", "G", "--family", "F", "--format", "json")
    first = run(capsys, *argv)
    second = run(capsys, *argv)
    assert first[0] == EXIT_OK
    assert first == second
    assert "wall_time_ms" not in first[1]


def test_verify_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, err = run(
        capsys, "verify", "--family", "G", "--mode", "exact",
        "--format", "json", "--output", str(target),
    )
    assert code == EXIT_OK
    assert out == ""
    obj = json.loads(target.read_text(encoding="utf-8"))
    assert obj["passed"] is True


def test_verify_unwritable_output_is_usage_error(tmp_path, capsys, monkeypatch):
    """The output path is opened before the precision setup and before any case runs."""
    calls = []
    for owner, name in ((numeric.PrecisionContext, "for_digits"), (fateev, "verify_all")):
        monkeypatch.setattr(owner, name, lambda *a, _name=name, **k: calls.append(_name))
    target = tmp_path / "missing" / "x.json"
    code, out, err = run(
        capsys, "verify", "--family", "G", "--mode", "exact",
        "--format", "json", "--output", str(target),
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: ") and str(target) in err
    assert not target.exists()
    assert calls == []


def test_invalid_digits_leaves_an_existing_report_alone(tmp_path, capsys):
    """--digits is checked before the output file is opened, so its old bytes survive."""
    target = tmp_path / "out.json"
    target.write_bytes(b'{"old": "report"}\n')
    code, out, err = run(
        capsys, "verify", "--family", "G", "--digits", "5", "--output", str(target),
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: --digits must be at least 10")
    assert target.read_bytes() == b'{"old": "report"}\n'


@pytest.mark.parametrize("digits", ["5", "-3", "9"])
@pytest.mark.parametrize("mode", fateev.MODES)
def test_too_few_digits_is_usage_error_in_every_mode(capsys, mode, digits):
    code, out, err = run(capsys, "verify", "--family", "G", "--mode", mode, "--digits", digits)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith(f"error: --digits must be at least 10, got {digits}")


@pytest.mark.parametrize("digits", ["1001", "4000", "60000"])
@pytest.mark.parametrize("mode", fateev.MODES)
def test_too_many_digits_is_usage_error_in_every_mode(tmp_path, capsys, monkeypatch, mode, digits):
    """The bound is checked before the precision setup and before the output file opens."""
    calls = []
    monkeypatch.setattr(numeric.PrecisionContext, "for_digits", lambda *a: calls.append(a))
    target = tmp_path / "out.json"
    code, out, err = run(
        capsys, "verify", "--family", "G", "--mode", mode, "--digits", digits,
        "--output", str(target),
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith(f"error: --digits must be at most 1000, got {digits}")
    assert not target.exists()
    assert calls == []


# sha256 of `verify --family G --family F --format json` (mode both, so with
# the numeric residual strings), as printed: a change to the rounding of the
# numeric route changes this digest.
GF_JSON_SHA256 = "bebaf947a0ec40ef61add4b69ec0592bf526400fff75954ed750df1c46602b7e"


def test_verify_json_golden_digest(capsys):
    code, out, err = run(capsys, "verify", "--family", "G", "--family", "F", "--format", "json")
    assert code == EXIT_OK and err == ""
    assert '"numeric_residual":"' in out
    assert hashlib.sha256(out.encode()).hexdigest() == GF_JSON_SHA256


# sha256 of `verify --mode numeric --digits 800 --family G --format json`,
# taken before the numeric route moved onto mpmath's raw libmp calls: the
# bits at the precision of the benchmark's crosscheck workload.
G_NUMERIC_800_JSON_SHA256 = "c53fc8a7961e9a60c4020d7adcfffe908e87f752a293da9c2e8c01f4d2b41373"


def test_verify_numeric_800_digits_golden_digest(capsys):
    code, out, err = run(
        capsys, "verify", "--mode", "numeric", "--digits", "800", "--family", "G",
        "--format", "json",
    )
    assert code == EXIT_OK and err == ""
    assert '"digits":800' in out
    assert hashlib.sha256(out.encode()).hexdigest() == G_NUMERIC_800_JSON_SHA256


# sha256 of the outputs below, taken before the root closure moved onto the
# Gram matrix: `table` (JSON, then text) concatenated over the 49 systems of
# the default sweep, and `verify --mode exact --format json`.
TABLE_JSON_SHA256 = "20de3872d5f914b2dc374cc965068cc40a6699c668f21c6c938398228128d1b8"
TABLE_TEXT_SHA256 = "903386e941419a5cf80a9d023a95e0c247655d094257fd46cebd89057d3ab775"
EXACT_JSON_SHA256 = "fdc53f33428b0e46fd04fe753cb58cc2db0dc6794c96b874f710330cb637aa7b"


def test_verify_exact_json_golden_digest_under_optimized_mode():
    """`python -O -m gammaroots.cli verify --format json` prints the pinned bytes, --mode exact too.

    -O strips assert statements, so these runs show that nothing the exact
    route or the numeric route (the default mode, both) checks or computes
    rests on one; the checks the constructors, PrecisionContext and
    ln_gamma make still raise there.
    """
    src = os.path.dirname(os.path.dirname(gammaroots.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    for mode, digest in ((("--mode", "exact"), EXACT_JSON_SHA256), ((), DEFAULT_JSON_SHA256)):
        out = subprocess.run(
            [sys.executable, "-O", "-m", "gammaroots.cli", "verify", *mode, "--format", "json"],
            env=env, capture_output=True, check=True,
        )
        assert hashlib.sha256(out.stdout).hexdigest() == digest, mode
    code = (
        "from gammaroots.exact import ONE, FactoredConstant, const_pow, factor_power\n"
        "from gammaroots.numeric import PrecisionContext, ln_gamma\n"
        "from gammaroots.prover import Certificate\n"
        "ctx = PrecisionContext.for_digits(60)\n"
        "bad = [lambda: FactoredConstant(((4, 1),)), lambda: FactoredConstant(((2, 0.5),)),\n"
        "       lambda: FactoredConstant.over([(2, 1)], 0),\n"
        "       lambda: FactoredConstant(((2, 1, 0),)),\n"
        "       lambda: FactoredConstant(((2, 1, 2, 3),)),\n"
        "       lambda: Certificate([('t', 0.5)], ONE), lambda: const_pow(ONE, True),\n"
        "       lambda: factor_power(0.1, 1), lambda: PrecisionContext(60, 1, 1, 1),\n"
        "       lambda: ln_gamma(0.25, ctx)]\n"
        "for make in bad:\n"
        "    try:\n"
        "        make()\n"
        "    except ValueError:\n"
        "        print('raised')\n"
        "    else:\n"
        "        print('passed')\n"
    )
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["raised"] * 10


def sibling_interpreters():
    """(version, executable) of each CPython 3.10 or later installed beside this one.

    The directories next to sys.base_prefix, as pyenv lays its versions
    out, whose name is a CPython version X.Y.Z and which hold bin/python3;
    the running interpreter's own prefix is left out.
    """
    home, found = os.path.dirname(sys.base_prefix), []
    for name in sorted(os.listdir(home)):
        version = re.fullmatch(r"(\d+)\.(\d+)\.\d+", name)
        executable = os.path.join(home, name, "bin", "python3")
        prefix = os.path.join(home, name)
        if version and (int(version[1]), int(version[2])) >= (3, 10) and os.path.isfile(executable):
            if os.path.realpath(prefix) != os.path.realpath(sys.base_prefix):
                found.append((name, executable))
    return found


def test_verify_golden_digests_under_every_sibling_python():
    """Each CPython >= 3.10 beside this one prints the pinned default and --mode exact JSON.

    pyproject.toml declares requires-python >= 3.10; this checks it on the
    interpreters at hand, with src/ on PYTHONPATH and nothing else.  verify
    loads no mpmath, so an interpreter without it runs both.  Where no such
    interpreter is installed, the test is skipped.
    """
    siblings = sibling_interpreters()
    if not siblings:
        pytest.skip(f"no other CPython >= 3.10 beside {sys.base_prefix}")
    src = os.path.dirname(os.path.dirname(gammaroots.__file__))
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    for version, executable in siblings:
        for mode, digest in (((), DEFAULT_JSON_SHA256), (("--mode", "exact"), EXACT_JSON_SHA256)):
            out = subprocess.run(
                [executable, "-m", "gammaroots.cli", "verify", *mode, "--format", "json"],
                env=env, capture_output=True,
            )
            assert out.returncode == EXIT_OK, (version, mode, out.stderr[-2000:])
            assert hashlib.sha256(out.stdout).hexdigest() == digest, (version, mode)


# Prints the seed-1 lattice certificates as the benchmark's lattice child
# does: perfbench/replay.py's words, prove_constant, json.dumps.
LATTICE_CERTIFICATES_CODE = (
    "import json, sys\n"
    "from replay import lattice_words\n"
    "from gammaroots.gammaword import GammaWord\n"
    "from gammaroots.prover import prove_constant\n"
    "words = [GammaWord(w['N'], tuple(map(tuple, w['terms']))) for w in lattice_words(1)]\n"
    "certificates = [prove_constant(word) for word in words]\n"
    "sys.stdout.write(json.dumps([None if c is None else c.to_json_obj() for c in certificates],\n"
    "                            separators=(',', ':')))\n"
)


def test_relations_and_lattice_golden_digests_under_every_sibling_python():
    """Each CPython >= 3.10 beside this one prints the pinned JSON of relations and certificates.

    `relations 840 --format json` and the seed-1 lattice certificates are
    built from to_json_obj trees outside verify, whose two digests the
    test above checks.  Neither loads mpmath.  perfbench/ is on PYTHONPATH
    beside src/ for replay.py's words, which import nothing from gammaroots.
    Where no such interpreter is installed, the test is skipped.
    """
    siblings = sibling_interpreters()
    if not siblings:
        pytest.skip(f"no other CPython >= 3.10 beside {sys.base_prefix}")
    src = os.path.dirname(os.path.dirname(gammaroots.__file__))
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PYTHONPATH=os.pathsep.join([src, str(REPLAY.parent)]), PYTHONDONTWRITEBYTECODE="1")
    runs = (
        (["-m", "gammaroots.cli", "relations", "840", "--format", "json"],
         RELATIONS_840_JSON_SHA256),
        (["-c", LATTICE_CERTIFICATES_CODE], LATTICE_SEED_1_SHA256),
    )
    for version, executable in siblings:
        for argv, digest in runs:
            out = subprocess.run([executable, *argv], env=env, capture_output=True)
            assert out.returncode == EXIT_OK, (version, argv[1], out.stderr[-2000:])
            assert hashlib.sha256(out.stdout).hexdigest() == digest, (version, argv[1])


# sha256 of `relations N --format json` concatenated over N = 2..96, taken
# before the relation values were built from each divisor's factorization.
RELATIONS_JSON_SHA256 = "72d7870c618e1eada7458bf0ddb539a4ce1013e16355f1ad13877f25db589a92"


def test_relations_json_golden_digest(capsys):
    outputs = []
    for n in range(2, 97):
        code, out, err = run(capsys, "relations", str(n), "--format", "json")
        assert code == EXIT_OK and err == ""
        outputs.append(out)
    assert hashlib.sha256("".join(outputs).encode()).hexdigest() == RELATIONS_JSON_SHA256


# sha256 of `relations 840 --format json`: the 2,429 relations of the largest
# grid the large-grid certificate golden uses, with their exact values.
RELATIONS_840_JSON_SHA256 = "6eef00414d791fdc1725b9cb363f43c71dba6c194f458e987fa05b99a7d795fd"


def test_relations_840_json_golden_digest(capsys):
    code, out, err = run(capsys, "relations", "840", "--format", "json")
    assert code == EXIT_OK and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == RELATIONS_840_JSON_SHA256


def _default_sweep_ids():
    for family in FAMILIES:
        lo, hi = RANK_RANGE[family]
        for rank in range(lo, (hi or cli.DEFAULT_RANK_CAP) + 1):
            yield family, str(rank)


@pytest.mark.parametrize("fmt,digest", [("json", TABLE_JSON_SHA256), ("text", TABLE_TEXT_SHA256)])
def test_table_golden_digest(capsys, fmt, digest):
    ids = list(_default_sweep_ids())
    assert len(ids) == 49
    outputs = []
    for family, rank in ids:
        code, out, err = run(capsys, "table", family, rank, "--format", fmt)
        assert code == EXIT_OK and err == ""
        outputs.append(out)
    assert hashlib.sha256("".join(outputs).encode()).hexdigest() == digest


# sha256 of `verify --format json`: the full default sweep, 842 cases in mode
# both, whose repeated (word, right side) pairs share one verdict per run.
DEFAULT_JSON_SHA256 = "5136e93cbfbc58d19fae230d0a7ad588145fa34cc755781f303b7cf72a757773"


def test_verify_default_json_golden_digest(capsys):
    code, out, err = run(capsys, "verify", "--format", "json")
    assert code == EXIT_OK and err == ""
    assert len(json.loads(out)["reports"]) == 842
    assert hashlib.sha256(out.encode()).hexdigest() == DEFAULT_JSON_SHA256


def test_verify_exact_json_golden_digest(capsys):
    code, out, err = run(capsys, "verify", "--mode", "exact", "--format", "json")
    assert code == EXIT_OK and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == EXACT_JSON_SHA256


# sha256 of the text form of `verify` (mode both) and of `verify --mode
# exact`: one text_line per case, then the closing counts line.  Taken before
# the verdict ran as one proof stage and one cross-check stage.
@pytest.mark.parametrize("args,digest", [
    ((), "d68691df4ce239864e34bb2226294fffee4295271d53f1a2c9e2b7917298062d"),
    (("--mode", "exact"), "a4e8bd395fa75511bb5267aec433f9bc1829a045fee2b3a589f4b6bb7b839505"),
])
def test_verify_text_golden_digests(capsys, tmp_path, args, digest):
    target = tmp_path / "verify.txt"
    code, out, err = run(capsys, "verify", *args, "--output", str(target))
    assert code == EXIT_OK and out == err == ""
    data = target.read_bytes()
    assert data.endswith(b"842 checks (proved_exact: 842) -> PASS\n")
    assert hashlib.sha256(data).hexdigest() == digest


# sha256 of `verify --mode numeric --format json` and of `verify --mode both
# --digits 200` on G, F, E and B, taken before the ln gamma table filled each
# complement by negation and the residual was formed on raw mpfs: both print
# every case's residual string, so they pin the numeric route's bits.
NUMERIC_JSON_SHA256 = "da1edbaa60010a80037934585cea2f7d9c4f6934edddbbd5431542aa72866df2"
BOTH_200_DIGITS_JSON_SHA256 = "d3e88f9a5e0db588f81a471dee6da243597e165f357f8a06c15659c44163e02e"


@pytest.mark.parametrize("args,digest", [
    (("--mode", "numeric"), NUMERIC_JSON_SHA256),
    (("--mode", "both", "--digits", "200", "--family", "G", "--family", "F",
      "--family", "E", "--family", "B"), BOTH_200_DIGITS_JSON_SHA256),
])
def test_verify_residual_golden_digests(capsys, args, digest):
    code, out, err = run(capsys, "verify", *args, "--format", "json")
    assert code == EXIT_OK and err == ""
    assert '"numeric_residual":"' in out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of `verify --mode both --digits 10 --format json`, where the bound
# 10^(10 - digits) is 1, and of `verify --family E --family F --family G
# --mode numeric --digits 800 --format json`, taken before the numeric
# verdict moved into numeric.residual and the ln gamma table onto reduced
# lower-half arguments.
DIGITS_10_JSON_SHA256 = "9612a6f863024bde35fba1cf3fe6df044fe8c7de087fc2aa94a58ca29c4ec7bc"
EFG_NUMERIC_800_JSON_SHA256 = "59b7c5c1884fc8d0bababaa7c4bd9930e60e83b0eb5b39250eb97cca1756a75e"


@pytest.mark.parametrize("args,digest", [
    (("--mode", "both", "--digits", "10"), DIGITS_10_JSON_SHA256),
    (("--family", "E", "--family", "F", "--family", "G", "--mode", "numeric",
      "--digits", "800"), EFG_NUMERIC_800_JSON_SHA256),
])
def test_verify_digit_count_golden_digests(capsys, args, digest):
    code, out, err = run(capsys, "verify", *args, "--format", "json")
    assert code == EXIT_OK and err == ""
    assert '"numeric_residual":"' in out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of `verify --family A --family B --family C --family D --rank-min 13
# --rank-max 40 --mode exact --format json`: 7,420 cases past the default rank
# cap, taken before verify_all ran one case per distinct variant table and the
# closure built the pairing columns itself.
LARGE_RANK_EXACT_JSON_SHA256 = "2cd6cd8129ddb2a8a268a22b1a28d40fbf8d4277013013fc8482fa9dd87f0b4f"


def test_verify_large_rank_exact_json_golden_digest(capsys):
    code, out, err = run(
        capsys, "verify", "--family", "A", "--family", "B", "--family", "C", "--family", "D",
        "--rank-min", "13", "--rank-max", "40", "--mode", "exact", "--format", "json",
    )
    assert code == EXIT_OK and err == ""
    assert len(json.loads(out)["reports"]) == 7420
    assert hashlib.sha256(out.encode()).hexdigest() == LARGE_RANK_EXACT_JSON_SHA256


# sha256 of `verify --family A --family B --family C --family D --rank-min 13
# --rank-max 64 --mode exact --format json`: 20,020 cases on grids up to
# N = 254, past the lattice words' N <= 96, so the prover's per-grid tables
# at large N reach a pinned output.  Taken before those tables were built in
# one pass per grid.
LARGE_RANK_64_EXACT_JSON_SHA256 = "58b1aa93b1f3c5803cd86c63b66d39ac1aed00fa2d8d4f45454b5ca926c72ad5"


def test_verify_rank_64_exact_json_golden_digest(capsys, tmp_path):
    target = tmp_path / "ranks-13-64.json"
    code, out, err = run(
        capsys, "verify", "--family", "A", "--family", "B", "--family", "C", "--family", "D",
        "--rank-min", "13", "--rank-max", "64", "--mode", "exact", "--format", "json",
        "--output", str(target),
    )
    assert code == EXIT_OK and out == err == ""
    data = target.read_bytes()
    assert data.count(b'"status":"proved_exact"') == 20020
    assert hashlib.sha256(data).hexdigest() == LARGE_RANK_64_EXACT_JSON_SHA256


def _cli_command(*argv):
    """The CLI as a subprocess, with stdout block-buffered whatever the caller's setting."""
    src = os.path.dirname(os.path.dirname(gammaroots.__file__))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return [sys.executable, "-m", "gammaroots.cli", *argv], dict(env, PYTHONPATH=src)


def test_table_into_closed_pipe_is_quiet():
    """A reader that stops early (`table A 40 | head -1`) gets no error message."""
    command, env = _cli_command("table", "A", "40")
    proc = subprocess.Popen(command, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    # The table is about 119 KB, more than a pipe holds, so the writer is
    # still blocked when the pipe closes.
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    code = proc.wait()
    assert first.startswith(b"A40: rank 40")
    assert err == b""
    assert code not in (EXIT_OK, EXIT_USAGE)


def test_short_output_into_closed_pipe_is_quiet():
    """Output small enough to sit in the buffer fails only when flushed, and quietly."""
    command, env = _cli_command("table", "A", "2")
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(command, env=env, stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert proc.stderr == b""
    assert proc.returncode not in (EXIT_OK, EXIT_USAGE)


def test_verify_failure_exit_code(capsys, monkeypatch):
    bad = VerificationReport(
        ident=RootSystemId("A", 1),
        index=1,
        variant="F",
        mode="exact",
        status="mismatch",
        lhs=GammaWord(2, ((1, -2),)),
        rhs=ONE,
        certificate=None,
        numeric_residual=None,
    )
    monkeypatch.setattr(
        fateev, "verify_all", lambda *a, **k: VerificationSummary((bad,))
    )
    code, out, err = run(capsys, "verify", "--family", "A", "--rank", "1")
    assert code == EXIT_VERIFICATION_FAILED
    assert "FAIL" in out


def test_unknown_family_is_argparse_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["table", "H", "3"])
    assert excinfo.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_missing_subcommand_is_argparse_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2
    capsys.readouterr()


def test_default_rank_cap():
    ranks = [ident.rank for ident in cli.system_ids(("A",), None, None)]
    assert ranks == list(range(1, cli.DEFAULT_RANK_CAP + 1))


def _json_dumps(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@pytest.mark.parametrize("argv", [
    ("table", "E", "8"),
    ("table", "B", "64"),
    ("word", "E", "8", "4", "F"),
    ("relations", "840"),
    ("verify",),
])
def test_dumps_canonical_equals_json_dumps_on_every_command(capsys, monkeypatch, argv):
    payloads = []
    original = cli.dumps_canonical

    def recorded(obj):
        payloads.append(obj)
        return original(obj)

    monkeypatch.setattr(cli, "dumps_canonical", recorded)
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == EXIT_OK
    assert out == _json_dumps(payloads[0]) + "\n"


# Record list lengths around the batch boundaries of dumps_canonical.
RECORD_LENGTHS = (1, cli.RECORD_BATCH - 1, cli.RECORD_BATCH, cli.RECORD_BATCH + 1,
                  2 * cli.RECORD_BATCH + 2, 130)
TEXTS = ("", "a", "b", "plain", "\u00fcml\u00e4ut", "\u65e5\u672c", "tab\tnew\nline",
         'quote " back \\ slash', "\x00\x1f\x7f", "\u2028", "\U0001f600", "p/q")


def _random_value(rng, depth):
    """A JSON value: scalars, texts, empty and nested containers, record lists."""
    kind = rng.randrange(9 if depth < 3 else 3)
    if kind == 0:
        return rng.choice((None, True, False, 0, -7, 2**70, 1.5, -0.0, 1e300))
    if kind == 1:
        return rng.choice(TEXTS)
    if kind == 2:
        return rng.randrange(-10**6, 10**6)
    if kind == 3:
        return rng.choice(([], {}, ()))
    if kind == 4:
        # The records of a long list hold only shallow values, to keep payloads small.
        return [_random_record(rng, 3) for _ in range(rng.choice(RECORD_LENGTHS))]
    if kind == 5:
        return [_random_record(rng, depth + 1) if rng.random() < 0.5
                else _random_value(rng, depth + 1) for _ in range(rng.randrange(1, 70))]
    if kind == 6:
        return [[_random_value(rng, depth + 1)] for _ in range(rng.randrange(4))]
    if kind == 7:
        record = _random_record(rng, depth + 1)
        return [record, {}, record]
    return _random_record(rng, depth + 1)


def _random_record(rng, depth):
    return {rng.choice(TEXTS): _random_value(rng, depth) for _ in range(rng.randrange(5))}


def test_dumps_canonical_equals_json_dumps_on_random_payloads():
    rng = random.Random(18)
    lengths = set()
    for _ in range(250):
        payload = _random_value(rng, 0)
        if isinstance(payload, list) and all(isinstance(item, dict) for item in payload):
            lengths.add(len(payload))
        assert dumps_canonical(payload) == _json_dumps(payload)
    assert set(RECORD_LENGTHS) <= lengths
    records = [{"k": i, "\u00e9": [i, {"z": None, "a": "\n"}]} for i in range(130)]
    for n in (0, *RECORD_LENGTHS):
        for payload in (records[:n], {"r": records[:n], "x": {"y": records[:n]}}):
            assert dumps_canonical(payload) == _json_dumps(payload)


@pytest.mark.parametrize("payload", [{1: 2}, {"a": {1: 2}}, {"a": 1, 2: 3}, {None: 1}])
def test_dumps_canonical_refuses_keys_that_are_not_text(payload):
    with pytest.raises(TypeError):
        dumps_canonical(payload)


def test_dumps_canonical_peak_stays_near_its_output(systems):
    """The document is encoded record batch by record batch, not buffered whole."""
    payload = verify_all(systems.values(), mode="exact").to_json_obj()
    payload["mode"], payload["digits"] = "exact", 60
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        text = dumps_canonical(payload)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) > 400_000
    assert peak - before < 3 * len(text)


def test_exact_verify_leaves_the_numeric_route_unloaded():
    code = (
        "import sys\n"
        "from gammaroots import cli\n"
        "assert cli.main(['verify', '--mode', 'exact', '--family', 'G']) == 0\n"
        "print(sorted(m for m in ('gammaroots.numeric', 'mpmath') if m in sys.modules))\n"
    )
    src = os.path.dirname(os.path.dirname(gammaroots.__file__))
    out = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.splitlines()[-1] == "[]"


def test_verify_loads_no_mpmath_in_any_mode(tmp_path):
    """cmd_verify in modes both, numeric and exact, in one fresh interpreter, never imports mpmath.

    The numeric route's logarithms, pi, right-side logarithms and residual
    are integer code; mpmath is left to the public mpf returns.  The JSON
    of each run keeps its pinned digest.
    """
    code = (
        "import hashlib, sys\n"
        "from gammaroots import cli\n"
        f"path = {str(tmp_path / 'out.json')!r}\n"
        "for mode in ('both', 'numeric', 'exact'):\n"
        "    assert cli.main(['verify', '--mode', mode, '--format', 'json', '--output', path]) == 0\n"
        "    print(hashlib.sha256(open(path, 'rb').read()).hexdigest())\n"
        "print('mpmath' in sys.modules, 'gammaroots.numeric' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(gammaroots.__file__))
    out = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True,
    )
    digests = [DEFAULT_JSON_SHA256, NUMERIC_JSON_SHA256, EXACT_JSON_SHA256]
    assert out.stdout.splitlines() == [*digests, "False True"]


def test_importing_cli_leaves_argparse_unloaded():
    """cli loads argparse only to parse arguments, not to import dumps_canonical."""
    code = (
        "import sys\n"
        "from gammaroots import cli\n"
        "print(sorted(m for m in ('argparse', 'gettext') if m in sys.modules))\n"
        "cli.build_parser()\n"
        "print('argparse' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(gammaroots.__file__))
    out = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.splitlines()[-2:] == ["[]", "True"]
