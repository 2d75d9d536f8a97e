import json
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

SUBCOMMANDS_SMALL = [
    ["pnt", "--field", "2", "--lmax", "6"],
    ["mobius-sums", "--field", "3", "--nmax", "6"],
    ["divisor-moments", "--field", "2", "--nmax", "6"],
    ["hayes-lfunc", "--field", "2", "--l", "1", "--Q", "0,1"],
    ["rh-check", "--field", "2", "--l", "1", "--Q", "0,1"],
    ["euler-check", "--field", "2", "--l", "1", "--Q", "0,1", "--nmax", "4"],
    ["principal-check", "--field", "2", "--Q", "0,1", "--nmax", "5"],
    ["logderiv-check", "--field", "2", "--l", "1", "--Q", "0,1", "--lmax", "4"],
    ["linear-corr", "--field", "2", "--n", "7", "--seed", "2"],
    ["quad-corr", "--field", "3", "--n", "4", "--trials", "2"],
    ["hankel-corr", "--field", "3", "--n", "4", "--trials", "2"],
    ["vaughan-audit", "--field", "2", "--n", "8", "--u", "1", "--v", "1"],
    ["gauss-sums", "--field", "3", "--n", "3", "--trials", "4"],
    ["isotropic", "--field", "3", "--n", "4", "--r", "1", "--trials", "3"],
    ["rank-stats", "--field", "2", "--n", "6", "--k", "2", "--h", "1"],
    ["exponent-sweep", "--field", "2", "--nmin", "3", "--nmax", "5", "--samples", "3"],
]


def run_cli(args, **kw):
    return subprocess.run(
        [sys.executable, "-m", "ffmobius.cli", *args],
        capture_output=True,
        text=True,
        **kw,
    )


def test_pnt_exit_zero_and_content():
    res = run_cli(["pnt", "--field", "2", "--lmax", "10"])
    assert res.returncode == 0
    lines = res.stdout.strip().split("\n")
    assert lines[0].startswith("# ffmobius v")
    assert "field=2" in lines[0] and "seed=" in lines[0] and "budget=" in lines[0]
    assert lines[1] == "l,lambda_sum,expected,ok"
    assert lines[2] == "1,2,2,1"
    assert lines[-1] == "10,1024,1024,1"


def test_rh_check_example():
    res = run_cli(["rh-check", "--field", "2", "--l", "1", "--Q", "0,1"])
    assert res.returncode == 0
    body = res.stdout.strip().split("\n")
    assert body[1] == "lambda_id,root_re,root_im,modulus,class"
    assert body[2].split(",")[0] == "1" and body[2].split(",")[-1] == "1"


def test_unknown_flag_exits_2():
    res = run_cli(["pnt", "--nope", "3"])
    assert res.returncode == 2
    assert "usage" in res.stderr.lower()


def test_unknown_subcommand_exits_2():
    res = run_cli(["frobnicate"])
    assert res.returncode == 2


def test_budget_error_exits_2():
    res = run_cli(["pnt", "--field", "2", "--lmax", "4", "--budget", "0"])
    assert res.returncode == 2


def test_char2_gauss_exits_2():
    res = run_cli(["gauss-sums", "--field", "2", "--n", "3"])
    assert res.returncode == 2
    assert "odd characteristic" in res.stderr


@pytest.mark.parametrize("args", SUBCOMMANDS_SMALL, ids=lambda a: a[0])
def test_determinism_across_worker_counts(args, tmp_path):
    outs = []
    for workers, tag in ((1, "w1"), (3, "w3")):
        path = tmp_path / f"{args[0]}-{tag}.csv"
        res = run_cli(args + ["--seed", "5", "--workers", str(workers), "--out", str(path)])
        assert res.returncode == 0, res.stderr
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_rerun_byte_identical(tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["exponent-sweep", "--field", "2", "--nmin", "3", "--nmax", "6", "--samples", "4", "--seed", "9"]
    assert run_cli(args + ["--out", str(p1)]).returncode == 0
    assert run_cli(args + ["--out", str(p2)]).returncode == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_json_format(tmp_path):
    path = tmp_path / "out.json"
    res = run_cli(
        ["pnt", "--field", "2", "--lmax", "4", "--format", "json", "--out", str(path)]
    )
    assert res.returncode == 0
    lines = path.read_text().split("\n")
    assert lines[0].startswith("#")
    payload = json.loads(lines[1])
    assert payload["columns"] == ["l", "lambda_sum", "expected", "ok"]
    assert payload["rows"][0] == ["1", "2", "2", "1"]
    assert payload["config"]["field"] == "2"


def test_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"field": "3", "lmax": 3}))
    res = run_cli(["pnt", "--config", str(cfg)])
    assert res.returncode == 0
    assert "field=3" in res.stdout.split("\n")[0]
    assert res.stdout.strip().split("\n")[-1].startswith("3,27,27")
    # CLI flag overrides the file
    res2 = run_cli(["pnt", "--config", str(cfg), "--field", "2"])
    assert "field=2" in res2.stdout.split("\n")[0]


def test_config_unknown_key(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"fieldd": "3"}))
    res = run_cli(["pnt", "--config", str(cfg)])
    assert res.returncode == 2
    assert "unknown config keys" in res.stderr


def test_bad_format_rejected():
    res = run_cli(["pnt", "--field", "2", "--format", "xml"])
    assert res.returncode == 2


def test_extension_field_cli():
    res = run_cli(["pnt", "--field", "2^2", "--lmax", "6"])
    assert res.returncode == 0
    assert res.stdout.strip().split("\n")[-1] == "6,4096,4096,1"
    res2 = run_cli(["rh-check", "--field", "2^2", "--l", "1", "--Q", "0,1"])
    assert res2.returncode == 0
    assert len(res2.stdout.strip().split("\n")) >= 3


def test_identity_failure_exits_1(monkeypatch, capsys):
    import ffmobius.cli as cli
    from ffmobius.errors import IdentityCheckError

    def broken_runner(ctx, cfg, rng):
        raise IdentityCheckError("forced failure", counterexample="t^2+t")

    monkeypatch.setitem(cli.SUBCOMMANDS, "pnt", (broken_runner, cli.SUBCOMMANDS["pnt"][1]))
    rc = cli.main(["pnt", "--field", "2"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "identity violated" in err and "t^2+t" in err


SERIES_ARGS = [
    ["linear-corr", "--field", "3", "--n", "8", "--alpha", "-1:1,0,2,1,0,0,0,1,1"],
    ["hankel-corr", "--field", "3", "--n", "3", "--alpha", "-1:1,0,2,1,0,0,0,1",
     "--beta", "-2:2,1,0,1"],
]


@pytest.mark.parametrize("args", SERIES_ARGS, ids=lambda a: a[0])
def test_series_literal_after_space_or_equals(args):
    # a literal starts with '-'; both the README's `--alpha "-1:..."` and
    # `--alpha=-1:...` must reach the parser as the flag's value
    spaced = run_cli(args)
    joined = []
    for tok in args:
        if joined and joined[-1] in ("--alpha", "--beta"):
            joined[-1] += "=" + tok
        else:
            joined.append(tok)
    equals = run_cli(joined)
    assert spaced.returncode == 0, spaced.stderr
    assert equals.returncode == 0, equals.stderr
    assert spaced.stdout == equals.stdout
    assert "alpha=-1:1,0,2" in spaced.stdout.split("\n")[0]


def test_series_flag_without_value_exits_2():
    res = run_cli(["linear-corr", "--field", "3", "--n", "4", "--alpha", "--n", "5"])
    assert res.returncode == 2
    assert "--alpha" in res.stderr


def test_rank_stats_k_above_n_names_the_flag():
    res = run_cli(["rank-stats", "--field", "2", "--n", "3", "--k", "5"])
    assert res.returncode == 2
    assert "--k 5" in res.stderr and "--n" in res.stderr
    assert "negative dimensions" not in res.stderr


@pytest.mark.parametrize("args, message", [
    (["gauss-sums", "--field", "3", "--n", "-1"], "--n -1 must be >= 0"),
    (["quad-corr", "--field", "3", "--n", "-2"], "--n -2 must be >= 0"),
    (["isotropic", "--field", "3", "--n", "-1"], "--n -1 must be >= 0"),
    (["isotropic", "--field", "3", "--n", "4", "--r", "-1"], "--r -1 must be >= 0"),
    (["vaughan-audit", "--field", "2", "--n", "-1"], "--n -1 must be >= 0"),
    (["divisor-moments", "--field", "2", "--nmax", "-1"], "--nmax -1 must be >= 0"),
    (["linear-corr", "--field", "3", "--n", "-1"], "--n -1 must be >= 0"),
    (["hankel-corr", "--field", "3", "--n", "-1"], "--n -1 must be >= 0"),
    (["exponent-sweep", "--field", "3", "--nmin", "-2"], "--nmin -2 must be >= 0"),
    (["exponent-sweep", "--field", "3", "--nmin", "5", "--nmax", "2"], "--nmin 5 must be <= --nmax 2"),
    (["vaughan-audit", "--field", "2", "--n", "8", "--u", "-1", "--v", "1"], "--u -1 must be >= 0"),
    (["rank-stats", "--field", "2", "--n", "4", "--mode", "sampled", "--samples", "-3"],
     "--samples -3 must be >= 0"),
    (["linear-corr", "--field", "2", "--n", "4", "--workers", "0"], "--workers 0 must be >= 1"),
    (["linear-corr", "--field", "2", "--n", "4", "--workers", "-1"], "--workers -1 must be >= 1"),
    (["linear-corr", "--field", "2", "--n", "4", "--work", "0"], "--workers 0 must be >= 1"),
    (["quad-corr", "--field", "3", "--n", "2", "--trials", "-1"], "--trials -1 must be >= 0"),
    (["exponent-sweep", "--field", "2", "--nmin", "2", "--nmax", "3", "--samples", "-2"],
     "--samples -2 must be >= 0"),
    (["pnt", "--field", "2", "--lmax", "-3"], "--lmax -3 must be >= 0"),
    (["mobius-sums", "--field", "2", "--nmax", "-1"], "--nmax -1 must be >= 0"),
    (["hayes-lfunc", "--field", "2", "--l", "-1", "--Q", "0,1"], "--l -1 must be >= 0"),
    (["pnt", "--field", "2", "--seed", "-1"], "--seed -1 must be >= 0"),
], ids=["gauss-n", "quad-n", "isotropic-n", "isotropic-r", "vaughan-n", "divisor-nmax", "linear-n",
        "hankel-n", "sweep-nmin", "sweep-nmin-above-nmax", "vaughan-u", "rank-samples", "workers-0",
        "workers-neg", "workers-abbrev", "quad-trials", "sweep-samples", "pnt-lmax", "mobius-nmax",
        "hayes-l", "seed"])
def test_negative_size_names_the_flag(args, message, capsys):
    # one rule for every integer flag, on the exact-flag reader and on the
    # argparse path (--work is an abbreviation)
    import ffmobius.cli as cli

    assert cli.main(args) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""


def test_negative_config_value_names_the_flag(tmp_path, capsys):
    import ffmobius.cli as cli

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": -1, "workers": 2}))
    assert cli.main(["linear-corr", "--field", "3", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == "error: --n -1 must be >= 0\n"


@pytest.mark.parametrize("args", [
    ["gauss-sums", "--field", "3", "--n", "0"],
    ["quad-corr", "--field", "3", "--n", "0"],
    ["isotropic", "--field", "3", "--n", "0"],
    ["isotropic", "--field", "3", "--n", "3", "--r", "0"],
    ["hankel-corr", "--field", "3", "--n", "0"],
    ["hankel-corr", "--field", "2", "--n", "0"],
], ids=["gauss-n", "quad-n", "isotropic-n", "isotropic-r", "hankel-n-q3", "hankel-n-q2"])
def test_zero_size_accepted(args, capsys):
    import ffmobius.cli as cli

    assert cli.main(args + ["--trials", "2"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 4  # header, columns, two trials


@pytest.mark.parametrize("args", [
    ["linear-corr", "--field", "2", "--n", "3", "--alpha", "5:1"],
    ["hankel-corr", "--field", "3", "--n", "2", "--alpha", "-1:1,1,1,1", "--beta", "0:1,1,1"],
], ids=["linear-alpha", "hankel-beta"])
def test_series_outside_torus_names_the_flag(args):
    res = run_cli(args)
    flag = args[-2]
    assert res.returncode == 2
    assert f"{flag} {args[-1]} is not in the torus" in res.stderr
    assert "precision" not in res.stderr


def test_field_above_budget_exits_2_naming_the_flag():
    # q x q operation tables of F_65536 would need 2^32 entries: refused
    # before any table is built, not a MemoryError traceback
    res = run_cli(["pnt", "--field", "2^16", "--lmax", "2"])
    assert res.returncode == 2
    assert res.stderr.startswith("error: --field 2^16: ")
    assert "needs budget >= 4294967296, configured 1200000" in res.stderr
    assert "Traceback" not in res.stderr and "MemoryError" not in res.stderr


@pytest.mark.parametrize("spec, reason", [
    ("6", "p = 6 is not prime"),
    ("x", "invalid literal"),
    ("2^0", "extension degree s must be >= 1"),
], ids=["not-prime", "not-a-number", "degree-0"])
def test_bad_field_exits_2_naming_the_flag(spec, reason, capsys):
    import ffmobius.cli as cli

    assert cli.main(["pnt", "--field", spec, "--lmax", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: --field {spec}: ") and reason in err


def test_commands_without_draws_never_import_numpy_random():
    code = (
        "import sys\n"
        "from ffmobius.cli import main\n"
        "assert main(['linear-corr', '--field', '3', '--n', '5', '--alpha', '-1:1,2,0,1,1,0']) == 0\n"
        "assert main(['hankel-corr', '--field', '3', '--n', '3', '--alpha', '-1:1,2,0,1,1,0,2,1',\n"
        "             '--beta', '-1:2,1,0,1']) == 0\n"
        "assert main(['mobius-sums', '--field', '2', '--nmax', '4']) == 0\n"
        "print('numpy.random' in sys.modules, file=sys.stderr)\n"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stderr.strip().endswith("False")


# First 16 hex digits of the sha256 of the output of each command at
# --seed 23, recorded when every run built its generator up front.  A
# generator built on first use must draw the same sequence.
SEEDED_OUTPUT_DIGESTS = [
    (["linear-corr", "--field", "3", "--n", "6"], "dc694d954f7114bd"),
    (["quad-corr", "--field", "3", "--n", "4", "--trials", "2"], "35fb658c50e66991"),
    (["hankel-corr", "--field", "2", "--n", "5", "--trials", "2"], "1731d02d01ca1563"),
    (["hankel-corr", "--field", "3", "--n", "4", "--alpha=-1:1,2,0,1,1,0,2,1", "--trials", "2"],
     "0b27ed14d2a2868e"),
    (["vaughan-audit", "--field", "2", "--n", "7", "--u", "1", "--v", "2"], "1cfea549f143fe6d"),
    (["gauss-sums", "--field", "5", "--n", "3", "--trials", "3"], "eda936c68e44a780"),
    (["isotropic", "--field", "3", "--n", "4", "--r", "2", "--trials", "2"], "1644add00783a723"),
    (["rank-stats", "--field", "3", "--n", "4", "--k", "2", "--h", "1", "--mode", "sampled",
      "--samples", "5"], "56810960cb6ac791"),
]


@pytest.mark.parametrize("args, digest", SEEDED_OUTPUT_DIGESTS,
                         ids=lambda a: a[0] if isinstance(a, list) else None)
def test_seeded_outputs_match_frozen_digests(args, digest, tmp_path):
    import hashlib

    import ffmobius.cli as cli

    out = tmp_path / "out.csv"
    assert cli.main(args + ["--seed", "23", "--workers", "1", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest()[:16] == digest


def test_config_field_may_be_a_number(tmp_path, capsys):
    import ffmobius.cli as cli

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"field": 3}))
    assert cli.main(["pnt", "--config", str(cfg), "--lmax", "3"]) == 0
    assert capsys.readouterr().out.strip().split("\n")[-1] == "3,27,27,1"


PARSER_ARGVS = (
    [[sub, "--help"] for sub in (a[0] for a in SUBCOMMANDS_SMALL)]
    + [[sub, "--bogus", "1"] for sub in (a[0] for a in SUBCOMMANDS_SMALL)]
    + [["--help"], []]
)


@pytest.mark.parametrize("argv", PARSER_ARGVS, ids=lambda a: " ".join(a) or "no-args")
def test_parser_output_matches_parser_with_every_flag(argv, monkeypatch, capsys):
    # main falls back to argparse for help, usage and errors; what it prints
    # must be what the full parser, every subcommand with its flags, prints
    import ffmobius.cli as cli

    monkeypatch.setenv("COLUMNS", "100")

    def outcome(parse):
        with pytest.raises(SystemExit) as exc:
            parse()
        captured = capsys.readouterr()
        return exc.value.code, captured.out, captured.err

    want = outcome(lambda: cli._build_parser().parse_args(argv))
    assert outcome(lambda: cli.main(list(argv))) == want


def test_small_commands_build_no_argparse_parser(tmp_path, monkeypatch):
    # exact flags are read from the flag table; argparse is only for help,
    # errors and abbreviations
    import argparse

    import ffmobius.cli as cli

    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for args in SUBCOMMANDS_SMALL:
        assert cli.main(args + ["--out", str(tmp_path / f"{args[0]}.csv")]) == 0
    assert built == []
    cli._build_parser()
    assert built  # the spy sees a parser when one is built


def _flag_table_argvs():
    import ffmobius.cli as cli

    every_flag = sorted(cli.FLAGS)
    values = st.one_of(
        st.integers(-30, 30).map(str),
        st.sampled_from(["", "x", "1.5", "-.5", "-x", "--n", "-", " 3", "0:1,2", "-1:1,0,2", "a=b"]),
    )

    @st.composite
    def argvs(draw):
        sub = draw(st.sampled_from(list(cli.SUBCOMMANDS) + ["frobnicate", "--field"]))
        own = ["--" + key for key in cli.COMMON_FLAGS + cli.SUBCOMMANDS.get(sub, (None, ()))[1]]
        argv = [sub]
        for _ in range(draw(st.integers(0, 6))):
            kind = draw(st.sampled_from(["space"] * 6 + ["equals"] * 4 + ["other", "abbrev", "bare", "special"]))
            flag = draw(st.sampled_from(own))
            if kind == "other":
                flag = "--" + draw(st.sampled_from(every_flag))
            elif kind == "abbrev":
                flag = flag[: draw(st.integers(3, max(3, len(flag) - 1)))]
            if kind == "special":
                argv.append(draw(st.sampled_from(["-h", "--help", "--", "-n"])))
            elif kind == "bare":
                argv.append(flag)
            elif kind == "equals":
                argv.append(f"{flag}={draw(values)}")
            else:
                argv += [flag, draw(values)]
        return argv

    return argvs()


@settings(max_examples=400, deadline=None)
@given(argv=_flag_table_argvs())
def test_exact_reader_agrees_with_argparse(argv):
    import ffmobius.cli as cli

    got = cli._read_exact(argv)
    if got is not None:
        assert got == cli._build_parser().parse_args(argv)


@pytest.mark.parametrize("argv", [
    ["pnt"],
    ["hankel-corr", "--n", "3", "--alpha=-1:1,2", "--beta", "0", "--n=-4", "--trials", "2"],
    ["isotropic", "--r", "-2", "--out=", "--field", ""],
    ["pnt", "--format", "json"],
    ["linear-corr", "--domain=A"],
    ["rank-stats", "--mode", "sampled"],
    ["exponent-sweep", "--experiment", "hankel"],
], ids=["bare", "repeats", "empty", "format", "domain", "mode", "experiment"])
def test_exact_reader_takes_exact_flags(argv):
    import ffmobius.cli as cli

    got = cli._read_exact(argv)
    assert got is not None and got == cli._build_parser().parse_args(argv)


@pytest.mark.parametrize("value, reason", [
    (None, "expected int, got null"),
    (True, "expected int, got true"),
    (4.5, "expected int, got 4.5"),
    ([4], "expected int, got [4]"),
    ("4x", "invalid int value '4x'"),
], ids=["null", "bool", "float", "list", "bad-string"])
@pytest.mark.parametrize("sub", ["gauss-sums", "linear-corr"])
def test_config_value_of_wrong_type_names_the_key(sub, value, reason, tmp_path, capsys):
    import ffmobius.cli as cli

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": value}))
    assert cli.main([sub, "--field", "3", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: config key 'n': {reason}\n" and captured.out == ""


@pytest.mark.parametrize("sub", ["gauss-sums", "linear-corr"])
def test_config_string_goes_through_the_flag_type(sub, tmp_path, capsys):
    import ffmobius.cli as cli

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": "4", "trials": "2", "alpha": "-1:1,2,0,1,1"}))
    args = [sub, "--field", "3", "--seed", "3"]
    assert cli.main(args + ["--config", str(cfg)]) == 0
    from_file = capsys.readouterr().out
    flags = ["--n", "4"] + (["--trials", "2"] if sub == "gauss-sums" else ["--alpha=-1:1,2,0,1,1"])
    assert cli.main(args + flags) == 0
    assert capsys.readouterr().out == from_file


def test_config_string_flag_refuses_a_number(tmp_path, capsys):
    import ffmobius.cli as cli

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"Q": 3}))
    assert cli.main(["principal-check", "--field", "3", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == "error: config key 'Q': expected str, got 3\n"


def test_every_flag_and_subcommand_is_declared_once():
    # FLAGS and SUBCOMMANDS are the only declarations: every name a
    # subcommand takes is a FLAGS key, every key is taken, and the parser
    # gives each subcommand exactly its table entry
    import argparse

    import ffmobius.cli as cli

    used = set(cli.COMMON_FLAGS)
    for name, (runner, own) in cli.SUBCOMMANDS.items():
        assert callable(runner) and len(set(own)) == len(own)
        assert not set(own) & set(cli.COMMON_FLAGS)
        used |= set(own)
    assert used == set(cli.FLAGS) and len(set(cli.COMMON_FLAGS)) == len(cli.COMMON_FLAGS)
    for kind, _, least in cli.FLAGS.values():
        assert (kind is int) == (least is not None)
    subparsers = next(a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert list(subparsers.choices) == list(cli.SUBCOMMANDS)
    for name, (_, own) in cli.SUBCOMMANDS.items():
        flags = [a.option_strings for a in subparsers.choices[name]._actions if a.dest != "help"]
        assert flags == [["--" + key] for key in cli.COMMON_FLAGS + own]


CHOICE_CASES = [
    (["pnt", "--field", "2"], "--format", "xml"),
    (["linear-corr", "--field", "3", "--n", "3"], "--domain", "Z"),
    (["rank-stats", "--field", "2", "--n", "3"], "--mode", "x"),
    (["exponent-sweep", "--field", "3", "--samples", "0"], "--experiment", "bogus"),
]
CHOICE_IDS = [flag[2:] for _, flag, _ in CHOICE_CASES]


@pytest.mark.parametrize("args, flag, value", CHOICE_CASES, ids=CHOICE_IDS)
@pytest.mark.parametrize("form", ["exact", "abbrev"])
def test_unlisted_choice_exits_2_naming_the_flag(args, flag, value, form, capsys):
    # an exact flag fails its type in the reader, an abbreviation goes
    # straight to argparse: both end in argparse's error for the flag
    import ffmobius.cli as cli

    with pytest.raises(SystemExit) as exc:
        cli.main(args + [flag if form == "exact" else flag[:-1], value])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert f"error: argument {flag}: invalid " in captured.err and f"value: {value!r}" in captured.err


@pytest.mark.parametrize("args, key, value", CHOICE_CASES, ids=CHOICE_IDS)
def test_config_unlisted_choice_names_the_key(args, key, value, tmp_path, capsys):
    import ffmobius.cli as cli

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key[2:]: value}))
    assert cli.main(args + ["--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: config key {key[2:]!r}: invalid ") and captured.out == ""
    assert captured.err.endswith(f" value {value!r}\n")


@pytest.mark.parametrize("args, message", [
    (["pnt", "--field", "2", "--budget", "0"], "--budget 0 must be >= 1"),
    (["linear-corr", "--field", "3", "--n", "4", "--alpha", "x"],
     "--alpha x: invalid literal for int() with base 10: 'x'"),
    (["linear-corr", "--field", "3", "--n", "4", "--alpha=-1:5,0,0,0,0"],
     "--alpha -1:5,0,0,0,0: coefficient code 5 outside [0, 3)"),
    (["hankel-corr", "--field", "3", "--n", "2", "--beta", "x"],
     "--beta x: invalid literal for int() with base 10: 'x'"),
    (["rh-check", "--field", "3", "--l", "1", "--Q", "1,x"], "--Q 1,x: invalid literal for int() with base 10: 'x'"),
    (["principal-check", "--field", "3", "--Q", "1,5"], "--Q 1,5: coefficient code 5 outside [0, 3)"),
    (["principal-check", "--field", "3", "--Q", "0,0"], "--Q 0,0: the modulus must be nonzero"),
    (["hayes-lfunc", "--field", "3", "--l", "1", "--Q", "1,0,2"], "--Q 1,0,2: the modulus must be monic"),
    (["rh-check", "--field", "3", "--l", "1", "--Q", "1,0,2"], "--Q 1,0,2: the modulus must be monic"),
    (["euler-check", "--field", "3", "--l", "1", "--Q", "1,0,2"], "--Q 1,0,2: the modulus must be monic"),
    (["logderiv-check", "--field", "3", "--l", "1", "--Q", "1,0,2"], "--Q 1,0,2: the modulus must be monic"),
    (["rank-stats", "--field", "2", "--n", "3", "--k", "2", "--mode", "sampled", "--samples", "0"],
     "--samples 0 must be >= 1 in sampled mode"),
    (["rank-stats", "--field", "2", "--n", "3", "--k", "2", "--mode", "sampled", "--samples", "20",
      "--budget", "10"], "--budget 10: rank_stats samples needs budget >= 20, configured 10"),
    (["rank-stats", "--field", "3", "--n", "45", "--k", "40", "--mode", "sampled", "--samples", "2"],
     "--k 40 must keep 3^41 <= 2^63 in sampled mode"),
    (["vaughan-audit", "--field", "2", "--n", "4", "--u", "3", "--v", "3"], "--u 3 + --v 3 must be < --n 4"),
    (["vaughan-audit", "--field", "2", "--n", "0"], "--u 0 + --v 0 must be < --n 0"),
    (["linear-corr", "--n", "5", "--domain", "A", "--alpha=-1:1,0,1,1,0"],
     "--alpha -1:1,0,1,1,0 has precision 5, needs >= 6"),
    (["hankel-corr", "--n", "3", "--alpha=-1:1,0,1,1"], "--alpha -1:1,0,1,1 has precision 4, needs >= 5"),
    (["hankel-corr", "--n", "3", "--alpha=-1:1,0,1,1,0", "--beta=-1:1,1"],
     "--beta -1:1,1 has precision 2, needs >= 3"),
    (["quad-corr", "--field", "2", "--n", "3"], "--field 2: quad-corr requires odd characteristic (p > 2)"),
    (["gauss-sums", "--field", "2^2", "--n", "2"],
     "--field 2^2: gauss-sums requires odd characteristic (p > 2)"),
    (["exponent-sweep", "--field", "2", "--experiment", "quadratic", "--nmin", "2", "--nmax", "3"],
     "--field 2: --experiment quadratic requires odd characteristic (p > 2)"),
    (["isotropic", "--field", "3^2", "--n", "3", "--r", "1"],
     "--field 3^2: isotropic counting is over prime fields"),
], ids=["budget-0", "alpha-text", "alpha-code", "beta-text", "Q-text", "Q-code", "Q-zero", "hayes-Q",
        "rh-Q", "euler-Q", "logderiv-Q", "rank-samples-0", "rank-samples-budget", "rank-k-overflow",
        "vaughan-uv", "vaughan-n-0", "linear-A-prec", "hankel-alpha-prec", "hankel-beta-prec",
        "quad-field", "gauss-field", "sweep-quadratic-field", "isotropic-field"])
def test_bad_value_names_the_flag(args, message, capsys):
    import ffmobius.cli as cli

    assert cli.main(args) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""


# one refusal by --budget per subcommand that refuses (pnt, mobius-sums and
# divisor-moments stop at the budget instead)
BUDGET_REFUSALS = [
    (["hayes-lfunc", "--l", "2", "--Q", "1,0,1", "--budget", "10"], "Hayes group needs budget >= 72"),
    (["rh-check", "--l", "1", "--Q", "1,1", "--budget", "10"], "A_n class sweep needs budget >= 27"),
    (["euler-check", "--l", "1", "--Q", "1,1", "--nmax", "9"], "A_n class sweep needs budget >= 243"),
    (["principal-check", "--Q", "1,1", "--nmax", "9"], "principal sweep needs budget >= 19683"),
    (["logderiv-check", "--l", "1", "--Q", "1,1", "--lmax", "9"], "A_n class sweep needs budget >= 243"),
    (["linear-corr", "--n", "9"], "correlation sweep needs budget >= 19683"),
    (["quad-corr", "--n", "9"], "correlation sweep needs budget >= 19683"),
    (["hankel-corr", "--n", "9"], "correlation sweep needs budget >= 19683"),
    (["vaughan-audit", "--n", "9", "--u", "2", "--v", "2"], "vaughan sweep needs budget >= 19683"),
    (["gauss-sums", "--n", "9"], "F_q^n sweep needs budget >= 19683"),
    (["isotropic", "--n", "9", "--r", "1"], "F_p^n sweep needs budget >= 19683"),
    (["rank-stats", "--n", "3", "--k", "2", "--budget", "10"], "rank_stats pairs needs budget >= 729"),
    (["exponent-sweep", "--experiment", "linear", "--nmin", "2", "--nmax", "9"], "sweep at n=5 needs budget >= 243"),
]


@pytest.mark.parametrize("args, message", BUDGET_REFUSALS, ids=[a[0] for a, _ in BUDGET_REFUSALS])
def test_budget_refusal_names_the_flag(args, message, capsys):
    import ffmobius.cli as cli

    budget = args[args.index("--budget") + 1] if "--budget" in args else "100"
    argv = args[:1] + ["--field", "3"] + args[1:] + ([] if "--budget" in args else ["--budget", budget])
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: --budget {budget}: {message}, configured {budget}\n"
    assert captured.out == ""


def test_internal_cap_keeps_its_text(monkeypatch, capsys):
    # a cap of the library's own, such as the int32 product offsets of the
    # sieve, is not the --budget flag
    import ffmobius.cli as cli
    from ffmobius.errors import BudgetExceeded

    def refuse(ctx, cfg, rng):
        raise BudgetExceeded(2**31, 2**31 - 1, "int32 product offsets of degree 40")

    monkeypatch.setitem(cli.SUBCOMMANDS, "pnt", (refuse, ("lmax",)))
    assert cli.main(["pnt", "--field", "2"]) == 2
    want = f"error: int32 product offsets of degree 40 needs budget >= {2**31}, configured {2**31 - 1}\n"
    assert capsys.readouterr().err == want


@pytest.mark.parametrize("args", [
    ["linear-corr", "--field", "2", "--n", "5", "--alpha=-1:1,0,1,1,0"],
    ["linear-corr", "--field", "2", "--n", "5", "--domain", "A", "--alpha=-1:1,0,1,1,0,1"],
    ["hankel-corr", "--field", "2", "--n", "3", "--alpha=-1:1,0,1,1,0", "--beta=-1:1,1,0"],
], ids=["linear-G", "linear-A", "hankel"])
def test_series_literal_of_the_needed_precision_runs(args, capsys):
    import ffmobius.cli as cli

    assert cli.main(args) == 0
    assert capsys.readouterr().err == ""


def test_principal_check_takes_a_non_monic_modulus(capsys):
    # dividing by 2 t^2 + 1 leaves the remainders of t^2 + 2
    import ffmobius.cli as cli

    rows = []
    for Q in ("1,0,2", "2,0,1"):
        assert cli.main(["principal-check", "--field", "3", "--Q", Q, "--nmax", "4"]) == 0
        rows.append(capsys.readouterr().out.splitlines()[1:])
    assert rows[0] == rows[1] and len(rows[0]) == 6
