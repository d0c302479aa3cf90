import json
import re

import pytest

from subsetsum import cli
from subsetsum.cli import (
    format_instance_text,
    generate_instance,
    main,
    parse_instance_text,
)
from subsetsum.core import Instance, InvalidInstanceError, SolverConfig


def test_instance_text_roundtrip():
    inst = Instance((3, 5, 8), 8)
    text = format_instance_text(inst, "demo")
    back = parse_instance_text(text)
    assert back == inst


def test_parse_rejects_malformed():
    with pytest.raises(InvalidInstanceError, match="non-integer"):
        parse_instance_text("3 8\n3 five 8\n")
    with pytest.raises(InvalidInstanceError, match="declared 3"):
        parse_instance_text("3 8\n3 5\n")
    with pytest.raises(InvalidInstanceError, match="header"):
        parse_instance_text("3\n1 1 1\n")
    with pytest.raises(InvalidInstanceError, match="empty"):
        parse_instance_text("# nothing\n")


def test_parse_allows_comments_and_multiline_items():
    inst = parse_instance_text("# c\n4 9\n1 2\n# mid\n3 4\n")
    assert inst.items == (1, 2, 3, 4) and inst.target == 9


def test_generate_deterministic():
    a = generate_instance("uniform", 10, 100, seed=7)
    b = generate_instance("uniform", 10, 100, seed=7)
    assert a == b
    c = generate_instance("uniform", 10, 100, seed=8)
    assert a != c


def test_generate_divisor_structured():
    inst = generate_instance("divisor-structured", 30, 60, seed=3, divisor=6, tail=2)
    stray = [x for x in inst.items if x % 6]
    assert len(stray) == 2
    assert all(1 <= x <= 60 for x in inst.items)


def test_generate_refuses_a_negative_tail(tmp_path, capsys):
    # n - tail items are drawn: tail = -5 gave 15 items under an n = 10 header
    with pytest.raises(ValueError, match="tail >= 0"):
        generate_instance("divisor-structured", 10, 16, seed=1, divisor=2, tail=-5)
    path = tmp_path / "bad.txt"
    args = ["--profile", "divisor-structured", "--n", "10", "--w", "16", "--d", "2", "--tail", "-5", "--seed", "1"]
    assert main(["gen", *args, "--out", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ") and not path.exists()


def test_generate_profiles_smoke():
    for profile in ("uniform", "dense", "sparse-window", "divisor-structured"):
        inst = generate_instance(profile, 40, 32, seed=5)
        assert inst.n == 40
        assert 0 <= inst.target <= sum(inst.items)


def test_cmd_gen_and_solve_yes(tmp_path, capsys):
    path = tmp_path / "inst.txt"
    rc = main(["gen", "--n", "12", "--w", "30", "--seed", "4", "--out", str(path)])
    assert rc == 0
    rc = main(["solve", str(path), "--seed", "1"])
    out = capsys.readouterr().out
    assert rc in (0, 1)
    assert ("decision: yes" in out) == (rc == 0)
    assert "branch:" in out and "seed: 1" in out


def test_cmd_solve_exit_codes(tmp_path, capsys):
    yes = tmp_path / "yes.txt"
    yes.write_text("3 8\n3 5 8\n")
    no = tmp_path / "no.txt"
    no.write_text("2 5\n2 4\n")
    bad = tmp_path / "bad.txt"
    bad.write_text("3 8\n3 5\n")
    assert main(["solve", str(yes), "--seed", "0"]) == 0
    assert main(["solve", str(no), "--seed", "0"]) == 1
    assert main(["solve", str(bad), "--seed", "0"]) == 2
    assert main(["solve", str(tmp_path / "missing.txt"), "--seed", "0"]) == 2
    capsys.readouterr()
    # the deleted bench subcommand is a usage error, not a traceback
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--n", "8", "--w", "16", "--t", "30"])
    assert exc.value.code == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err
    # so are the deleted settings --c-ap and gen --t-ratio
    for args in (["solve", str(yes), "--c-ap", "2"], ["gen", "--n", "1", "--w", "1", "--t-ratio", "0.5"]):
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(args[-2:])}" in capsys.readouterr().err


@pytest.mark.parametrize("setting", [
    "--budget-mult=inf", "--budget-mult=1e300", "--budget-mult=nan",
    "--eta-mult=inf", "--eta-mult=1e300", "--eta-mult=nan", "--q=5e-324",
    # eta stays finite, but the merge's u' outgrows a float
    "--eta-mult=1e296",
])
def test_cmd_solve_rejects_settings_that_overflow(setting, tmp_path, capsys):
    # an instance that takes the sparse branch at the defaults, so that every
    # derived constant (k, reps, eta, both budget tails) is computed; a
    # setting that makes one of them non-finite is an error (exit status
    # 2) that names the setting, never a traceback or a "no" (exit status 1)
    path = tmp_path / "inst.txt"
    main(["gen", "--profile", "uniform", "--n", "10588", "--w", "16", "--t", "30000",
          "--seed", "1", "--out", str(path)])
    assert main(["solve", str(path), "--seed", "1", setting]) == 2
    err = capsys.readouterr().err
    name = setting[2:].split("=")[0].replace("-", "_")
    assert err.startswith("error: ") and re.search(rf"\b{name}\b", err) and "Traceback" not in err


def test_cmd_solve_json_schema(tmp_path, capsys):
    path = tmp_path / "inst.txt"
    path.write_text("3 8\n3 5 8\n")
    rc = main(["solve", str(path), "--seed", "9", "--format", "json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["decision"] == "yes"
    assert payload["branch"] in ("sparse", "dense", "fallback-dp", "trivial")
    assert payload["seed"] == 9
    assert "candidate_set_size" in payload and "dense_evidence" in payload
    assert "timings" not in payload  # only with --timings


def test_cmd_solve_json_timings_flag(tmp_path, capsys):
    path = tmp_path / "inst.txt"
    path.write_text("3 8\n3 5 8\n")
    main(["solve", str(path), "--seed", "9", "--format", "json", "--timings"])
    payload = json.loads(capsys.readouterr().out)
    assert "timings" in payload and "total" in payload["timings"]


def test_cmd_verify_runs_clean(capsys):
    rc = main([
        "verify", "--count", "60", "--n-min", "1", "--n-max", "10",
        "--w-min", "1", "--w-max", "20", "--seed", "3",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "sparse_false_positives: 0" in out
    assert "disagreements: 0" in out


def test_cmd_verify_deterministic(capsys):
    args = [
        "verify", "--count", "40", "--n-min", "1", "--n-max", "8",
        "--w-min", "1", "--w-max", "12", "--seed", "5", "--format", "json",
    ]
    main(args)
    first = capsys.readouterr().out
    main(args)
    second = capsys.readouterr().out
    assert first == second


@pytest.mark.parametrize("command", ["gen", "solve", "verify"])
def test_omitted_seed_is_drawn_printed_and_replayable(command, tmp_path, capsys):
    # with --seed omitted the command draws a seed and prints it once on
    # stderr; passing that seed back reproduces stdout byte for byte
    path = tmp_path / "inst.txt"
    path.write_text("5 9\n2 3 4 5 7\n")
    args = {
        "gen": ["gen", "--n", "10", "--w", "20"],
        "solve": ["solve", str(path), "--format", "json"],
        "verify": ["verify", "--count", "10", "--n-min", "1", "--n-max", "6",
                   "--w-min", "1", "--w-max", "10"],
    }[command]
    main(args)
    drawn = capsys.readouterr()
    lines = [line for line in drawn.err.splitlines() if line.startswith("# seed ")]
    assert len(lines) == 1
    seed = int(lines[0].split()[-1])
    main(args + ["--seed", str(seed)])
    replay = capsys.readouterr()
    assert replay.out == drawn.out
    assert "# seed" not in replay.err


def test_cmd_verify_takes_solver_flags(monkeypatch, capsys):
    # verify builds the same SolverConfig that solve builds from its flags
    calls = []
    real = cli.verify_summary
    monkeypatch.setattr(cli, "verify_summary", lambda *args: calls.append(args) or real(*args))
    rc = main([
        "verify", "--count", "5", "--n-min", "1", "--n-max", "6", "--w-min", "1",
        "--w-max", "10", "--seed", "7", "--q", "0.05", "--checked",
        "--eta-mult", "1.5", "--budget-mult", "0.5", "--format", "json",
    ])
    assert rc == 0
    (count, n_range, w_range, seed, config), = calls
    assert (count, n_range, w_range, seed) == (5, (1, 6), (1, 10), 7)
    assert config == SolverConfig(
        error_q=0.05, seed=7, checked_mode=True, fallback_only=False,
        eta_mult=1.5, budget_mult=0.5,
    )
    assert json.loads(capsys.readouterr().out)["seed"] == 7


def test_gen_determinism_bytes(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    args = ["gen", "--profile", "dense", "--n", "50", "--w", "4", "--seed", "13"]
    main(args + ["--out", str(a)])
    main(args + ["--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_dense_profile_reports_dense_branch(tmp_path, capsys):
    # many small items; with a scaled-down trip budget the solve lands on
    # the dense branch and the checked oracle agrees
    path = tmp_path / "dense.txt"
    rc = main(["gen", "--profile", "dense", "--n", "1200", "--w", "2", "--seed", "6",
               "--out", str(path)])
    assert rc == 0
    rc = main(["solve", str(path), "--seed", "2", "--budget-mult", "1e-12",
               "--checked", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["branch"] == "dense"
    assert payload["dense_evidence"] is not None
    assert payload["report"]["checked_disagreement"] is False
    assert rc in (0, 1)
