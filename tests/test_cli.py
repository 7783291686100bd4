import csv
import dataclasses
import hashlib
import json
import math
import re
import types

import pytest

import sparsegames as sg
from sparsegames import cli
from sparsegames.cli import METHODS as CLI_METHODS, main

from conftest import gap_game


def _write_game(tmp_path, game, name="game.txt"):
    path = tmp_path / name
    path.write_bytes(sg.serialize_game(game))
    return str(path)


def _losing_game():
    return sg.SafetyGame.build({"v": 0, "p": 1}, {("p", "z"): "p"}, "v")


def test_solve_prints_statistics(tmp_path, capsys):
    path = _write_game(tmp_path, sg.gen_adversarial(2))
    assert main(["solve", path]) == 0
    out = capsys.readouterr().out
    assert "positions0 12" in out
    assert "positions1 13" in out
    assert "winning 25" in out
    assert "init_winning yes" in out
    assert "search_space_bits 7.1699" in out


def test_solve_output_stable_across_runs(tmp_path, capsys):
    path = _write_game(tmp_path, sg.gen_chain(3))
    main(["solve", path])
    first = capsys.readouterr().out
    main(["solve", path])
    assert capsys.readouterr().out == first


def test_solve_losing_game_exit_code(tmp_path, capsys):
    path = _write_game(tmp_path, _losing_game())
    assert main(["solve", path]) == 2
    out = capsys.readouterr().out
    assert "init_winning no" in out and "init losing" in out


@pytest.mark.parametrize(
    "args", [["--method", m] for m in ("replp", "ilp", "sat")]
    + [["--method", "smart", "--dump-lp", "dump.lp"]],
    ids=["replp", "ilp", "sat", "dump-lp"],
)
def test_extract_refuses_an_lp_over_the_budget(tmp_path, capsys, monkeypatch, args):
    # An LP too large for the dense simplex is an error line and exit 1,
    # not a traceback from numpy's allocator.
    monkeypatch.setattr(sg.lp, "LP_TABLEAU_BYTES", 1)
    monkeypatch.chdir(tmp_path)
    path = _write_game(tmp_path, sg.gen_adversarial(8))
    assert main(["extract", path, *args]) == 1
    assert capsys.readouterr().err.startswith("error: the reduced LP has 72 rows")


def test_extract_losing_game_exit_code(tmp_path, capsys):
    path = _write_game(tmp_path, _losing_game())
    assert main(["extract", path, "--method", "smart"]) == 2
    assert "init losing" in capsys.readouterr().err


def test_oracle_losing_game_exit_code(tmp_path, capsys):
    path = _write_game(tmp_path, _losing_game())
    assert main(["oracle", path]) == 2
    assert "init losing" in capsys.readouterr().err


def test_extract_unknown_method_is_usage_error(tmp_path):
    path = _write_game(tmp_path, sg.gen_chain(2))
    with pytest.raises(SystemExit) as err:
        main(["extract", path, "--method", "annealing"])
    assert err.value.code == 1


def test_missing_file_is_io_error(capsys):
    assert main(["solve", "/nonexistent/game.txt"]) == 1


def test_parse_error_is_io_error(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("pos a 0\npos a 0\ninit a\n")
    assert main(["solve", str(path)]) == 1
    assert "error" in capsys.readouterr().err


def test_extract_reports_and_outputs(tmp_path, capsys):
    path = _write_game(tmp_path, sg.gen_adversarial(2))
    json_path = tmp_path / "report.json"
    csv_path = tmp_path / "report.csv"
    code = main(
        [
            "extract", path, "--method", "smart", "--seed", "3", "--runs", "4",
            "--json", str(json_path), "--csv", str(csv_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("trial seed=") == 4
    assert "density mean=" in out and "choice " in out

    report = json.loads(json_path.read_text())
    assert report["method"] == "smart"
    assert [t["seed"] for t in report["trials"]] == [3, 4, 5, 6]
    assert all(t["valid"] for t in report["trials"])

    with open(csv_path) as fh:
        rows = list(csv.reader(fh))
    # header + 4 trials + summary; values match the JSON
    assert len(rows) == 6
    for row, trial in zip(rows[1:5], report["trials"]):
        assert int(row[1]) == trial["seed"]
        assert int(row[2]) == trial["density"]
    assert rows[5][2] == f"{report['density_mean']:.6f}"
    with open(csv_path) as fh:
        summary = list(csv.DictReader(fh))[-1]
    assert summary["row"] == "summary"
    assert summary["valid"] == summary["certified"] == summary["timed_out"] == ""
    assert summary["density_stddev"] == f"{report['density_stddev']:.6f}"
    assert summary["time_stddev"] == f"{report['time_stddev_secs']:.6f}"


def test_extract_exact_methods_agree_and_have_zero_stddev(tmp_path):
    path = _write_game(tmp_path, sg.gen_adversarial(2))
    reports = {}
    for method in ("ilp", "sat"):
        json_path = tmp_path / f"{method}.json"
        assert main(
            ["extract", path, "--method", method, "--runs", "3",
             "--json", str(json_path)]
        ) == 0
        reports[method] = json.loads(json_path.read_text())
    assert reports["ilp"]["density_mean"] == reports["sat"]["density_mean"] == 4.0
    assert reports["ilp"]["density_stddev"] == reports["sat"]["density_stddev"] == 0.0


def test_extract_smart_densities_are_local_optima(tmp_path):
    game = sg.gen_adversarial(3)
    path = _write_game(tmp_path, game)
    json_path = tmp_path / "smart.json"
    assert main(
        ["extract", path, "--method", "smart", "--runs", "25",
         "--json", str(json_path)]
    ) == 0
    report = json.loads(json_path.read_text())
    optima = sg.enumerate_local_optima(game)
    densities = {t["density"] for t in report["trials"]}
    assert densities <= optima


def test_extract_deterministic_reports(tmp_path):
    path = _write_game(tmp_path, sg.gen_adversarial(2))
    texts = []
    for name in ("a.json", "b.json"):
        json_path = tmp_path / name
        assert main(
            ["extract", path, "--method", "smart", "--seed", "1", "--runs", "5",
             "--json", str(json_path)]
        ) == 0
        report = json.loads(json_path.read_text())
        for trial in report["trials"]:
            del trial["time_secs"]
        del report["time_mean_secs"], report["time_stddev_secs"]
        texts.append(json.dumps(report, sort_keys=True))
    assert texts[0] == texts[1]


def test_dump_cnf_and_lp(tmp_path):
    path = _write_game(tmp_path, sg.gen_adversarial(1))
    cnf_path = tmp_path / "inst.cnf"
    lp_path = tmp_path / "inst.lp"
    assert main(
        ["extract", path, "--method", "sat", "--dump-cnf", str(cnf_path),
         "--dump-lp", str(lp_path)]
    ) == 0
    cnf_lines = cnf_path.read_text().splitlines()
    header = [l for l in cnf_lines if l.startswith("p cnf ")]
    assert len(header) == 1
    n_vars, n_clauses = map(int, header[0].split()[2:])
    body = [l for l in cnf_lines if not l.startswith(("c", "p"))]
    assert len(body) == n_clauses
    assert all(l.endswith(" 0") for l in body)
    lp_text = lp_path.read_text()
    # One comment line with the forced player-0 count, then the LP.
    assert lp_text.startswith("\\ offset 1: ") and lp_text.endswith("End\n")
    assert lp_text.splitlines()[1] == "Minimize"
    assert cnf_lines[0].startswith("c offset 1: ")


def test_a_refused_lp_dump_writes_no_file(tmp_path, monkeypatch, capsys):
    # Every requested dump is encoded before any is written: with the LP
    # over the tableau limit, extract exits 1 and leaves no CNF behind,
    # while the CNF alone, which needs no tableau, is written.
    import sparsegames.lp as lp_mod

    monkeypatch.setattr(lp_mod, "LP_TABLEAU_BYTES", 0)
    path = _write_game(tmp_path, sg.gen_adversarial(2))
    cnf_path, lp_path = tmp_path / "inst.cnf", tmp_path / "inst.lp"
    args = ["extract", path, "--method", "random", "--dump-cnf", str(cnf_path)]
    assert main([*args, "--dump-lp", str(lp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: the reduced LP has ")
    assert not cnf_path.exists() and not lp_path.exists()
    assert main(args) == 0
    assert "\np cnf 22 18\n" in cnf_path.read_text()


def _parse_lp(text):
    """Objective, rows (coefficient dict, rhs) and bounds of a
    ``--dump-lp`` file.  Terms are ``[sign] [coef] name``, split at the
    sign tokens; ``\\`` starts a comment line."""

    def linear(expr):
        coefs, sign, term = {}, 1.0, []
        for tok in expr.split() + ["+"]:
            if tok not in "+-":
                term.append(tok)
                continue
            if term:
                coef = float(term[0]) if len(term) == 2 else 1.0
                coefs[term[-1]] = coefs.get(term[-1], 0.0) + sign * coef
            sign, term = (-1.0 if tok == "-" else 1.0), []
        return coefs

    section, objective, rows, bounds = None, {}, [], {}
    for line in text.splitlines():
        if line.startswith("\\"):
            continue
        if line in ("Minimize", "Subject To", "Bounds", "End"):
            section = line
        elif section == "Minimize":
            objective = linear(line.split(":", 1)[1])
        elif section == "Subject To":
            expr, rhs = line.split(":", 1)[1].rsplit(">=", 1)
            rows.append((linear(expr), float(rhs)))
        else:
            lo, name, hi = line.split("<=")
            bounds[name.strip()] = (float(lo), float(hi))
    return objective, rows, bounds


def _dump_offset(text):
    """The forced player-0 count of a dump, from its ``offset`` comment."""
    (line,) = [l for l in text.splitlines() if l.split()[1:2] == ["offset"]]
    return int(line.split()[2].rstrip(":"))


def _dump_lp_optimum(lp_text):
    """HiGHS's optimum of a ``--dump-lp`` file; 0 when it has no variables."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    objective, rows, bounds = _parse_lp(lp_text)
    names = sorted(bounds)
    if not names:
        return 0.0
    col = {name: j for j, name in enumerate(names)}
    a_ub = [[0.0] * len(names) for _ in rows]
    for i, (coefs, _) in enumerate(rows):
        for name, coef in coefs.items():
            a_ub[i][col[name]] = -coef
    res = linprog(
        [objective.get(name, 0.0) for name in names],
        A_ub=a_ub,
        b_ub=[-rhs for _, rhs in rows],
        bounds=[bounds[name] for name in names],
        method="highs",
    )
    assert res.status == 0
    return res.fun


def _visited(game, choice):
    """Positions a play can reach under ``choice``: every edge of a
    player-1 position, the chosen edge of a player-0 one."""
    seen, stack = {game.init}, [game.init]
    while stack:
        pos = stack.pop()
        v = game.pos_index[pos]
        for a, dst in game.out_edges[v]:
            act, target = game.act_names[a], game.pos_names[dst]
            if (game.pos_owner[v] == 1 or choice.get(pos) == act) and target not in seen:
                seen.add(target)
                stack.append(target)
    return seen


@pytest.mark.parametrize("name", ["adversarial4", "gap40", "chain64"])
def test_dumps_cross_check_the_ilp_density(tmp_path, name):
    # The dumps are the reduced encodings the engines solve: HiGHS's LP
    # optimum plus the dumped forced player-0 count, rounded up, bounds
    # the ilp density (tight on the integral trap root and on the chain,
    # whose reduced LP is empty, one below it on the gap game); the ilp
    # strategy's positions satisfy every dumped clause, and they include
    # every forced position.
    game = {
        "adversarial4": lambda: sg.gen_adversarial(4),
        "gap40": lambda: gap_game(40, 6)[0],
        "chain64": lambda: sg.gen_chain(64),
    }[name]()
    path = _write_game(tmp_path, game)
    lp_path, cnf_path, json_path = (tmp_path / f for f in ("i.lp", "i.cnf", "r.json"))
    assert main(
        ["extract", path, "--method", "ilp", "--runs", "1", "--json", str(json_path),
         "--dump-lp", str(lp_path), "--dump-cnf", str(cnf_path)]
    ) == 0
    trial = json.loads(json_path.read_text())["trials"][0]
    lp_text, cnf_text = lp_path.read_text(), cnf_path.read_text()
    offset = _dump_offset(lp_text)
    assert _dump_offset(cnf_text) == offset
    bound = math.ceil(_dump_lp_optimum(lp_text) + offset - 1e-9)
    expected = {"adversarial4": (8, 8), "gap40": (48, 49), "chain64": (64, 64)}
    assert (bound, trial["density"]) == expected[name]

    choice = dict(
        line.split()[1:] for line in trial["strategy"].splitlines()
        if line.startswith("choice ")
    )
    var_pos = {}
    clauses = []
    for line in cnf_text.splitlines():
        if line.startswith("c var "):
            _, _, var, _, _, pos = line.split()
            var_pos[int(var)] = pos
        elif not line.startswith(("c", "p")):
            clauses.append([int(lit) for lit in line.split()[:-1]])
    visited = _visited(game, choice)
    mp = sg.most_permissive(game, sg.compute_winning_region(game))
    pruned, _ = sg.lp.pruned_context(game, mp)
    forced = set(pruned.pos_names) - set(var_pos.values())
    assert visited <= set(pruned.pos_names) and forced <= visited
    assert sum(pruned.pos_owner[pruned.pos_index[p]] == 0 for p in forced) == offset
    true = {var for var, pos in var_pos.items() if pos in visited}
    assert bool(clauses) == (name != "chain64")
    assert all(any((lit > 0) == (abs(lit) in true) for lit in clause) for clause in clauses)


def test_timeout_reports_to(tmp_path, capsys):
    # The exact engines always have an incumbent; smart has none before
    # its local search ends, so its expired deadline is a t/o.
    path = _write_game(tmp_path, sg.gen_adversarial(3))
    code = main(
        ["extract", path, "--method", "smart", "--runs", "1",
         "--timeout-secs", "0.000001"]
    )
    assert code == 3
    assert "t/o" in capsys.readouterr().out


@pytest.mark.parametrize("timeout", ["0", "-1"])
def test_non_positive_timeout_runs_without_a_deadline(timeout, tmp_path, capsys, monkeypatch):
    deadlines = []
    real = cli.ilp_exact_extract

    def spy(game, mp, *, deadline):
        deadlines.append(deadline)
        return real(game, mp, deadline=deadline)

    monkeypatch.setattr(cli, "ilp_exact_extract", spy)
    path = _write_game(tmp_path, sg.gen_random(63, 6, 6, 3))
    code = main(["extract", path, "--method", "ilp", "--runs", "2", "--timeout-secs", timeout])
    assert code == 0
    assert deadlines == [None, None]
    out = capsys.readouterr().out
    assert len(re.findall(r"^trial seed=\d density=4 time=\S+s$", out, re.M)) == 2


def test_deadline_after_warm_start_prints_uncertified_density(
    tmp_path, capsys, monkeypatch
):
    # The engine's clock reads past the deadline before the first child
    # LP; the trial keeps the all-ones incumbent's density 4, uncertified.
    monkeypatch.setattr(sg.ilp, "time", types.SimpleNamespace(monotonic=lambda: math.inf))
    path = _write_game(tmp_path, sg.gen_random(63, 6, 6, 3))
    code = main(["extract", path, "--method", "ilp", "--timeout-secs", "3600"])
    assert code == 3
    out = capsys.readouterr().out
    assert re.search(r"^trial seed=0 density=4 time=\S+s \(uncertified\)$", out, re.M)
    assert "t/o" not in out and "density mean=4.0000" in out


@pytest.mark.parametrize(
    "args",
    [
        ["bench", "{dir}", "--methods", "smart", "--runs", "0"],
        ["extract", "{game}", "--method", "smart", "--runs", "0"],
        ["bench", "{dir}", "--methods", "smart", "--timeout-secs", "nan"],
        ["extract", "{game}", "--method", "smart", "--timeout-secs", "nan"],
    ],
)
def test_bad_runs_or_timeout_is_usage_error(args, tmp_path, capsys):
    path = _write_game(tmp_path, sg.gen_chain(3))
    args = [a.format(dir=tmp_path, game=path) for a in args]
    with pytest.raises(SystemExit) as err:
        main(args)
    assert err.value.code == 1
    assert capsys.readouterr().out == ""


def test_all_timed_out_reports_have_no_nan(tmp_path, capsys):
    path = _write_game(tmp_path, sg.gen_adversarial(3))
    json_path = tmp_path / "report.json"
    csv_path = tmp_path / "report.csv"
    code = main(
        ["extract", path, "--method", "smart", "--runs", "2",
         "--timeout-secs", "0.000001",
         "--json", str(json_path), "--csv", str(csv_path)]
    )
    assert code == 3
    out = capsys.readouterr().out
    assert "density mean=n/a stddev=n/a" in out
    assert "time mean=n/a stddev=n/a" in out

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    report = json.loads(json_path.read_text(), parse_constant=reject)
    for key in ("density_mean", "density_stddev", "time_mean_secs", "time_stddev_secs"):
        assert report[key] is None
    assert [t["certified"] for t in report["trials"]] == [False, False]
    with open(csv_path) as fh:
        summary = list(csv.DictReader(fh))[-1]
    assert summary["row"] == "summary"
    for key in ("density", "time_secs", "density_stddev", "time_stddev"):
        assert summary[key] == ""


def test_bench_empty_corpus(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    assert main(["bench", str(corpus)]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 1  # header only
    assert out[0].startswith("benchmark,")


def test_bench_table(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "chain3.txt").write_bytes(sg.serialize_game(sg.gen_chain(3)))
    (corpus / "adv1.txt").write_bytes(sg.serialize_game(sg.gen_adversarial(1)))
    (corpus / "losing.txt").write_bytes(sg.serialize_game(_losing_game()))
    json_path = tmp_path / "bench.json"
    csv_path = tmp_path / "bench.csv"
    code = main(
        ["bench", str(corpus), "--methods", "smart,ilp", "--runs", "2",
         "--json", str(json_path), "--csv", str(csv_path)]
    )
    assert code == 0
    table = json.loads(json_path.read_text())
    rows = {r["benchmark"]: r for r in table["rows"]}
    assert rows["chain3"]["ilp_density_mean"] == 3
    assert rows["adv1"]["ilp_density_mean"] == 2
    assert rows["losing"]["ilp_density_mean"] == "losing"
    with open(csv_path) as fh:
        csv_rows = {r["benchmark"]: r for r in csv.DictReader(fh)}
    for name, row in rows.items():
        for key, value in row.items():
            assert str(value) == csv_rows[name][key]


def test_bench_exact_cells_match_oracle(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    games = {f"chain{n}": sg.gen_chain(n) for n in (2, 4)}
    games.update({f"adv{i}": sg.gen_adversarial(i) for i in (1, 2)})
    for name, game in games.items():
        (corpus / f"{name}.txt").write_bytes(sg.serialize_game(game))
    json_path = tmp_path / "bench.json"
    assert main(
        ["bench", str(corpus), "--methods", "ilp,sat", "--runs", "2",
         "--json", str(json_path)]
    ) == 0
    rows = {r["benchmark"]: r for r in json.loads(json_path.read_text())["rows"]}
    for name, game in games.items():
        mp = sg.most_permissive(game, sg.compute_winning_region(game))
        best, _ = sg.brute_force_min_density(game, mp)
        assert rows[name]["ilp_density_mean"] == best
        assert rows[name]["sat_density_mean"] == best
        assert rows[name]["ilp_density_stddev"] == 0.0
        assert rows[name]["sat_density_stddev"] == 0.0


def test_bench_shows_an_uncertified_density(tmp_path):
    # An expired deadline leaves ilp and sat with their valid all-ones
    # incumbent: bench prints its density and flags it uncertified.  smart
    # has no strategy before its search ends, so its trials raise: t/o,
    # and a timed-out trial is not certified either.
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "r63.txt").write_bytes(sg.serialize_game(sg.gen_random(63, 6, 6, 3)))
    json_path = tmp_path / "bench.json"
    assert main(
        ["bench", str(corpus), "--methods", "smart,ilp,sat", "--runs", "2",
         "--timeout-secs", "0.000001", "--json", str(json_path)]
    ) == 0
    table = json.loads(json_path.read_text())
    row = table["rows"][0]
    assert (row["smart_density_mean"], row["smart_certified"]) == ("t/o", False)
    for m in ("ilp", "sat"):
        assert f"{m}_certified" in table["columns"]
        assert (row[f"{m}_density_mean"], row[f"{m}_certified"]) == (4, False)


def test_an_invalid_strategy_is_reported_invalid(tmp_path, capsys, monkeypatch):
    # An extractor that returns the empty strategy leaves init undefined:
    # extract marks both trials invalid and exits 4, and bench writes
    # its table with invalid cells, then exits 4.
    monkeypatch.setattr(cli, "random_extract", lambda game, mp, seed: sg.PositionalStrategy({}))
    game = sg.gen_adversarial(2)
    path = _write_game(tmp_path, game)
    json_path = tmp_path / "report.json"
    code = main(["extract", path, "--method", "random", "--runs", "2", "--json", str(json_path)])
    assert code == 4
    out = capsys.readouterr().out
    assert len(re.findall(r"^trial seed=\d density=\S+ time=\S+s \(invalid\)$", out, re.M)) == 2
    assert "density mean=n/a" in out and "choice " not in out
    assert [t["valid"] for t in json.loads(json_path.read_text())["trials"]] == [False, False]

    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "adv2.txt").write_bytes(sg.serialize_game(game))
    json_path = tmp_path / "bench.json"
    code = main(
        ["bench", str(corpus), "--methods", "random,ilp", "--runs", "2", "--json", str(json_path)]
    )
    assert code == 4
    row = json.loads(json_path.read_text())["rows"][0]
    for k in ("density_mean", "time_mean_secs", "density_stddev"):
        assert row[f"random_{k}"] == "invalid"
    assert row["ilp_density_mean"] == 4


def test_a_wrongly_claimed_density_is_invalid(tmp_path, capsys, monkeypatch):
    # The strategy validates, but the engine claims one position fewer
    # than it reaches: the trial is invalid, and 4 takes precedence over
    # the 3 of an uncertified result.
    real = cli.ilp_exact_extract

    def claims_less(*args, **kwargs):
        result = real(*args, **kwargs)
        return dataclasses.replace(result, density=result.density - 1, certified=False)

    monkeypatch.setattr(cli, "ilp_exact_extract", claims_less)
    path = _write_game(tmp_path, sg.gen_adversarial(2))
    assert main(["extract", path, "--method", "ilp"]) == 4
    out = capsys.readouterr().out
    assert re.search(r"^trial seed=0 density=4 time=\S+s \(uncertified\) \(invalid\)$", out, re.M)


def test_bench_rejects_unknown_method(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    assert main(["bench", str(corpus), "--methods", "magic"]) == 1


@pytest.mark.parametrize(
    "corpus, methods",
    [
        ("missing", "smart"),  # no such path
        ("game.txt", "smart"),  # a game file, not a directory
        ("corpus", "smart,smart"),  # would write duplicate columns
        ("corpus", ","),  # no method at all
    ],
)
def test_bench_rejects_bad_corpus_or_methods(corpus, methods, tmp_path, capsys):
    (tmp_path / "corpus").mkdir()
    _write_game(tmp_path / "corpus", sg.gen_chain(3))
    _write_game(tmp_path, sg.gen_chain(3))
    json_path = tmp_path / "bench.json"
    code = main(
        ["bench", str(tmp_path / corpus), "--methods", methods, "--runs", "1",
         "--json", str(json_path)]
    )
    assert code == 1
    out, err = capsys.readouterr()
    assert out == "" and err != ""
    assert not json_path.exists()


def test_gen_writes_parseable_games(tmp_path):
    out = tmp_path / "g.txt"
    assert main(["gen", "chain", "4", "--out", str(out)]) == 0
    game = sg.parse_game(out.read_bytes())
    assert len(game.positions0) == 4
    assert main(["gen", "adversarial", "2", "--out", str(out)]) == 0
    assert sg.parse_game(out.read_bytes()) == sg.gen_adversarial(2)
    assert main(
        ["gen", "random", "--seed", "5", "--n0", "4", "--n1", "3", "--k", "2",
         "--out", str(out)]
    ) == 0
    assert sg.parse_game(out.read_bytes()) == sg.gen_random(5, 4, 3, 2)


@pytest.mark.parametrize(
    "args",
    [
        ["chain", "0"],
        ["adversarial", "0"],
        ["random", "--seed", "1", "--n0", "0", "--n1", "3", "--k", "2"],
    ],
)
def test_gen_out_of_range_size_is_usage_error(args, capsys):
    assert main(["gen", *args]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "requires" in captured.err
    assert captured.out == ""


def test_gen_prints_to_stdout(capsys):
    assert main(["gen", "chain", "2"]) == 0
    out = capsys.readouterr().out
    assert sg.parse_game(out.encode()) == sg.gen_chain(2)


def test_oracle_subcommand(tmp_path, capsys):
    path = _write_game(tmp_path, sg.gen_adversarial(2))
    assert main(["oracle", path]) == 0
    out = capsys.readouterr().out
    assert "minimum_density 4" in out
    assert "local_optimum_densities [4, 5, 6]" in out
    assert hashlib.sha256(out.encode()).hexdigest()[:12] == "e8efc92f043c"
    # r172's 20 winning player-0 positions exceed the guard, but only 14
    # of them are reachable.
    path = _write_game(tmp_path, sg.gen_random(172, 30, 30, 3))
    assert main(["oracle", path]) == 0
    out = capsys.readouterr().out
    assert out.startswith("minimum_density 10\n")
    assert out.endswith("local_optimum_densities [10]\n")
    # adversarial 4 passes the brute-force guard, not the local-optima
    # one, so nothing reaches stdout.
    path = _write_game(tmp_path, sg.gen_adversarial(4))
    assert main(["oracle", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "24 reachable winning" in captured.err


_PINNED_GAMES = {
    "chain64": ["chain", "64"],
    "adversarial8": ["adversarial", "8"],
    "random0": ["random", "--seed", "0", "--n0", "50", "--n1", "50", "--k", "3"],
}


def _pinned_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _pinned_outputs(tmp_path, capsys) -> dict[str, str]:
    """Digests of the seeded output of ``gen``, ``solve`` and ``extract
    --runs 4 --json`` for every method, with timings and temporary paths
    taken out."""
    digests = {}
    for label, gen_args in _PINNED_GAMES.items():
        path = tmp_path / f"{label}.txt"
        assert main(["gen", *gen_args, "--out", str(path)]) == 0
        digests[f"{label} gen"] = _pinned_digest(path.read_text())
        code = main(["solve", str(path)])
        digests[f"{label} solve"] = _pinned_digest(f"{code}\n{capsys.readouterr().out}")
        for method in CLI_METHODS:
            json_path = tmp_path / f"{label}-{method}.json"
            code = main(
                ["extract", str(path), "--method", method, "--runs", "4",
                 "--json", str(json_path)]
            )
            out = capsys.readouterr().out
            out = re.sub(r" time=\S+", "", out)
            out = re.sub(r"^time mean=.*\n", "", out, flags=re.M)
            report = json.loads(json_path.read_text())
            for trial in report["trials"]:
                del trial["time_secs"]
            del report["game"], report["time_mean_secs"], report["time_stddev_secs"]
            digests[f"{label} {method}"] = _pinned_digest(
                f"{code}\n{out}{json.dumps(report, sort_keys=True)}"
            )
    return digests


#: Recorded before the game model moved to interned index arrays; any
#: change in seeded output, strategies or statistics shows here.
PINNED_CLI_DIGESTS = {
    "adversarial8 gen": "f2aafe6ae7c6c724",
    "adversarial8 ilp": "8e6d289a0427f846",
    "adversarial8 random": "bb717577ef1b8b18",
    "adversarial8 replp": "5a73773a09297da9",
    "adversarial8 sat": "7721adbc7d1a8006",
    "adversarial8 smart": "de59469036001d4a",
    "adversarial8 solve": "4b0d5fc5367bba7e",
    "chain64 gen": "a6c9044ab2ef6b80",
    "chain64 ilp": "cc0c0c3f54666462",
    "chain64 random": "f109ff43768191ab",
    "chain64 replp": "ad03ea1267ed7ae4",
    "chain64 sat": "93f3b007468c3df2",
    "chain64 smart": "a89e8a7d4298ddad",
    "chain64 solve": "d758355c3267fb8b",
    "random0 gen": "63e9d8856be5313c",
    "random0 ilp": "e136c72ec7daccdf",
    "random0 random": "b3bd8ac1aaa543ff",
    "random0 replp": "374ce8051023810c",
    "random0 sat": "39ee32fd1fe4e396",
    "random0 smart": "7f4c40ad6144dfd4",
    "random0 solve": "51fc32e420ab65ff",
}


def test_seeded_cli_output_is_pinned(tmp_path, capsys):
    assert _pinned_outputs(tmp_path, capsys) == PINNED_CLI_DIGESTS
