import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import stablecut as sc
from stablecut import acceptance, cli, oracle, stable
from stablecut.cli import main
from stablecut.errors import PreconditionError
from stablecut.instance import LOAD_MAX_N
from stablecut.oracle import subset_scan_minima


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def write_c4(tmp_path):
    inst = sc.Instance([[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]])
    path = tmp_path / "c4.json"
    sc.save_instance(inst, path)
    return str(path)


def test_gen_writes_instance_and_sidecar(tmp_path, capsys):
    out_path = str(tmp_path / "inst.json")
    code, out = run(capsys, "gen", "bipartite-noise", "--n", "10", "--gamma", "6",
                    "--seed", "3", "-o", out_path)
    assert code == 0
    summary = json.loads(out)
    assert summary["n"] == 10 and summary["claims"]["gamma"] >= 6.0
    inst = sc.load_instance(out_path)
    sidecar = json.loads(open(summary["sidecar"]).read())
    cut = sc.cut_from_json(sidecar["planted_cut"])
    assert sc.cut_stability_gamma(inst, cut) >= 6.0


@pytest.mark.parametrize("argv,n", [
    (["planted-partition", "--n", "10", "--seed", "1"], 10),
    (["bipartite-noise", "--seed", "1"], 8),
    (["euclidean", "--n", "6", "--dim", "3", "--seed", "1"], 6),
    (["tightness", "--pairs", "3"], 12),
    (["matching-eps", "--pairs", "3"], 6),
    (["stable-not-distinguished", "--pairs", "3"], 6),
])
def test_gen_every_family(tmp_path, capsys, argv, n):
    out_path = str(tmp_path / "inst.json")
    code, out = run(capsys, "gen", *argv, "-o", out_path)
    assert code == 0
    assert json.loads(out)["n"] == sc.load_instance(out_path).n == n
    sidecar = Path(out_path + ".planted.json")
    if argv[0] == "matching-eps":  # the one family without a planted cut
        assert not sidecar.exists()
    else:
        assert sc.cut_from_json(json.loads(sidecar.read_text())["planted_cut"]).n == n


def test_gen_refuses_a_sidecar_without_a_planted_cut(tmp_path, capsys):
    # matching-eps has no planted cut: --sidecar is refused before any file is written
    out_path, side_path = tmp_path / "me.json", tmp_path / "side.json"
    code = main(["gen", "matching-eps", "--pairs", "3", "-o", str(out_path),
                 "--sidecar", str(side_path)])
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and err.count("\n") == 1
    assert json.loads(err) == {"error": "matching-eps has no planted cut to write to --sidecar",
                               "kind": "ParameterError"}
    assert not out_path.exists() and not side_path.exists()


@pytest.mark.parametrize("argv,flag", [
    (["tightness", "--n", "50", "--pairs", "2"], "n"),
    (["stable-not-distinguished", "--gamma", "2"], "gamma"),
    (["matching-eps", "--seed", "0"], "seed"),
    (["planted-partition", "--eps", "0.1", "--seed", "1"], "eps"),
    (["euclidean", "--p", "0.5", "--seed", "1"], "p"),
])
def test_gen_refuses_a_flag_its_family_does_not_read(tmp_path, capsys, argv, flag):
    out_path = tmp_path / "inst.json"
    code = main(["gen", *argv, "-o", str(out_path)])
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and err.count("\n") == 1
    assert json.loads(err) == {"error": f"gen {argv[0]} does not read --{flag}",
                               "kind": "ParameterError"}
    assert list(tmp_path.iterdir()) == []


def test_gen_needs_a_seed_only_for_the_seeded_families(tmp_path, capsys):
    for family in ("planted-partition", "bipartite-noise", "euclidean"):
        code = main(["gen", family, "-o", str(tmp_path / "inst.json")])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert json.loads(err) == {"error": f"gen {family} needs --seed", "kind": "ParameterError"}
        assert list(tmp_path.iterdir()) == []
    for family in ("tightness", "matching-eps", "stable-not-distinguished"):
        assert run(capsys, "gen", family, "-o", str(tmp_path / f"{family}.json"))[0] == 0


@pytest.mark.parametrize("argv,n", [
    (["planted-partition", "--n", str(LOAD_MAX_N + 4), "--p", "0.01", "--q", "0", "--seed", "1"],
     LOAD_MAX_N + 4),
    (["tightness", "--pairs", str(LOAD_MAX_N // 4 + 1)], LOAD_MAX_N + 4),
    (["stable-not-distinguished", "--pairs", str(LOAD_MAX_N // 2 + 1)], LOAD_MAX_N + 2),
])
def test_gen_above_the_load_cap_exits_2_without_writing(tmp_path, capsys, monkeypatch, argv, n):
    # every command refuses a file above LOAD_MAX_N, so gen does not write one;
    # the generator never runs
    for family, (_, reads) in cli._GEN_FAMILIES.items():
        monkeypatch.setitem(cli._GEN_FAMILIES, family, (None, reads))
    code = main(["gen", *argv, "-o", str(tmp_path / "big.json")])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": f"instance files are capped at n <= {LOAD_MAX_N}, got {n}",
                               "kind": "SizeLimitError"}
    assert list(tmp_path.iterdir()) == []


def test_gen_refuses_a_sidecar_that_is_the_output(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for out_path, side_path in (("same.json", "same.json"), ("same.json", "./sub/../same.json")):
        (tmp_path / "sub").mkdir(exist_ok=True)
        code = main(["gen", "tightness", "-o", out_path, "--sidecar", side_path])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert json.loads(err) == {"error": "--sidecar and -o name the same file",
                                   "kind": "ParameterError"}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["sub"]


def test_gen_refuses_a_sidecar_it_cannot_open_before_writing(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    for side_path in ("nodir/s.json", "sub", str(tmp_path / "nodir" / "s.json")):
        code = main(["gen", "tightness", "-o", "o.json", "--sidecar", side_path])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert json.loads(err) == {
            "error": f"--sidecar {side_path} is not a file in an existing directory",
            "kind": "ParameterError"}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["sub"]
        assert list((tmp_path / "sub").iterdir()) == []


def test_gen_gamma_that_does_not_parse_exits_2(tmp_path, capsys):
    for argv in (["gen", "bipartite-noise", "--gamma", "six", "--seed", "1", "-o",
                  str(tmp_path / "b.json")],
                 ["solve", write_c4(tmp_path), "--algo", "sqrt-stable", "--gamma", "six"]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
    assert not (tmp_path / "b.json").exists()


def test_gen_infinite_gamma_serializes_as_string(tmp_path, capsys):
    out_path = str(tmp_path / "inst.json")
    code, out = run(capsys, "gen", "bipartite-noise", "--n", "8", "--gamma", "inf",
                    "--seed", "1", "-o", out_path)
    assert code == 0
    assert json.loads(out)["claims"]["gamma"] == "inf"


def test_solve_brute_and_oracle_flags(tmp_path, capsys):
    c4 = write_c4(tmp_path)
    cut_out = str(tmp_path / "cut.json")
    code, out = run(capsys, "solve", c4, "--algo", "brute", "--with-oracle",
                    "--cut-out", cut_out)
    assert code == 0
    report = json.loads(out)
    assert report["weight"] == 4.0
    assert report["matched_oracle"] is True
    assert report["wall_time_ms"] is None  # deterministic by default
    saved = sc.load_cut(cut_out)
    assert sc.cut_weight(sc.load_instance(c4), saved) == 4.0


@pytest.mark.parametrize("argv", [
    ("--algo", "ball"),
    ("--algo", "warmup-2n"),
    ("--algo", "spanning-tree", "--reps", "5", "--seed", "2"),
    ("--algo", "gw", "--trials", "8", "--seed", "1"),
])
def test_solve_algorithms_agree_with_oracle(tmp_path, capsys, argv):
    planted = sc.gen_euclidean_metric(6, 2, 8.0, seed=5)
    path = str(tmp_path / "e6.json")
    sc.save_instance(planted.instance, path)
    code, out = run(capsys, "solve", path, *argv, "--with-oracle")
    assert code == 0
    assert json.loads(out)["matched_oracle"] is True


def test_solve_sqrt_stable_on_stable_instance(tmp_path, capsys):
    planted = sc.gen_stable_bipartite_noise(10, 14.0, seed=6)
    path = str(tmp_path / "b10.json")
    sc.save_instance(planted.instance, path)
    code, out = run(capsys, "solve", path, "--algo", "sqrt-stable", "--auto",
                    "--with-oracle")
    assert code == 0
    assert json.loads(out)["matched_oracle"] is True


def test_solve_metric_dense_seeded(tmp_path, capsys):
    planted = sc.gen_euclidean_metric(6, 2, 8.0, seed=5)
    path = str(tmp_path / "e6.json")
    cut_path = str(tmp_path / "e6.cut.json")
    sc.save_instance(planted.instance, path)
    sc.save_cut(planted.planted_cut, cut_path)
    code, out = run(capsys, "solve", path, "--algo", "metric-dense", "--m", "8",
                    "--mode", "seeded", "--seed-cut", cut_path, "--seed", "0",
                    "--with-oracle")
    assert code == 0
    assert json.loads(out)["matched_oracle"] is True


def test_solve_dense_seeded_via_files(tmp_path, capsys):
    planted = sc.gen_stable_bipartite_noise(12, 8.0, seed=9)
    inst_path = str(tmp_path / "b.json")
    cut_path = str(tmp_path / "b.cut.json")
    sc.save_instance(planted.instance, inst_path)
    sc.save_cut(planted.planted_cut, cut_path)
    code, out = run(capsys, "solve", inst_path, "--algo", "dense", "--m", "12",
                    "--mode", "seeded", "--seed-cut", cut_path, "--seed", "3",
                    "--with-oracle")
    assert code == 0
    assert json.loads(out)["matched_oracle"] is True


def test_verify_reports_stability(tmp_path, capsys):
    c4 = write_c4(tmp_path)
    code, out = run(capsys, "verify", c4)
    assert code == 0
    report = json.loads(out)
    assert report["gamma"] == "inf" and report["alpha"] == 0.5
    assert report["is_unique_maxcut"] is True

    cut_path = str(tmp_path / "cut.json")
    sc.save_cut(sc.Cut([True, True, False, False]), cut_path)
    code, out = run(capsys, "verify", c4, "--cut", cut_path)
    assert code == 0
    # non-maximal cut: the subset {0, 3} meets no cut edge, so gamma is 0
    assert json.loads(out)["gamma"] == 0.0


def test_verify_clamps_a_tied_optimum_to_gamma_one(tmp_path, capsys):
    path = str(tmp_path / "m.json")
    assert run(capsys, "gen", "matching-eps", "--pairs", "3", "--eps", "0.1", "-o", path)[0] == 0
    inst = sc.load_instance(path)
    opt, _, count = sc.brute_force_maxcut(inst)
    raw = subset_scan_minima(inst.weights, opt.delta)[0]
    assert count > 1 and raw < 1.0  # the raw scan reads 0.9999999999999989 here
    code, out = run(capsys, "verify", path)
    assert code == 0
    report = json.loads(out)
    assert report["is_unique_maxcut"] is False
    assert report["gamma"] == 1.0 == sc.instance_stability(inst).gamma


def test_verify_cut_matches_separate_scans_on_every_family(tmp_path, capsys):
    # verify --cut tallies the optima from its one subset scan; its report
    # equals the max-cut scan plus the subset scan run one after the other
    rng = np.random.default_rng(16)
    pool = [sc.gen_planted_partition(16, 0.6, 0.4, 1), sc.gen_stable_bipartite_noise(14, 3.0, 2),
            sc.gen_euclidean_metric(12, 2, 1.5, 3), sc.gen_tightness_example(3),
            sc.gen_infinite_stable_not_distinguished(5, 0.01)]
    pool = [(p.instance, p.planted_cut) for p in pool]
    pool += [(sc.gen_matching_epsilon(8, 0.1), sc.Cut(np.arange(16) % 2 == 0))]
    for k, (inst, planted) in enumerate(pool):
        inst_path, cut_path = str(tmp_path / f"i{k}.json"), str(tmp_path / f"c{k}.json")
        sc.save_instance(inst, inst_path)
        for cut in (planted, sc.Cut(rng.random(inst.n) < 0.5)):
            sc.save_cut(cut, cut_path)
            code, out = run(capsys, "verify", inst_path, "--cut", cut_path)
            assert code == 0
            _, _, count = sc.brute_force_maxcut(inst)
            gamma, alpha, cheeger = subset_scan_minima(inst.weights, cut.delta)
            assert json.loads(out) == json.loads(json.dumps(cli._jsonable({
                "gamma": gamma, "gamma_local": sc.local_stability_gamma(inst, cut),
                "alpha": alpha, "cheeger": cheeger, "is_unique_maxcut": count == 1,
                "cut": sc.cut_to_json(cut), "cut_weight": sc.cut_weight(inst, cut)})))


def test_verify_rejects_non_cut(tmp_path, capsys):
    c4 = write_c4(tmp_path)
    bad = tmp_path / "bad.json"
    for text in ('{"side": [1, 1, 1, 1]}', '{"side": [2, 0, -1, 1]}', '{"side": [1, 0, 1]}'):
        bad.write_text(text)
        code, _ = run(capsys, "verify", c4, "--cut", str(bad))
        assert code == 2


def test_verify_rejects_a_wrong_size_cut_before_the_scan(tmp_path, capsys, monkeypatch):
    def no_scan(*args):
        raise AssertionError("a scan ran on a cut of the wrong size")

    # the oracle's own names, which its report functions call
    for scan in ("brute_force_maxcut", "subset_scan_minima", "_minima"):
        monkeypatch.setattr(oracle, scan, no_scan)
    short = tmp_path / "short.json"
    short.write_text('{"side": [1, 0, 1]}')
    code = main(["verify", write_c4(tmp_path), "--cut", str(short)])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "cut has 3 vertices, instance has 4"


def test_deeply_nested_files_exit_2(tmp_path, capsys):
    # the JSON parser recurses once per level; a file past its depth is
    # malformed input (exit 2), not a declined solve (exit 1)
    depth = 200_000
    deep_inst, deep_cut = tmp_path / "deep.json", tmp_path / "deep.cut.json"
    deep_inst.write_text('{"n": 2, "weights": ' + "[" * depth + "]" * depth + "}")
    deep_cut.write_text('{"side": ' + "[" * depth + "]" * depth + "}")
    c4 = write_c4(tmp_path)
    for argv, kind in ((["verify", str(deep_inst)], "InvalidInstanceError"),
                       (["verify", c4, "--cut", str(deep_cut)], "InvalidCutError"),
                       (["certify", c4, str(deep_cut), "--spectral"], "InvalidCutError"),
                       (["solve", c4, "--algo", "dense", "--m", "2", "--mode", "seeded",
                         "--seed-cut", str(deep_cut)], "InvalidCutError")):
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert json.loads(err)["kind"] == kind


def test_malformed_instance_exits_2(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    for text in ("{not json", '{"n": 3.9, "weights": [[0, 1, 1.0], [1, 2, 1.0]]}',
                 '{"n": 3, "weights": [[0, 1.7, 1.0], [1, 2, 1.0]]}',
                 '{"n": 2, "weights": [[0, 1, 1%s]]}' % ("0" * 400),
                 '{"n": 2, "weights": [[0, 1, 1e400]]}',
                 '{"n": 2, "weights": [[0, 1, NaN]]}',
                 '{"n": 2, "weights": [[0, 1, -Infinity]]}'):
        broken.write_text(text)
        code, _ = run(capsys, "solve", str(broken), "--algo", "brute")
        assert code == 2


def test_too_few_entries_to_connect_exit_2_before_allocating(tmp_path, capsys):
    # an n x n matrix at n = 10**7 would fail its allocation; too few pairs to
    # connect the vertices is a malformed file, which exits 2, not 1
    path = tmp_path / "sparse.json"
    path.write_text('{"n": 10000000, "weights": [[0, 1, 1.0]]}')
    code = main(["solve", str(path), "--algo", "brute"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "positive-weight support graph must be connected"


def test_instance_above_the_load_cap_exits_2_before_allocating(tmp_path, capsys):
    # a path on 100,000 vertices is a valid document whose n x n matrix would
    # fail its allocation; the loader refuses it as too large, with exit 2, not 1
    n = 100_000
    path = tmp_path / "path.json"
    path.write_text(json.dumps({"n": n, "weights": [[i, i + 1, 1.0] for i in range(n - 1)]}))
    code = main(["solve", str(path), "--algo", "brute"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": f"instance files are capped at n <= {LOAD_MAX_N}, got {n}",
                               "kind": "SizeLimitError"}


def test_split_above_the_load_cap_exits_2_without_writing(tmp_path, capsys):
    # this 46-point metric splits into 4,207 vertices, a file the loader would refuse
    inst_path = tmp_path / "eu46.json"
    sc.save_instance(sc.gen_euclidean_metric(46, 2, 4.0, 1).instance, inst_path)
    split_path, map_path = tmp_path / "split.json", tmp_path / "map.json"
    code = main(["split", str(inst_path), "-o", str(split_path), "--map", str(map_path)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": f"the split has 4207 vertices, above LOAD_MAX_N = {LOAD_MAX_N}",
                               "kind": "SizeLimitError"}
    assert not split_path.exists() and not map_path.exists()


def test_weights_whose_total_overflows_exit_2(tmp_path, capsys):
    # each weight is finite; their total is not
    path = tmp_path / "overflow.json"
    path.write_text('{"n": 3, "weights": [[0, 1, 1e308], [1, 2, 1e308], [0, 2, 1e308]]}')
    for argv in (["verify", str(path)], ["solve", str(path), "--algo", "brute"]):
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert json.loads(err)["kind"] == "InvalidInstanceError"  # one JSON line, no warning


def test_gw_on_weights_whose_row_updates_overflow_exits_2(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text('{"n": 3, "weights": [[0, 1, 2.9e307], [0, 2, 2.9e307], [1, 2, 2.9e307]]}')
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow warning before the error line
        code = main(["solve", str(path), "--algo", "gw"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert json.loads(err)["kind"] == "ParameterError"  # one JSON line


@pytest.mark.parametrize("argv", [
    ("--gamma", "1.01"),  # ceil(3 / bound) is about 2e19 at n=64
    ("--reps", str(stable.MAX_TREE_REPETITIONS + 1)),
])
def test_spanning_tree_above_the_repetition_cap_exits_2(tmp_path, capsys, argv):
    path = str(tmp_path / "b64.json")
    sc.save_instance(sc.gen_stable_bipartite_noise(64, 8.0, seed=1).instance, path)
    code = main(["solve", path, "--algo", "spanning-tree", "--seed", "1", *argv])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert json.loads(err)["kind"] == "ParameterError"


def test_spanning_tree_with_nan_gamma_exits_2(tmp_path, capsys):
    path = str(tmp_path / "b8.json")
    sc.save_instance(sc.gen_stable_bipartite_noise(8, 8.0, seed=1).instance, path)
    code = main(["solve", path, "--algo", "spanning-tree", "--gamma", "nan"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "gamma must be >= 1", "kind": "ParameterError"}


@pytest.mark.parametrize("sep", ["nan", "inf"])
def test_gen_euclidean_with_a_separation_that_is_not_finite_exits_2(tmp_path, capsys, sep):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning before the error line
        code = main(["gen", "euclidean", "--n", "4", "--sep", sep, "--seed", "1",
                     "-o", str(tmp_path / "e.json")])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "separation must be finite and positive",
                               "kind": "ParameterError"}


@pytest.mark.parametrize("argv", [
    ("--C", "inf", "--eps", "0.1"),
    ("--C", "1e200", "--eps", "1"),  # the sample size overflows float
    ("--C", "nan", "--eps", "0.1"),
    ("--C", "2", "--eps", "nan"),
    ("--m", "4", "--mode", "nonsense"),
    ("--m", "4", "--mode", "seeded"),  # no --seed-cut
    ("--m", "4", "--mode", "random:8", "--seed-cut", "CUT"),
    ("--m", "4", "--seed-cut", "CUT"),  # the default mode is enumerate
])
def test_bad_dense_settings_exit_2(tmp_path, capsys, argv):
    planted = sc.gen_stable_bipartite_noise(12, 8.0, seed=9)
    path, cut_path = str(tmp_path / "b12.json"), str(tmp_path / "b12.cut.json")
    sc.save_instance(planted.instance, path)
    sc.save_cut(planted.planted_cut, cut_path)
    argv = [cut_path if a == "CUT" else a for a in argv]
    code = main(["solve", path, "--algo", "dense", *argv])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert json.loads(err)["kind"] == "ParameterError"  # one JSON line


def test_verify_above_the_subset_scan_cap_exits_2(tmp_path, capsys):
    path = str(tmp_path / "k29.json")
    sc.save_instance(sc.Instance(np.ones((29, 29)) - np.eye(29)), path)
    code = main(["verify", path])
    assert code == 2
    assert "capped at n <= 28, got 29" in json.loads(capsys.readouterr().err)["error"]


def test_solver_failure_exits_1(tmp_path, capsys):
    planted = sc.gen_planted_partition(8, 1.0, 0.0, seed=2)
    inst_path = str(tmp_path / "k44.json")
    sc.save_instance(planted.instance, inst_path)
    # lone seeded sample on the True side induces an empty S
    from stablecut.dense import draw_samples
    sample = draw_samples(8, 1, seed=0)[0]
    side = np.zeros(8, dtype=bool)
    side[sample] = True
    cut_path = str(tmp_path / "seed.json")
    sc.save_cut(sc.Cut(side), cut_path)
    code, _ = run(capsys, "solve", inst_path, "--algo", "dense", "--m", "1",
                  "--mode", "seeded", "--seed-cut", cut_path, "--seed", "0")
    assert code == 1


def test_certify_spectral(tmp_path, capsys):
    c4 = write_c4(tmp_path)
    cut_path = str(tmp_path / "cut.json")
    sc.save_cut(sc.Cut([True, False, True, False]), cut_path)
    code, out = run(capsys, "certify", c4, cut_path, "--spectral")
    assert code == 0
    cert = json.loads(out)
    assert cert["psd_rank_certificate"] == "certified"
    assert cert["eigenvalues"] == pytest.approx([0.0, 2.0, 2.0, 4.0], abs=1e-8)
    assert cert["bipolarity_agree"] is True


def test_certify_spectral_with_rounding_level_alpha(tmp_path, capsys):
    # tied optima put the optimum's exact alpha at 0; the subset scan returns
    # 0 (infinite threshold) or a rounding-level positive alpha (~1e-16), whose
    # threshold is finite but huge; neither may crash or meet the condition
    for pairs, eps, finite in (("8", "0.12506055190198623", False),
                               ("5", "0.07619728746098149", True)):
        path = str(tmp_path / f"me{pairs}.json")
        code, _ = run(capsys, "gen", "matching-eps", "--pairs", pairs, "--eps", eps, "-o", path)
        assert code == 0
        cut_path = str(tmp_path / f"opt{pairs}.json")
        code, _ = run(capsys, "solve", path, "--algo", "brute", "--cut-out", cut_path)
        assert code == 0
        code, out = run(capsys, "certify", path, cut_path, "--spectral")
        assert code == 0
        cert = json.loads(out)
        assert cert["meets_alpha_condition"] is False
        if finite:
            assert 0.0 < cert["alpha"] < 1e-12 and cert["alpha_threshold"] != "inf"


def test_split_roundtrip(tmp_path, capsys):
    planted = sc.gen_euclidean_metric(6, 2, 4.0, seed=1)
    inst_path = str(tmp_path / "m.json")
    sc.save_instance(planted.instance, inst_path)
    split_path = str(tmp_path / "split.json")
    map_path = str(tmp_path / "map.json")
    code, out = run(capsys, "split", inst_path, "-o", split_path, "--map", map_path)
    assert code == 0
    summary = json.loads(out)
    split = sc.load_instance(split_path)
    mapping = json.loads(open(map_path).read())
    assert split.n == summary["split_n"] == len(mapping["pi"])
    assert sum(mapping["multiplicity"]) == split.n


def test_timing_flag_populates_wall_time(tmp_path, capsys):
    c4 = write_c4(tmp_path)
    code, out = run(capsys, "solve", c4, "--algo", "brute", "--timing")
    assert code == 0
    assert isinstance(json.loads(out)["wall_time_ms"], float)


def test_output_is_byte_identical_per_seed(tmp_path, capsys):
    c4 = write_c4(tmp_path)
    _, out1 = run(capsys, "solve", c4, "--algo", "gw", "--seed", "7", "--trials", "4")
    _, out2 = run(capsys, "solve", c4, "--algo", "gw", "--seed", "7", "--trials", "4")
    assert out1 == out2


def test_options_do_not_carry_between_calls(tmp_path, capsys):
    # main() reuses one parser per process; an option given to one call must
    # not reach the next, whose output matches a fresh process
    c4 = write_c4(tmp_path)
    code, first = run(capsys, "solve", c4, "--algo", "dense", "--m", "4", "--with-oracle")
    assert code == 0 and json.loads(first)["oracle_weight"] == 4.0
    argv = ["solve", c4, "--algo", "dense", "--C", "1", "--eps", "4"]
    code, second = run(capsys, *argv)
    assert code == 0 and json.loads(second)["oracle_weight"] is None
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    fresh = subprocess.run([sys.executable, "-m", "stablecut", *argv], cwd=tmp_path, env=env,
                           capture_output=True, text=True, timeout=120)
    assert fresh.returncode == 0 and fresh.stdout == second


def test_bench_unknown_suite_exits_2(capsys):
    for suite in ("nope", "gw-gap"):
        with pytest.raises(SystemExit) as err:
            main(["bench", "--suite", suite])
        assert err.value.code == 2


def test_bench_stability_sweep_output_is_pinned(capsys):
    code, out = run(capsys, "bench", "--suite", "stability-sweep", "--seed", "1")
    assert code == 0
    doc = json.loads(out)
    assert [row["success"]["spanning-tree"] for row in doc["rows"]] == [
        "5/10", "10/10", "10/10", "10/10", "10/10"]
    # byte-identical to the output of the one-tree-at-a-time sampler
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "5630fe4602167fe5b41eb47a02c156d6e023b71164619e40db54d1f886b3c163")


def test_bench_seed_defaults_to_the_acceptance_seed(capsys, monkeypatch):
    seeds = []
    monkeypatch.setattr(cli, "_bench_stability_sweep", lambda seed: seeds.append(seed) or {})
    assert main(["bench", "--suite", "stability-sweep"]) == 0
    assert main(["bench", "--suite", "stability-sweep", "--seed", "3"]) == 0
    assert seeds == [acceptance.DEFAULT_SEED, 3] and acceptance.DEFAULT_SEED == 20260801


def test_cli_import_leaves_acceptance_unloaded():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    code = "import sys, stablecut.cli; print('stablecut.acceptance' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_python_m_stablecut_runs_from_a_checkout(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out_path = str(tmp_path / "tight.json")
    done = subprocess.run([sys.executable, "-m", "stablecut", "gen", "tightness", "--pairs", "2",
                           "-o", out_path],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["n"] == sc.load_instance(out_path).n == 8



def test_spectral_outputs_on_float_weights_are_pinned(tmp_path, capsys):
    # certify --spectral, solve --algo gw and the strongly bipolar weights at the
    # maximum cut, bit for bit, on float weights, where the rounding of W + D'
    # shows in the printed digits; eu3's cut is not bipolar, so its perturbation raises
    instances = [("eu1", sc.gen_euclidean_metric(8, 1, 2.0, 1).instance),
                 ("eu2", sc.gen_euclidean_metric(10, 2, 10.0, 2).instance),
                 ("eu3", sc.gen_euclidean_metric(12, 3, 2.0, 3).instance),
                 ("bn4", sc.gen_stable_bipartite_noise(10, 4.0, 4).instance),
                 ("bn20", sc.gen_stable_bipartite_noise(12, 20.0, 5).instance),
                 ("snd4", sc.gen_infinite_stable_not_distinguished(4, 1e-3).instance),
                 ("snd6", sc.gen_infinite_stable_not_distinguished(6, 1e-3).instance)]
    h = hashlib.sha256()
    for name, inst in instances:
        path, cut_path = str(tmp_path / f"{name}.json"), str(tmp_path / f"{name}.cut.json")
        sc.save_instance(inst, path)
        cut, _, _ = sc.brute_force_maxcut(inst)
        sc.save_cut(cut, cut_path)
        code, certify = run(capsys, "certify", path, cut_path, "--spectral", "--seed", "7")
        assert code == 0
        code, solve = run(capsys, "solve", path, "--algo", "gw", "--seed", "7")
        assert code == 0
        try:
            perturbed = sc.strongly_bipolar_perturb(inst, cut, 0.1).weights.tobytes()
        except PreconditionError:
            perturbed = b"not bipolar"
        h.update(certify.encode() + solve.replace(path, name).encode() + perturbed)
    assert h.hexdigest() == "22166ba80a773d9a8a65e702a826359c8ff203a1e8ccbb5d042ddbd89585f8d3"


# every command of the CLI once: gen for each family, solve for each algorithm
# with the oracle, verify with and without a cut, certify and split
GOLDEN_ARGVS = (
    ("gen", "planted-partition", "--n", "10", "--seed", "1", "-o", "pp.json"),
    ("gen", "bipartite-noise", "--n", "10", "--gamma", "40", "--seed", "2", "-o", "bn.json"),
    ("gen", "euclidean", "--n", "8", "--dim", "2", "--seed", "3", "-o", "eu.json"),
    ("gen", "tightness", "--pairs", "2", "-o", "tight.json"),
    ("gen", "matching-eps", "--pairs", "3", "-o", "me.json"),
    ("gen", "stable-not-distinguished", "--pairs", "3", "-o", "snd.json"),
    ("solve", "bn.json", "--algo", "brute", "--with-oracle", "--cut-out", "bn.cut.json"),
    ("solve", "bn.json", "--algo", "dense", "--m", "8", "--seed", "1", "--with-oracle"),
    ("solve", "eu.json", "--algo", "metric-dense", "--m", "8", "--seed", "2", "--with-oracle"),
    ("solve", "eu.json", "--algo", "ball", "--with-oracle"),
    ("solve", "bn.json", "--algo", "sqrt-stable", "--auto", "--with-oracle"),
    ("solve", "bn.json", "--algo", "warmup-2n", "--with-oracle"),
    ("solve", "bn.json", "--algo", "spanning-tree", "--gamma", "40", "--seed", "3", "--with-oracle"),
    ("solve", "pp.json", "--algo", "gw", "--seed", "4", "--with-oracle"),
    ("verify", "tight.json"),
    ("verify", "bn.json", "--cut", "bn.cut.json"),
    ("certify", "bn.json", "bn.cut.json", "--spectral", "--seed", "5"),
    ("split", "eu.json", "-o", "eu.split.json", "--map", "eu.map.json"),
)


def test_cli_outputs_match_a_golden_digest(tmp_path, capsys, monkeypatch):
    # relative paths from one working directory, because solve prints the instance path
    monkeypatch.chdir(tmp_path)
    h = hashlib.sha256()
    for argv in GOLDEN_ARGVS:
        code, out = run(capsys, *argv)
        h.update(f"{code}\n{out}".encode())
    assert h.hexdigest() == "d51f3b39f0bfb6f5aaa60317a8e1327ac68f247e96160266a258c65af3e82788"


def test_cli_written_files_match_a_golden_digest(tmp_path, capsys, monkeypatch):
    # the instances, sidecars, cut-out, split instance and map the golden argvs write
    monkeypatch.chdir(tmp_path)
    for argv in GOLDEN_ARGVS:
        assert run(capsys, *argv)[0] == 0
    h = hashlib.sha256()
    for path in sorted(tmp_path.iterdir()):
        h.update(f"{path.name}\n".encode() + path.read_bytes())
    assert h.hexdigest() == "c12aa39d310ce5c878c64b92669a18ffa165414557adb1bd8b903ffb50082a05"
