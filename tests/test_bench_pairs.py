"""The pair runner's statistics, on synthetic numbers (no benchmark runs)."""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def test_median_and_iqr():
    values = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert bench_pairs.median(values) == 3.0
    assert bench_pairs.iqr(values) == 4.0 - 2.0  # quartiles by linear interpolation
    assert bench_pairs.iqr([1.0, 2.0, 3.0, 4.0]) == pytest.approx(3.25 - 1.75)
    assert bench_pairs.iqr([7.0]) == 0.0


def test_wins_count_strictly_better_pairs_only():
    base = [10.0, 10.0, 10.0, 10.0]
    assert bench_pairs.wins(base, [9.0, 10.0, 11.0, 8.0], "lower") == 2  # the tie counts for neither
    assert bench_pairs.wins(base, [9.0, 10.0, 11.0, 8.0], "higher") == 1
    assert bench_pairs.wins(base, base, "lower") == bench_pairs.wins(base, base, "higher") == 0


def test_gain_needs_nine_of_ten_wins_and_a_gap_above_the_iqr():
    base = [10.0 + 0.1 * k for k in range(10)]  # IQR 0.45
    ten = [value - 1.0 for value in base]
    assert bench_pairs.wins(base, ten, "lower") == 10 and bench_pairs.gain(base, ten, "lower")
    assert not bench_pairs.gain(base, ten, "higher")
    eight = ten[:8] + base[8:]  # two ties
    assert bench_pairs.wins(base, eight, "lower") == 8
    assert not bench_pairs.gain(base, eight, "lower")
    nine = ten[:9] + base[9:]
    assert bench_pairs.gain(base, nine, "lower")
    # every pair won, but by less than the base side's spread
    close = [value - 0.1 for value in base]
    assert bench_pairs.wins(base, close, "lower") == 10
    assert not bench_pairs.gain(base, close, "lower")


def test_bound_verdicts():
    base = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]
    assert bench_pairs.bound_verdict(base, base, "lower", 0.25) == "within"
    assert bench_pairs.bound_verdict(base, [v * 1.2 for v in base], "lower", 0.25) == "within"
    assert bench_pairs.bound_verdict(base, [v * 1.3 for v in base], "lower", 0.25) == "worse"
    assert bench_pairs.bound_verdict(base, [v * 0.7 for v in base], "higher", 0.25) == "worse"
    assert bench_pairs.bound_verdict(base, [v * 1.3 for v in base], "higher", 0.25) == "within"
    # a base IQR wider than the bound: unresolved, unless every change run
    # beats every base run
    wide = [1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0]
    assert bench_pairs.iqr(wide) > 0.25 * bench_pairs.median(wide)
    assert bench_pairs.bound_verdict(wide, wide, "lower", 0.25) == "unresolved"
    assert bench_pairs.bound_verdict(wide, [0.5] * 10, "lower", 0.25) == "within"
    # a metric whose base is 0 (no failed op) allows no increase at all
    assert bench_pairs.bound_verdict([0.0] * 10, [0.0] * 10, "lower", 0.15) == "within"
    assert bench_pairs.bound_verdict([0.0] * 10, [0.01] * 10, "lower", 0.15) == "worse"


def test_compare_reports_every_field():
    base, change = [2.0, 2.0, 2.0], [1.0, 1.0, 2.0]
    doc = bench_pairs.compare(base, change, "lower", 0.25)
    assert doc == {"base": base, "change": change, "base_median": 2.0, "change_median": 1.0,
                   "base_iqr": 0.0, "wins": 2, "gain": False, "bound_verdict": "within"}


def test_src_lines_counts_python_files_at_any_depth(tmp_path):
    package = tmp_path / "src" / "pkg"
    (package / "sub").mkdir(parents=True)
    (package / "__init__.py").write_text("a = 1\n\nb = 2\n")
    (package / "sub" / "mod.py").write_text("def f():\n    return 1")  # no final newline
    (package / "fixture.json").write_text("{}\n{}\n")  # not Python: not counted
    (package / "empty.py").write_text("")
    assert bench_pairs.src_lines(tmp_path / "src") == 5


def test_seed_reaches_every_benchmark_run(tmp_path, monkeypatch):
    spec = json.loads((bench_pairs.ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: {"value": 1.0} for m in spec["end_to_end"] + spec["per_layer"]}
    result = json.dumps({"correct": 1, "attempted": 1, "failed": 0, "metrics": metrics})
    replies = {"run.py": f'env:{{"numpy": "x"}}\n{result}',
               "cli_matrix.py": "a exit=0 b\nmatrix sha256=0",
               "op_outcomes.py": "failed 0\npeak_rss_mb 1.0"}
    runs = []

    def fake_run(argv, **kwargs):
        argv = [str(arg) for arg in argv]
        runs.append(argv)
        return replies[Path(argv[1]).name]

    monkeypatch.setattr(bench_pairs, "_run", fake_run)
    monkeypatch.setattr(bench_pairs, "_make_sides",
                        lambda work, rev: {side: tmp_path / side for side in bench_pairs.SIDES})
    for flags, seed in (([], 1), (["--seed", "7"], 7)):
        del runs[:]
        out = tmp_path / "bench.json"
        assert bench_pairs.main(["--base", "HEAD", "--out", str(out), "--pairs", "2",
                                 "--seconds", "1", *flags]) == 0
        assert json.loads(out.read_text())["seed"] == seed
        bench = [argv for argv in runs if Path(argv[1]).name == "run.py"]
        # per workload: two runs a pair on two pairs, then one traced run a side
        assert len(bench) == 6 * len(spec["workloads"])
        for argv in bench:
            assert argv[argv.index("--seed") + 1] == str(seed)
            assert argv.count("--seed") == 1


def test_side_directories_have_names_of_one_length(tmp_path):
    # an A/A run (one commit on both sides) read a higher median setup_s on
    # all three workloads for the side whose directory name was longer, so
    # neither side may import from longer paths
    dirs = bench_pairs.side_dirs(tmp_path)
    assert list(dirs) == list(bench_pairs.SIDES)
    assert all(path.parent == tmp_path for path in dirs.values())
    assert len({len(path.name) for path in dirs.values()}) == 1
    assert len(set(dirs.values())) == len(dirs)


def test_report_prints_outcomes_after_the_metrics():
    metric = {"base_median": 2.0, "change_median": 1.5, "base_iqr": 0.25, "wins": 9,
              "gain": True, "bound_verdict": "within"}
    doc = {"pairs": 10,
           "workloads": {"design-horizon": {"end_to_end": {"op_p90_ms": metric}}},
           "op_outcomes": {"base": {"1": "failed 194 of 340", "2": "failed 194 of 340"},
                           "change": {"1": "failed 194 of 340", "2": "failed 195 of 340"},
                           "differing_lines": {"1": 0, "2": 3}},
           "src_lines": {"base": 2366, "change": 2381}}
    assert bench_pairs.report_lines(doc) == [
        "design-horizon  op_p90_ms    base 2          change 1.5        iqr 0.25      "
        "wins 9/10 gain True  within",
        "op_outcomes seed 1   base failed 194 of 340  change failed 194 of 340  "
        "differing lines 0",
        "op_outcomes seed 2   base failed 194 of 340  change failed 195 of 340  "
        "differing lines 3",
        "src lines base 2366 change 2381 (+15)",
    ]
