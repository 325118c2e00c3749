"""The A/B statistics and pair order of scripts/bench_ab.py, on hand-built numbers.

The runner itself starts benchmark processes for minutes, so these tests
stub it.
"""

import subprocess
from pathlib import Path

import pytest

import bench_ab


def test_odd_pairs_lower_is_better():
    s = bench_ab.compare([1.0, 2.0, 3.0, 4.0, 5.0], [0.5, 2.0, 2.0, 5.0, 4.0], "lower", 0.25)
    assert (s["parent_median"], s["change_median"]) == (3.0, 2.0)
    assert (s["parent_q1"], s["parent_q3"]) == (2.0, 4.0)
    # pair 2 ties and counts for neither side
    assert (s["pairs"], s["pairs_won"], s["pairs_lost"]) == (5, 3, 1)
    # ratios 0.5, 1.0, 2/3, 1.25, 0.8
    assert s["median_ratio"] == 0.8
    assert s["gap_exceeds_iqr"] is False


def test_higher_is_better_swaps_won_and_lost():
    s = bench_ab.compare([1.0, 2.0, 3.0, 4.0, 5.0], [0.5, 2.0, 2.0, 5.0, 4.0], "higher", 0.25)
    assert (s["pairs_won"], s["pairs_lost"]) == (1, 3)


def test_even_pairs_gap_beyond_iqr():
    s = bench_ab.compare([10.0, 11.0, 12.0, 13.0], [5.0, 5.0, 6.0, 5.0], "lower", 0.25)
    assert (s["parent_median"], s["change_median"]) == (11.5, 5.0)
    assert (s["parent_q1"], s["parent_q3"]) == (10.75, 12.25)
    assert (s["pairs_won"], s["pairs_lost"]) == (4, 0)
    assert s["gap_exceeds_iqr"] is True


def test_one_pair_and_zero_parent_values():
    s = bench_ab.compare([2.0], [1.0], "lower", 0.25)
    assert (s["parent_q1"], s["parent_q3"], s["median_ratio"]) == (2.0, 2.0, 0.5)
    assert s["gap_exceeds_iqr"] is True
    # a parent value of 0 has no ratio; with no ratio left there is no median
    assert bench_ab.compare([0.0, 4.0, 0.0], [1.0, 2.0, 0.0], "lower", 0.25)["median_ratio"] == 0.5
    assert bench_ab.compare([0.0], [1.0], "lower", 0.25)["median_ratio"] is None


def test_within_bound_compares_medians_in_the_metric_direction():
    # lower is better: 1.25 is exactly the bound's 25% over 1.0, 1.26 is past it
    assert bench_ab.compare([1.0], [1.25], "lower", 0.25)["within_bound"] is True
    assert bench_ab.compare([1.0], [1.26], "lower", 0.25)["within_bound"] is False
    assert bench_ab.compare([1.0], [0.5], "lower", 0.25)["within_bound"] is True
    # higher is better: a drop is the worse side
    assert bench_ab.compare([100.0], [76.0], "higher", 0.25)["within_bound"] is True
    assert bench_ab.compare([100.0], [74.0], "higher", 0.25)["within_bound"] is False
    assert bench_ab.compare([100.0], [500.0], "higher", 0.25)["within_bound"] is True


def test_setup_medians_past_their_bound_read_out_of_bound():
    # desk_sweep setup_s medians 0.0758 -> 0.1214 s, in the two bands near 0.07 and 0.11 s
    parent = [0.0702, 0.0731, 0.0758, 0.1098, 0.1122]
    change = [0.1101, 0.1214, 0.1240, 0.1252, 0.0711]
    s = bench_ab.compare(parent, change, "lower", 0.25)
    assert (s["parent_median"], s["change_median"]) == (0.0758, 0.1214)
    assert s["within_bound"] is False
    # the parent's IQR, 0.1098 - 0.0731, is more than 0.25 x 0.0758
    assert s["unresolved"] is True


def test_unresolved_when_the_parent_spreads_past_the_bound():
    tight = bench_ab.compare([9.0, 10.0, 10.0, 10.0, 11.0], [10.0] * 5, "lower", 0.1)
    assert (tight["parent_q1"], tight["parent_q3"], tight["unresolved"]) == (10.0, 10.0, False)
    wide = bench_ab.compare([6.0, 8.0, 10.0, 12.0, 14.0], [10.0] * 5, "lower", 0.1)
    assert (wide["parent_q1"], wide["parent_q3"], wide["unresolved"]) == (8.0, 12.0, True)
    assert wide["within_bound"] is True


def test_pairs_alternate_parent_first_in_odd_pairs():
    roots = {"parent": Path("parent"), "change": Path("change")}
    calls = []

    def runner(root, workload, seed, seconds):
        calls.append(root.name)
        value = 2.0 if root.name == "parent" else 1.0
        return {"correct": True, "attempted": 1, "failed": 0, "metrics": {"wall_s": value, "cells": 3.0}}

    result = bench_ab.run_pairs(roots, "sample_large", 3, 1, 0.5, {"wall_s": ("lower", 0.25)}, runner=runner)
    assert calls == ["parent", "change", "change", "parent", "parent", "change"]
    assert [(r["pair"], r["side"]) for r in result["runs"]] == [
        (1, "parent"), (1, "change"), (2, "change"), (2, "parent"), (3, "parent"), (3, "change")]
    assert list(result["ab"]) == ["wall_s"]
    assert result["ab"]["wall_s"]["pairs_won"] == 3
    assert result["ab"]["wall_s"]["median_ratio"] == pytest.approx(0.5)


def test_extract_writes_the_committed_tree(tmp_path):
    try:
        bench_ab.git("rev-parse", "--is-inside-work-tree")
    except (OSError, subprocess.CalledProcessError):
        pytest.skip("not a git checkout: git archive has no committed tree to write")
    tree = bench_ab.extract("HEAD", tmp_path / "head")
    files = bench_ab.git("ls-tree", "-r", "--name-only", "HEAD").splitlines()
    assert sorted(str(p.relative_to(tree)) for p in tree.rglob("*") if p.is_file()) == sorted(files)
    assert (tree / "perfbench" / "run.py").is_file()
    committed = [f for f in files if f.startswith("src/") and f.endswith(".py")]
    assert bench_ab.src_lines(tree) == sum(
        len(bench_ab.git("show", f"HEAD:{f}").splitlines()) for f in committed)
