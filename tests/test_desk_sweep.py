"""scripts/desk_sweep.py's trend checks and exit status, on hand-built summary rows.

The study itself runs in test_acceptance.py's criterion 6, which takes minutes; these
tests replace its sweep with fixed summary rows.
"""

import types

import pytest

import desk_sweep

METHODS = ("fs", "xs", "rd", "ls", "hj")
CHECKS = ("ls_lowest_clustering_rmse", "ls_lowest_path_jsd", "fs_or_xs_beats_rd_assortativity")
# the compared rows, in METHODS order, rounded from a passing n=20,000 sweep
PASSING = {"cc": (0.28, 0.21, 0.32, 0.07, 0.27), "pl": (0.86, 0.70, 0.79, 0.64, 0.75),
           "ar": (0.16, 0.09, 0.42, 0.30, 0.18)}


def summary(cc, pl, ar):
    """A summary table whose three compared rows hold ``cc``, ``pl`` and ``ar``."""
    return [{"metric": metric, "property": prop, **dict(zip(METHODS, values))}
            for metric, prop, values in (("rmse", "avg_degree", (13.8, 13.2, 14.2, 10.8, 14.2)),
                                         ("rmse", "avg_clustering", cc),
                                         ("jsd", "path_length", pl),
                                         ("rmse", "assortativity", ar))]


def passed(**rows):
    checks = desk_sweep.ordering_checks(summary(**{**PASSING, **rows}))
    return {name: ok for name, (ok, _) in checks.items()}


def test_every_check_passes_on_the_trend():
    assert passed() == dict.fromkeys(CHECKS, True)
    checks = desk_sweep.ordering_checks(summary(**PASSING))
    assert checks["ls_lowest_path_jsd"][1] == dict(zip(METHODS, PASSING["pl"]))


@pytest.mark.parametrize("row, values, check", [
    ("cc", (0.28, 0.05, 0.32, 0.07, 0.27), "ls_lowest_clustering_rmse"),
    ("pl", (0.86, 0.70, 0.79, 0.64, 0.60), "ls_lowest_path_jsd"),
    ("ar", (0.46, 0.43, 0.42, 0.30, 0.18), "fs_or_xs_beats_rd_assortativity"),
])
def test_each_check_fails_on_its_own_row(row, values, check):
    assert passed(**{row: values}) == {name: name != check for name in CHECKS}


@pytest.mark.parametrize("row, method, check", [
    ("cc", "ls", "ls_lowest_clustering_rmse"),
    ("pl", "hj", "ls_lowest_path_jsd"),
    ("ar", "fs", "fs_or_xs_beats_rd_assortativity"),
    ("ar", "rd", "fs_or_xs_beats_rd_assortativity"),
])
def test_a_missing_value_fails_its_check(row, method, check):
    values = list(PASSING[row])
    values[METHODS.index(method)] = None
    assert passed(**{row: values}) == {name: name != check for name in CHECKS}


@pytest.fixture()
def fake_sweep(monkeypatch, tmp_path):
    """Replace the sweep in ``desk_sweep.main`` by one that records its config and returns
    ``state["rows"]`` as the summary and ``state["failures"]`` as the failed datasets."""
    state = {"rows": summary(**PASSING), "failures": []}

    def run(cfg):
        state["cfg"] = cfg
        return types.SimpleNamespace(output_dir=cfg.output_dir, failures=state["failures"],
                                     tables=types.SimpleNamespace(summary=state["rows"]))

    monkeypatch.setattr(desk_sweep, "run_experiment", run)
    monkeypatch.setenv("GRAPHSAMPLE_DATA", str(tmp_path))
    return state


def test_exit_status_is_1_when_a_check_or_a_dataset_fails(fake_sweep, capsys):
    assert desk_sweep.main([]) == 0
    fake_sweep["rows"] = summary(**{**PASSING, "cc": (0.28, 0.05, 0.32, 0.07, 0.27)})
    assert desk_sweep.main([]) == 1
    assert "ls_lowest_clustering_rmse: FAIL" in capsys.readouterr().out
    fake_sweep["rows"] = summary(**PASSING)
    fake_sweep["failures"] = ["ff: boom"]
    assert desk_sweep.main([]) == 1


def test_main_builds_desk_config_from_its_flags(fake_sweep, tmp_path):
    (tmp_path / "cora.txt").write_text("0 1\n")
    assert desk_sweep.main(["--nodes", "500", "--reps", "3", "--out", "o", "--workers", "1",
                            "--master-seed", "7"]) == 0
    assert fake_sweep["cfg"] == desk_sweep.desk_config(tmp_path, nodes=500, reps=3, out="o",
                                                       workers=1, master_seed=7)
    assert [d.name for d in fake_sweep["cfg"].datasets] == ["cora", "ff", "sw", "mm"]
    desk_sweep.main(["--data", str(tmp_path / "elsewhere")])
    assert fake_sweep["cfg"] == desk_sweep.desk_config(tmp_path / "elsewhere")
