import dataclasses
import json

import pytest

from graphsample import harness
from graphsample.cli import main
from graphsample.generators import MODELS, GeneratorConfig, generate
from graphsample.graph import dump_edge_list, load_edge_list
from graphsample.samplers import METHODS, SamplerConfig, sample

# a valid non-default value for every method- or model-prefixed config field
OPTION_VALUES = {
    "fs_walkers": 3, "fs_stall_limit": 50, "xs_seed_rule": "max_degree", "ls_rule": "max_degree",
    "rd_seeds": 3, "rd_rho": 0.5, "hj_alpha": 0.25, "hj_probes": 50, "hj_bfs_depth": 3,
    "hj_stall_limit": 50,
    "ff_pf": 0.3, "sw_k": 4, "sw_p": 0.0, "mm_k": 4, "mm_beta": 0.0,
}


def option_fields(cls, prefixes):
    return [f.name for f in dataclasses.fields(cls) if f.name.split("_")[0] in prefixes]


@pytest.fixture()
def sw_file(tmp_path):
    out = tmp_path / "sw.txt"
    assert main(["generate", "--model", "sw", "--nodes", "120", "--seed", "3",
                 "--out", str(out)]) == 0
    return out


def usage_error(argv, capsys) -> str:
    """The one-line error that ``main`` prints for ``argv``, which must exit with status 2."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    return capsys.readouterr().err.splitlines()[-1]


def test_generate_writes_normalized_dump(sw_file):
    g = load_edge_list(sw_file)
    assert g.n == 120
    assert g.m == 120 * 16 // 2
    header = sw_file.read_text().splitlines()[0]
    assert header == "# n=120 m=960"


def test_generate_model_flags(tmp_path):
    out = tmp_path / "ring.txt"
    assert main(["generate", "--model", "sw", "--nodes", "10", "--sw-k", "2",
                 "--sw-p", "0.0", "--out", str(out)]) == 0
    assert load_edge_list(out).m == 10


def test_sample_writes_edges_and_sidecar(sw_file, tmp_path):
    out = tmp_path / "smp.txt"
    assert main(["sample", "--input", str(sw_file), "--method", "rd", "--phi", "0.1",
                 "--seed", "4", "--out", str(out)]) == 0
    sidecar = json.loads((tmp_path / "smp.txt.json").read_text())
    assert sidecar["method"] == "rd"
    assert sidecar["n_nodes"] == 12
    assert len(sidecar["nodes"]) == 12
    assert sidecar["config"]["finalize_mode"] == "collected"   # RD's own rule, as with no --mode
    sg = load_edge_list(out)
    assert sg.m == sidecar["n_edges"]


@pytest.mark.parametrize("name", option_fields(SamplerConfig, METHODS))
def test_every_sampler_option_has_a_flag(sw_file, tmp_path, name):
    value = OPTION_VALUES[name]
    out = tmp_path / "smp.txt"
    assert main(["sample", "--input", str(sw_file), "--method", name.split("_")[0], "--phi", "0.2",
                 "--" + name.replace("_", "-"), str(value), "--out", str(out)]) == 0
    config = json.loads((tmp_path / "smp.txt.json").read_text())["config"]
    assert config[name] == value != getattr(SamplerConfig("fs"), name)


@pytest.mark.parametrize("name", option_fields(GeneratorConfig, MODELS))
def test_every_generator_option_has_a_flag(tmp_path, name):
    value = OPTION_VALUES[name]
    model = name.split("_")[0]
    out = tmp_path / "g.txt"
    assert main(["generate", "--model", model, "--nodes", "60", "--seed", "2",
                 "--" + name.replace("_", "-"), str(value), "--out", str(out)]) == 0
    for expected, kwargs in ((True, {name: value}), (False, {})):
        dump_edge_list(generate(GeneratorConfig(model, 60, seed=2, **kwargs)), tmp_path / "ref.txt")
        assert ((tmp_path / "ref.txt").read_bytes() == out.read_bytes()) is expected


def test_sample_mode_defaults_to_the_method_rule(sw_file, tmp_path, capsys):
    for method, mode in (("ls", "induced"), ("hj", "collected")):
        out = tmp_path / f"{method}.txt"
        assert main(["sample", "--input", str(sw_file), "--method", method, "--phi", "0.1",
                     "--out", str(out)]) == 0
        assert json.loads((tmp_path / f"{method}.txt.json").read_text())["mode"] == mode
    assert (usage_error(["sample", "--input", str(sw_file), "--method", "xs", "--phi", "0.1",
                         "--xs-seed-rule", "max-degree", "--out", str(out)], capsys)
            == "graphsample: error: unknown xs_seed_rule 'max-degree'")


@pytest.mark.parametrize("method", METHODS)
def test_sample_output_matches_a_logged_run(sw_file, tmp_path, method):
    out = tmp_path / "smp.txt"
    assert main(["sample", "--input", str(sw_file), "--method", method, "--phi", "0.2",
                 "--seed", "5", "--out", str(out)]) == 0
    g = load_edge_list(sw_file)
    logged = sample(g, SamplerConfig(method, phi=0.2, seed=5, record_steps=True))
    orig = g.orig_ids
    pairs = [sorted((int(orig[u]), int(orig[v]))) for u, v in logged.edges]
    assert out.read_text().splitlines()[1:] == [f"{a} {b}" for a, b in pairs]
    sidecar = json.loads((tmp_path / "smp.txt.json").read_text())
    assert sidecar["nodes"] == [int(orig[v]) for v in logged.nodes]
    assert sidecar["config"]["record_steps"] is False


def test_properties_report(sw_file, tmp_path):
    report = tmp_path / "rep.json"
    dist_dir = tmp_path / "dists"
    assert main(["properties", "--input", str(sw_file), "--exact-paths",
                 "--json", str(report), "--dist-dir", str(dist_dir)]) == 0
    payload = json.loads(report.read_text())
    assert payload["graph"] == {"n": 120, "m": 960}
    assert payload["scalars"]["avg_degree"] == 16.0
    assert payload["flags"]["path_mode"] == "exact"
    assert sorted(p.name for p in dist_dir.iterdir()) == [
        "sw.clustering.dist.csv", "sw.degree.dist.csv", "sw.path_length.dist.csv"]


def test_properties_rejects_zero_path_sources(sw_file, capsys):
    assert (usage_error(["properties", "--input", str(sw_file), "--path-sources", "0"], capsys)
            == "graphsample: error: path sources must be >= 1, not 0")


def test_bad_option_values_are_usage_errors(sw_file, tmp_path, capsys):
    assert (usage_error(["sample", "--input", str(sw_file), "--method", "rd", "--phi", "0.1",
                         "--rd-rho", "0", "--out", str(tmp_path / "s.txt")], capsys)
            == "graphsample: error: rd_rho must be in (0, 1]")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"datasets": [{"name": "x", "path": str(sw_file)}],
                                    "samplers": [{"method": "ls"}], "bogus_knob": 1}))
    assert (usage_error(["bench", "run", "--config", str(cfg_path)], capsys)
            == "graphsample: error: unknown experiment config keys: ['bogus_knob']")


def test_unreadable_files_are_usage_errors(tmp_path, capsys):
    missing = tmp_path / "nope.txt"
    assert (usage_error(["sample", "--input", str(missing), "--method", "ls", "--phi", "0.1",
                         "--out", str(tmp_path / "s.txt")], capsys)
            == f"graphsample: error: [Errno 2] No such file or directory: '{missing}'")
    missing = tmp_path / "nope.json"
    assert (usage_error(["bench", "run", "--config", str(missing)], capsys)
            == f"graphsample: error: [Errno 2] No such file or directory: '{missing}'")


def test_bench_run_and_aggregate(tmp_path):
    cfg = {
        "output_dir": str(tmp_path / "out"),
        "master_seed": 5,
        "phis": [0.1],
        "repetitions": 2,
        "datasets": [
            {"name": "mm", "category": "synthetic",
             "generator": {"model": "mm", "nodes": 300, "seed": 1}},
        ],
        "samplers": [{"method": "ls"}, {"method": "rd"}],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["bench", "run", "--config", str(cfg_path)]) == 0
    out = tmp_path / "out"
    assert (out / "raw.csv").is_file()

    before = (out / "summary.csv").read_bytes()
    agg_dir = tmp_path / "reagg"
    assert main(["bench", "aggregate", "--raw", str(out / "raw.csv"),
                 "--out-dir", str(agg_dir)]) == 0
    assert (agg_dir / "summary.csv").read_bytes() == before


def test_failed_sampler_gets_the_same_summary_from_run_and_aggregate(tmp_path, monkeypatch):
    real_sample = harness.sample

    def sample_or_fail(g, scfg):
        if scfg.method == "rd":
            raise RuntimeError("rd is down")
        return real_sample(g, scfg)

    monkeypatch.setattr(harness, "sample", sample_or_fail)   # workers=1 keeps cells in this process
    cfg = {
        "output_dir": str(tmp_path / "out"),
        "phis": [0.1],
        "repetitions": 2,
        "workers": 1,
        "datasets": [{"name": "mm", "generator": {"model": "mm", "nodes": 200, "seed": 1}}],
        "samplers": [{"method": "rd"}, {"method": "ls"}],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["bench", "run", "--config", str(cfg_path)]) == 0
    out = tmp_path / "out"
    assert len((out / "errors.csv").read_text().splitlines()) == 1 + 2
    assert main(["bench", "aggregate", "--raw", str(out / "raw.csv"),
                 "--out-dir", str(tmp_path / "reagg")]) == 0
    summary = (out / "summary.csv").read_text()
    assert summary.splitlines()[0] == "metric,property,ls"
    assert (tmp_path / "reagg" / "summary.csv").read_text() == summary


def test_bench_run_reports_dataset_failure(tmp_path):
    cfg = {
        "output_dir": str(tmp_path / "out"),
        "phis": [0.2],
        "repetitions": 1,
        "datasets": [{"name": "gone", "path": str(tmp_path / "gone.txt")}],
        "samplers": [{"method": "ls"}],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["bench", "run", "--config", str(cfg_path)]) == 1
