"""A tiny fixed-seed sweep whose deterministic bundle files are pinned by hash.

Two generated graphs, all five methods of ``default_method_suite()``, two
phis, two repetitions and two pool workers. Any change to a sampler, a
property kernel, the aggregation or a writer shows up as a changed digest.
timings.csv and meta.json carry wall-clock data and are not pinned.
"""

import hashlib
from pathlib import Path

import pytest

from graphsample.cli import main
from graphsample.generators import GeneratorConfig
from graphsample.harness import DatasetSpec, ExperimentConfig, default_method_suite, run_experiment

GOLDEN = {
    "raw.csv":
        "4c61bb888b7dc9038c2acfde01e7fddce96c225ad13787242f9fbbaecb7f7109",
    "point_stats.csv":
        "bbd662f4621a63cef895160b113b8d3a6265a4177f7a12ba48325b445b875ead",
    "rmse.csv":
        "15a31a77dd8d7791fe0ba208b1c5abfd9f12fccbb729a3e5501b1884a7081637",
    "jsd.csv":
        "91fbc056e453beedce096f37a655eb175021bb2e267390b28e4c2ed83d8a270e",
    "summary.csv":
        "137b3514e7c44262f031d8f79d9b343baf537be1643a3f9888dfa7af9a173c24",
    "dists/ff300.fs.clustering.dist.csv":
        "c652f3bc692f78de727bc7d6079b51310883fe42da89d7e7957ab3f98dce6956",
    "dists/ff300.fs.degree.dist.csv":
        "294c487f8fe0f442f786cc55db74cc2b5f7b947c5860e90fb631aa0fe70a831e",
    "dists/ff300.fs.path_length.dist.csv":
        "4d3ac78a3a0bc0700014b29a8e1303c36c1aef1002d068f21e97b53a56182319",
    "dists/ff300.hj.clustering.dist.csv":
        "1c59d6bde8b8ef2ec0a1d0751296c11b06cdf83d33e50588f08bc63792d2aa68",
    "dists/ff300.hj.degree.dist.csv":
        "4f8203676c3740fc441ea5c64c3a96c640416b05665535b1d40e6a677e456677",
    "dists/ff300.hj.path_length.dist.csv":
        "b24193abedfa6266d940101654e64840ccd1780af66b4d672695a9e73cd9d5e1",
    "dists/ff300.ls.clustering.dist.csv":
        "7ce6a1be0efc9a8839f577beb648666bd05ce5fe671d5427d830c17818df6b15",
    "dists/ff300.ls.degree.dist.csv":
        "33afad6ccabbf6eaf264faaa3e126ee96f253a8ea77a4bb44c6e3b6bbcab35c3",
    "dists/ff300.ls.path_length.dist.csv":
        "39026a7a82c2606d7d9be77c6274af8787fb604dc397056a269669f99644a8c6",
    "dists/ff300.original.clustering.dist.csv":
        "a9c47e05773912f6343bad80f96bd4c4a89bc179949c7e9178a937ece5cb6ef9",
    "dists/ff300.original.degree.dist.csv":
        "d1e64bc890e628443388036b4763a02fef04bc81c8f305cd88a363c0700c7158",
    "dists/ff300.original.path_length.dist.csv":
        "4e3726e5f5fe67f4424445fcb4ee3b59efba305eaae7d4dfc90eca493111948d",
    "dists/ff300.rd.clustering.dist.csv":
        "c652f3bc692f78de727bc7d6079b51310883fe42da89d7e7957ab3f98dce6956",
    "dists/ff300.rd.degree.dist.csv":
        "3bd3c1f13cc567c828b4d93f338d817f415099afe6a2bc93b17d9680d02ea2fe",
    "dists/ff300.rd.path_length.dist.csv":
        "5b15a17e27be20687bdd7ac254d93ade938554a4a0b243250776ed96dab1d8c0",
    "dists/ff300.xs.clustering.dist.csv":
        "cb31e560718d7fb5402b03a92628d727b471dcc332cd7e8f4b5d78673007bfe5",
    "dists/ff300.xs.degree.dist.csv":
        "c2c8e17c17885aff026bf7d35609007c1f5ced560b4ce7057ffeef71aeac2b14",
    "dists/ff300.xs.path_length.dist.csv":
        "e4430eee429dd28901dce1d3b651eaa1b53fdc95b508c290b0abe03ec8eef326",
    "dists/mm300.fs.clustering.dist.csv":
        "c652f3bc692f78de727bc7d6079b51310883fe42da89d7e7957ab3f98dce6956",
    "dists/mm300.fs.degree.dist.csv":
        "db242e8fcba9eb274dd919c3ba4c25a62de5dc8fcf5fbb58ef3af9feed6f4f02",
    "dists/mm300.fs.path_length.dist.csv":
        "256c89adb9904566df905ddc8c72d8c2d04d76309ddb17bf97c4ecd9fd436e03",
    "dists/mm300.hj.clustering.dist.csv":
        "c652f3bc692f78de727bc7d6079b51310883fe42da89d7e7957ab3f98dce6956",
    "dists/mm300.hj.degree.dist.csv":
        "cd201697469a8bd40bf023584e377fd9c330137efd14b925a34bf4ecf248f929",
    "dists/mm300.hj.path_length.dist.csv":
        "c109ec9bebf2631492f71795be3e86440ddcd34fa6a2abc055be514a032646bf",
    "dists/mm300.ls.clustering.dist.csv":
        "a0d1a54a75ec3814e5d5c2d7db57c89743198c566dee50f0442ac96067fc417f",
    "dists/mm300.ls.degree.dist.csv":
        "87076c4565e3ec3a831d1fd845f0b24a7a6b90a80b6aaf63b14d11a9082f9567",
    "dists/mm300.ls.path_length.dist.csv":
        "6b495e0e4f597d6893efe6e1e96566cc9dcb2a11909b96b2ab82f2239b72e0ee",
    "dists/mm300.original.clustering.dist.csv":
        "ac809f0b22fabe5b2bf0e41c0f0465383f6e4b982bdaacd780cf9082e5d4db75",
    "dists/mm300.original.degree.dist.csv":
        "65521b1942931a7333ac515b126121e9f2826f3347b75f20bb6ed48bf48a93c2",
    "dists/mm300.original.path_length.dist.csv":
        "fdb148ed438c10ea979bc9780d4feb606f283cfcbaa5565f560e3d23036c0e4a",
    "dists/mm300.rd.clustering.dist.csv":
        "c652f3bc692f78de727bc7d6079b51310883fe42da89d7e7957ab3f98dce6956",
    "dists/mm300.rd.degree.dist.csv":
        "b2f940753ac651c016f364389270b5c4fc8e11d039abf456caaba90a5b5b1631",
    "dists/mm300.rd.path_length.dist.csv":
        "2800ff510c835f6515cabf796ae26d061375ef3b76a81d7bb1b6dbfac05824e6",
    "dists/mm300.xs.clustering.dist.csv":
        "a7690bf549dbdc65e7a0ca62097607aaffca38a94e6af4981ec5574b0c45fe7d",
    "dists/mm300.xs.degree.dist.csv":
        "183a6668db18b5d5cde6f4fa23e276c98a0843b9119a2b2ed22ed51c1e9ecd02",
    "dists/mm300.xs.path_length.dist.csv":
        "e5d042773c7234c32541e9c206929b4cd96014a69e96df5266d9c728ed6f22a2",
    "dists/cells/ff300.fs.json":
        "bf4a6651c9d829d6878c08abaa589575fc11bdba5e1f576e3894c4639da77161",
    "dists/cells/ff300.hj.json":
        "efa9462b4337d7e701743632f06ce3488229d6a2592a93481ef2a8c68c7f5559",
    "dists/cells/ff300.ls.json":
        "3bf883642fc61088fe295e4d740522049f5bdd4bf2d28b85199d4612f85c33fe",
    "dists/cells/ff300.rd.json":
        "ed2b84b760995b60311dafb66719144780f724e72970bb4b2b89a5b9a4bdef86",
    "dists/cells/ff300.xs.json":
        "e52d702a8925adbec7ca050531a227ab90686f23fba6ab9e062c3661d721968b",
    "dists/cells/mm300.fs.json":
        "60f6057881860b8b28b2bee38b4fe606acdae729779b00f54d874912871105c6",
    "dists/cells/mm300.hj.json":
        "695131f67c6fa63e918e1f57acbb97e5a79304128545813a0bc6a8929fb36e72",
    "dists/cells/mm300.ls.json":
        "784c42a6e12ca4d9dcb9c8d6f7e20f99934d5fdeab6ca2128f7bff7818702cb5",
    "dists/cells/mm300.rd.json":
        "605324d9bbc9354e33c3e1a4656ca0332e87435f5a89f0fdc1df297bac891452",
    "dists/cells/mm300.xs.json":
        "32974b521e9ddd97d15aaed3b422a8005cea31716330bd778db24c0ec94c06c3",
}


def sweep_config(out_dir: Path) -> ExperimentConfig:
    return ExperimentConfig(
        datasets=tuple(
            DatasetSpec(name=f"{model}300", category="synthetic",
                        generator=GeneratorConfig(model=model, nodes=300, seed=4))
            for model in ("ff", "mm")),
        samplers=default_method_suite(),
        phis=(0.05, 0.1),
        repetitions=2,
        master_seed=17,
        output_dir=str(out_dir),
        workers=2,
    )


def bundle_digests(out: Path) -> dict[str, str]:
    """SHA-256 of every deterministic bundle file, keyed by its path under ``out``."""
    files = [out / f"{name}.csv" for name in ("raw", "point_stats", "rmse", "jsd", "summary")]
    files += sorted((out / "dists").glob("*.dist.csv"))
    files += sorted((out / "dists" / "cells").glob("*.json"))
    return {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in files}


@pytest.fixture(scope="module")
def bundle(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("golden") / "out"
    res = run_experiment(sweep_config(out))
    assert res.failures == [] and res.errors == []
    return out


def test_bundle_matches_pins(bundle):
    assert bundle_digests(bundle) == GOLDEN


def test_aggregate_rebuilds_every_derived_file(bundle, tmp_path):
    """``bench aggregate`` rebuilds the tables and ECDF files from raw.csv, originals/ and
    dists/cells/ alone; raw.csv and dists/cells/ are its inputs, not its output."""
    fresh = tmp_path / "fresh"
    assert main(["bench", "aggregate", "--raw", str(bundle / "raw.csv"),
                 "--out-dir", str(fresh)]) == 0
    derived = {k: v for k, v in GOLDEN.items()
               if k != "raw.csv" and not k.startswith("dists/cells/")}
    assert len(derived) == 40
    written = {p.relative_to(fresh).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
               for p in fresh.rglob("*") if p.is_file()}
    assert written == derived
