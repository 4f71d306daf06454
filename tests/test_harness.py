import dataclasses
import hashlib
import json
import math
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml

from foliated_flows import averaging, flows, harness
from foliated_flows.averaging import TRIANGLE_TOL, InvariantMeasureSpec, averaging_error
from foliated_flows.cli import main as cli_main
from foliated_flows.config import (
    EXPERIMENT_KINDS,
    AveragingConfig,
    BoundsConfig,
    CoalesceConfig,
    ConfigError,
    ExperimentConfig,
    KernelCheckConfig,
    ModelConfig,
    SimulateConfig,
    load_config,
    parse_config,
)
from foliated_flows.drivers import StreamKey, sample_poisson_jumps
from foliated_flows.geometry import (
    CylPoint, PerturbationField, RotationJumpCylinder, TorusPoint, TorusWinding, VerticalRegion,
)
from foliated_flows.flows import evolve_coalescing_circle, n_point_motion
from foliated_flows.harness import REPORT_SCHEMA, RunReport, _fmt, emit_plotdata, run
from fresh_python import run_snippet

SEED = 20250811
V1_SCHEMA = "foliated-flows/run-report-v1"


def _v1_payload(report: RunReport) -> dict:
    """The payload as schema v1 gave it: the decomposition rows as a list in place of their digest.

    Every pin computed before schema v2 still holds through this helper.
    """
    payload = report.payload()
    payload["schema"] = V1_SCHEMA
    if "decompositions" in report.results:
        payload["results"]["decompositions"] = report.results["decompositions"].tolist()
    return payload


def _sha256_json(body: dict) -> str:
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


def _rates_config(seed=SEED, out="out", replicas=20):
    return {
        "experiment": "rates",
        "seed": seed,
        "output_dir": out,
        "perturbation": {"lambda0": 1.0, "k3": "zero", "angular": "cosine"},
        "averaging": {
            "t": 1.0,
            "p": 2.0,
            "eps_grid": [0.2, 0.1, 0.05],
            "replicas": replicas,
            "dt": 0.02,
            "start": {"theta": 0.0, "r": 1.0, "z": 0.0},
        },
    }


# ---------------------------------------------------------------------------
# config parsing


def test_config_round_trip_is_idempotent():
    cfg = parse_config(_rates_config())
    once = yaml.safe_dump(cfg.to_dict(), sort_keys=True)
    again = yaml.safe_dump(parse_config(yaml.safe_load(once)).to_dict(), sort_keys=True)
    assert once == again


def test_config_rejects_unknown_keys_everywhere():
    data = _rates_config()
    data["typo_section"] = {}
    data["averaging"]["bogus"] = 1
    with pytest.raises(ConfigError) as info:
        parse_config(data)
    msgs = "\n".join(info.value.problems)
    assert "config.typo_section" in msgs
    assert "config.averaging.bogus" in msgs


def test_config_invalid_eps_names_partition_precondition():
    data = _rates_config()
    data["averaging"]["eps_grid"] = [1.5]
    with pytest.raises(ConfigError) as info:
        parse_config(data)
    assert any("make_partition" in p for p in info.value.problems)


def test_config_collects_all_violations():
    data = _rates_config()
    data["averaging"]["t"] = -2
    data["averaging"]["replicas"] = 0
    data["seed"] = "abc"
    with pytest.raises(ConfigError) as info:
        parse_config(data)
    assert len(info.value.problems) >= 3


def test_config_experiment_mismatch_with_subcommand():
    with pytest.raises(ConfigError):
        parse_config(_rates_config(), experiment="simulate")


def test_config_rejects_perturbed_simulate_off_cylinder():
    data = {
        "experiment": "simulate",
        "model": {"name": "torus-winding"},
        "simulate": {"eps": 0.1, "horizon": 1.0, "dt": 0.01},
    }
    with pytest.raises(ConfigError) as info:
        parse_config(data)
    assert any("rotation-jump-cylinder" in p for p in info.value.problems)


def test_config_defaults_fill_in():
    cfg = parse_config({"experiment": "kernel-check"})
    assert cfg.kernel_check.m == 8
    assert cfg.kernel_check.leaves == ((1.0, 0.0), (2.0, 0.0))
    assert cfg.region.r_min == 0.5


def test_config_default_sections_are_the_dataclass_defaults():
    for kind in EXPERIMENT_KINDS:
        cfg = parse_config({"experiment": kind})
        assert cfg == ExperimentConfig(experiment=kind)
        assert cfg.model == ModelConfig()
        assert cfg.perturbation == PerturbationField()
        assert cfg.region == VerticalRegion()
        assert cfg.bounds == BoundsConfig()
        assert cfg.simulate == SimulateConfig()
        assert cfg.kernel_check == KernelCheckConfig()
        assert cfg.averaging == AveragingConfig()
        assert cfg.averaging.measure == InvariantMeasureSpec()
        assert cfg.coalesce == CoalesceConfig()
    # empty sections and an empty coalesce starts list keep the defaults too
    data = {"experiment": "coalesce", "region": {}, "averaging": {"start": {}, "measure": {}},
            "coalesce": {"starts": []}}
    assert parse_config(data) == ExperimentConfig(experiment="coalesce")


# sha256 of json.dumps(to_dict(), sort_keys=True), computed before the section
# dataclasses became the one serializer
_CONFIG_SHA256 = {
    "average-commuting": "592ffddfef3df1e49dd9996d57133b4df1b2cbe86d7a10ba1f5de757973d398a",
    "average-exits": "5e5b6b483158a1f31e7208fe087da7ed121edea2da50fa029edf9100f3a0c802",
    "coalesce-circle": "c2aac15d50e7640f1476427162b3adde80e013423019ed1b581f1fa37d79ca7b",
    "kernel-check": "a3567439999c3292acd686f303d9568cf048097ea81358235fae9bb04f9f521d",
    "rates-cosine": "de02de09261137b094905fa133f17129964d1e1a25bf875d0a84c5e528d45820",
    "simulate-torus": "c6dfc47b7ada986b1a747a46f2297d4682294ec486a933773ec99afdb77800aa",
}
_DEFAULT_SHA256 = {
    "simulate": "76e355892371f2c29fedf2071e945232203fa5785e5c9d5966626705b6d56976",
    "kernel-check": "930ab8856722b7c1d3da43521df0bb6a45964c109f6d5781835dbc877797812e",
    "average": "a2f5d2ab8299db442050578b0229fd61fe95f2d8aa09a2f07996715286092b33",
    "rates": "37ba9ae4d6ef9d7e87d0329e9bd82ae252a4f0121e14aab0204ad6292c69339d",
    "coalesce": "5e4437f7cca10f3e22f96e843205e58aa7f17bc2683bfa85490cac10e484cec7",
}


def _config_sha256(cfg) -> str:
    return hashlib.sha256(json.dumps(cfg.to_dict(), sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(_CONFIG_SHA256))
def test_config_serialization_of_the_sample_configs_is_pinned(name):
    assert _config_sha256(load_config(CONFIGS / f"{name}.yaml")) == _CONFIG_SHA256[name]


@pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
def test_config_serialization_of_the_defaults_is_pinned(kind):
    assert _config_sha256(parse_config({"experiment": kind})) == _DEFAULT_SHA256[kind]


def test_starts_fill_the_coordinates_they_omit(tmp_path):
    # a cylinder start omits theta = 0, r = 1, z = 0; coalesce stores them
    starts = [{"theta": 1.0}, {"r": 2.0, "z": -1.0}]
    cfg = parse_config({"experiment": "coalesce", "coalesce": {"starts": starts}})
    assert cfg.to_dict()["coalesce"]["starts"] == [
        {"theta": 1.0, "r": 1.0, "z": 0.0}, {"theta": 0.0, "r": 2.0, "z": -1.0}
    ]
    # simulate keeps only what is given and fills the rest when it runs
    data = {"experiment": "simulate", "output_dir": str(tmp_path),
            "simulate": {"horizon": 0.1, "dt": 0.01, "starts": starts}}
    run(parse_config(data))
    rows = (tmp_path / "trajectory.csv").read_text().splitlines()
    first = {row.split(",")[1]: row.split(",")[2:5] for row in rows[1:] if row.startswith("0,")}
    assert {pid: [float(x) for x in xs] for pid, xs in first.items()} == {
        "0": [1.0, 1.0, 0.0], "1": [0.0, 2.0, -1.0]
    }


def test_config_region_with_empty_ranges_is_a_config_error():
    # r_max and z_max keep their defaults 5.0; each empty range is reported,
    # and the rest of the config is still checked
    data = {"experiment": "rates", "region": {"r_min": 6.0, "z_min": 5.0}, "averaging": {"t": -1.0}}
    with pytest.raises(ConfigError) as info:
        parse_config(data)
    assert info.value.problems == [
        "config.region: requires r_min < r_max",
        "config.region: requires z_min < z_max",
        "config.averaging.t: make_partition requires t > 0 (got -1.0)",
    ]


def test_config_rejects_coalesce_horizon_off_the_dt_grid(tmp_path):
    # the grid would end at 1.01, so a hit could be stamped after the horizon
    data = {"experiment": "coalesce", "coalesce": {"horizon": 1.005, "dt": 0.01}}
    with pytest.raises(ConfigError) as info:
        load_config(_write_cfg(tmp_path, data))
    assert any(p.startswith("config.coalesce.horizon") for p in info.value.problems)
    for horizon, dt in [(0.3, 0.1), (50.0, 0.01), (0.0, 0.01)]:
        data["coalesce"] = {"horizon": horizon, "dt": dt}
        assert load_config(_write_cfg(tmp_path, data)).coalesce.horizon == horizon


def test_config_rejects_simulate_horizon_off_the_dt_grid(tmp_path):
    # the Brownian grid of the torus and the coalescing circle would end at 1.01
    for model in ("torus-winding", "coalescing-circle"):
        data = {"experiment": "simulate", "model": {"name": model},
                "simulate": {"horizon": 1.005, "dt": 0.01}}
        with pytest.raises(ConfigError) as info:
            load_config(_write_cfg(tmp_path, data))
        assert any(p.startswith("config.simulate.horizon") for p in info.value.problems)
        data["simulate"]["horizon"] = 0.3
        assert load_config(_write_cfg(tmp_path, data)).simulate.horizon == 0.3
    # the cylinder's record grid ends exactly at the horizon
    data = {"experiment": "simulate", "simulate": {"horizon": 1.005, "dt": 0.01}}
    assert load_config(_write_cfg(tmp_path, data)).simulate.horizon == 1.005


# ---------------------------------------------------------------------------
# harness runs


def test_simulate_torus_writes_trajectory_and_defect(tmp_path):
    cfg = parse_config(
        {
            "experiment": "simulate",
            "seed": SEED,
            "output_dir": str(tmp_path),
            "model": {"name": "torus-winding"},
            "simulate": {"horizon": 2.0, "dt": 0.01, "replicas": 4},
        }
    )
    report = run(cfg)
    assert report.results["max_leaf_defect"] <= 1e-9
    csv = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert csv[0] == "time,point_id,a,b,lift_a,lift_b,class_id,leaf_defect"
    assert len(csv) > 100
    assert (tmp_path / "report.json").exists()


def test_trajectory_csv_leaf_defect_peaks_at_the_reported_defect():
    # one per-time defect array feeds the report and the CSV; a per-row
    # scalar formula differs from the report's in the last bits here
    cfg = load_config(CONFIGS / "simulate-torus.yaml")
    cfg = dataclasses.replace(cfg, output_dir="out", simulate=dataclasses.replace(cfg.simulate, replicas=5))
    report = run(cfg)
    rows = Path("out/trajectory.csv").read_text().splitlines()
    assert rows[0].split(",")[-1] == "leaf_defect"
    column = [float(row.split(",")[-1]) for row in rows[1:]]
    assert max(column) == report.results["per_replica_defects"][0] > 0.0


def test_simulate_perturbed_cylinder_repeated_start_shares_class(tmp_path):
    start = {"theta": 0.3, "r": 1.0, "z": 0.5}
    cfg = parse_config(
        {
            "experiment": "simulate",
            "seed": SEED,
            "output_dir": str(tmp_path),
            "perturbation": {"lambda0": 1.0, "k3": "sine", "angular": "cosine"},
            "simulate": {"horizon": 1.005, "dt": 0.01, "replicas": 2, "eps": 0.1,
                         "starts": [start, {"theta": 1.0, "r": 2.0}, start]},
        }
    )
    report = run(cfg)
    assert report.results["max_leaf_defect"] > 0.0
    rows = [line.split(",") for line in (tmp_path / "trajectory.csv").read_text().splitlines()[1:]]
    class_of = {pid: {r[5] for r in rows if r[1] == pid} for pid in ("0", "1", "2")}
    assert class_of == {"0": {"0"}, "1": {"1"}, "2": {"0"}}
    assert max(float(r[0]) for r in rows) == 1.005


# One simulate run for each way n_point_motion moves its points, and the
# sha256 of its payload, trajectory.csv and leaf_defects.csv, computed while
# the harness still ran the coalescing circle through evolve_coalescing_circle
# itself and cylinder_trajectory still built the eps = 0 path by hand.  The two
# cylinder runs, which draw jump clocks, were re-pinned when the jump gaps
# became inverted Philox uniforms, and every noise-driven file when
# the streams became addresses in the Philox counter.
_SIMULATE_RUNS = {
    "coalescing-circle": {
        "model": {"name": "coalescing-circle", "sigma": 0.7},
        "simulate": {"horizon": 2.0, "dt": 0.01, "replicas": 4,
                     "starts": [{"theta": 0.0}, {"theta": 0.2}, {"theta": 0.0}, {"theta": 3.0, "r": 2.0}]},
    },
    "cylinder-eps0": {
        "perturbation": {"lambda0": 1.0, "k3": "sine", "angular": "cosine"},
        "simulate": {"horizon": 2.0, "dt": 0.01, "replicas": 3, "eps": 0.0,
                     "starts": [{"theta": 0.3, "r": 1.0, "z": 0.5}, {"theta": 1.0, "r": 2.0}]},
    },
    "perturbed-cylinder": {
        "perturbation": {"lambda0": 1.0, "k3": "sine", "angular": "cosine"},
        "simulate": {"horizon": 1.005, "dt": 0.01, "replicas": 3, "eps": 0.1,
                     "starts": [{"theta": 0.3, "r": 1.0, "z": 0.5}, {"theta": 1.0, "r": 2.0},
                                {"theta": 0.3, "r": 1.0, "z": 0.5}]},
    },
    "torus-v": {
        "model": {"name": "torus-winding", "v": [0.6, 0.8]},
        "simulate": {"horizon": 2.0, "dt": 0.01, "replicas": 3,
                     "starts": [{"a": 0.2, "b": 0.7}, {"a": 0.9, "b": 0.1}]},
    },
}
_SIMULATE_SHA256 = {
    "coalescing-circle": {
        "payload": "f8820821913160489ae502de020c077e14769668b79a098c497679af1e1f7e6e",
        "trajectory.csv": "33f798afd15f47029bdd809496b75ea917b20dd1900eaea8e994b139580dbf6a",
        "leaf_defects.csv": "32b7c0a48674cc8900ade7a02a71e2ade22f0ebb661a2bac603e64bb479c3697",
    },
    "cylinder-eps0": {
        "payload": "bf2784a51dc50180d9ce5ac530b47c20bdb008677db4d5a279c9388f36dbc2aa",
        "trajectory.csv": "11a45fa4e62b66f9192217e758ff526f59265e63739cb070355db4c2c9af24dd",
        "leaf_defects.csv": "06f649bffb265cd99289a1bace665a3b169d1fea6a1e207ec5cb568b91726c3e",
    },
    "perturbed-cylinder": {
        "payload": "9c5f339b01800cbf7c15139506e6ac41dd1479372718a6dd1d440a41e98e679e",
        "trajectory.csv": "b995e36e80c673b7d980e59d4ded79e7dacdef5d8d04c2b7a6f67c58d57f159e",
        "leaf_defects.csv": "91d474ac2adea3fd8dc6e7086f3eba796df586c2951aae7fefb89e01b0c0aa1d",
    },
    "torus-v": {
        "payload": "d95d2af3e945c6faa9511aa4108135ad68c34f11ba4be246cd3dd47a9f840a94",
        "trajectory.csv": "c08dd9ee55f1efa520144df26287024f5b17750eb23a96fab2f16c8c7342f349",
        "leaf_defects.csv": "6115cd4c6d7e4eb3b50f73c48b2591992a49f6d84bd00fce879df89396ec3daf",
    },
}


@pytest.mark.parametrize("name", sorted(_SIMULATE_RUNS))
def test_simulate_payload_and_artifacts_are_pinned(name):
    report = run(parse_config({"experiment": "simulate", "seed": SEED, "output_dir": "out", **_SIMULATE_RUNS[name]}))
    written = {f: hashlib.sha256(Path("out", f).read_bytes()).hexdigest() for f in ("trajectory.csv", "leaf_defects.csv")}
    assert {"payload": _sha256_json(report.payload()), **written} == _SIMULATE_SHA256[name]


def test_simulate_coalescing_circle_trajectory_shows_its_merges():
    # replica 0 merges point 1 into point 0; point 2 starts on point 0, and
    # point 3, alone on its leaf, never merges
    report = run(parse_config({"experiment": "simulate", "seed": SEED, "output_dir": "out",
                               **_SIMULATE_RUNS["coalescing-circle"]}))
    assert report.results["max_leaf_defect"] == 0.0
    rows = [line.split(",") for line in Path("out/trajectory.csv").read_text().splitlines()[1:]]
    class_of = {pid: {r[-2] for r in rows if r[1] == pid} for pid in ("0", "1", "2", "3")}
    assert class_of == {"0": {"0"}, "1": {"1", "0"}, "2": {"0"}, "3": {"3"}}


@pytest.mark.parametrize("write_artifacts", [True, False])
def test_simulate_coalescing_circle_draws_only_the_paths_trajectory_csv_shows(monkeypatch, write_artifacts):
    # every replica's leaf defects come from the starts; only replica 0's
    # trajectory.csv reads states, one sample_brownian path per point
    calls = []
    original = flows.sample_brownian

    def counting(key, *args, **kwargs):
        calls.append(key.replica_id)
        return original(key, *args, **kwargs)

    monkeypatch.setattr(flows, "sample_brownian", counting)
    cfg = parse_config({"experiment": "simulate", "seed": SEED, "output_dir": "out",
                        **_SIMULATE_RUNS["coalescing-circle"]})
    report = run(cfg, write_artifacts=write_artifacts)
    assert cfg.simulate.replicas == 4
    assert calls == ([0] * len(cfg.simulate.starts) if write_artifacts else [])
    assert _sha256_json(report.payload()) == _SIMULATE_SHA256["coalescing-circle"]["payload"]


def _simulate_peak_bytes(replicas: int) -> int:
    cfg = parse_config({"experiment": "simulate", "seed": SEED, "model": {"name": "torus-winding"},
                        "simulate": {"horizon": 2.0, "dt": 0.001, "replicas": replicas}})
    tracemalloc.start()
    try:
        run(cfg, write_artifacts=False)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_simulate_memory_does_not_grow_with_replicas():
    # only replica 0's series outlives its iteration; every other replica
    # leaves one float, so 8 replicas peak within one series of 2 replicas
    series = n_point_motion(TorusWinding.dense_default(), [TorusPoint.from_coords(0.2, 0.7)],
                            StreamKey(SEED), 2.0, 0.001)
    one_series = series.times.nbytes + series.states.nbytes + series.class_ids.nbytes
    _simulate_peak_bytes(2)  # first-call caches
    assert abs(_simulate_peak_bytes(8) - _simulate_peak_bytes(2)) < one_series


def test_rates_run_matches_manual_composition(tmp_path):
    # the end-to-end run equals composing the module operations directly
    cfg = parse_config(_rates_config(out=str(tmp_path)))
    report = run(cfg)
    manual = averaging_error(
        RotationJumpCylinder(),
        PerturbationField(lambda0=1.0, k3="zero", angular="cosine"),
        0.2,
        1.0,
        2.0,
        20,
        StreamKey(SEED),
        dt=0.02,
        start=CylPoint(0.0, 1.0, 0.0),
    )
    assert report.results["errors"][0] == manual.estimate
    assert report.results["slope"] is not None
    assert "averaged_field_lipschitz_measured" in report.results


def test_average_kind_reports_decompositions(tmp_path):
    data = _rates_config(out=str(tmp_path))
    data["experiment"] = "average"
    report = run(parse_config(data))
    assert report.results["pathwise_bound_violations"] == 0
    rows = report.results["decompositions"]
    assert rows.shape == (3 * 20 * 2, 8)  # eps x replicas x components
    assert "slope" not in report.results


def test_coalesce_run_and_plotdata(tmp_path):
    cfg = parse_config(
        {
            "experiment": "coalesce",
            "seed": SEED,
            "output_dir": str(tmp_path),
            "model": {"name": "coalescing-circle", "sigma": 1.5},
            "coalesce": {"horizon": 15.0, "dt": 0.01, "replicas": 40},
        }
    )
    report = run(cfg)
    assert report.results["cross_leaf_coalescences"] == 0
    frac = report.results["fraction_coalesced"]
    assert all(b >= a for a, b in zip(frac, frac[1:]))  # monotone nondecreasing
    lines = (tmp_path / "coalescence_fraction.csv").read_text().splitlines()
    assert lines[0] == "time,fraction_coalesced"
    fractions = [float(l.split(",")[1]) for l in lines[1:]]
    assert fractions == sorted(fractions)


def test_kernel_check_artifacts(tmp_path):
    cfg = parse_config({"experiment": "kernel-check", "seed": 1, "output_dir": str(tmp_path)})
    report = run(cfg)
    assert report.results["max_defect"] <= 1e-12
    data = json.loads((tmp_path / "kernel_defects.json").read_text())
    checks = {r["check"] for r in data}
    assert {"row-sums", "compatibility", "diagonal-preserving", "foliated-off-leaf-mass"} <= checks


def test_kernel_check_diagnostics_stay_outside_the_payload(tmp_path, capsys):
    # 3 times with t1 + t3 == t2 + t2 (on the float grid too): 6 pairs, 5 totals
    times = [math.pi / 2.0, math.pi, 1.5 * math.pi]
    data = {"experiment": "kernel-check", "output_dir": str(tmp_path / "out"),
            "kernel_check": {"m": 4, "leaves": [[1.0, 0.0], [2.0, 0.0]], "times": times}}
    assert len({s + t for i, s in enumerate(times) for t in times[i:]}) == 5
    report = run(parse_config(data), write_artifacts=False)
    n = 8  # states: 4 sites on 2 leaves
    assert report.diagnostics == {
        "kernels_built": 2 * 3 + 5,  # 1-point and pair kernel per time, one direct per total
        "semigroup_pairs": 6,
        "gap_rows": 3 * (n * n + n) + 6 * n,
    }
    assert set(report.payload()) == {"schema", "experiment", "config", "replicas", "results"}
    assert not any(key in json.dumps(report.payload()) for key in report.diagnostics)
    assert cli_main(["kernel-check", "--config", _write_cfg(tmp_path, data)]) == 0
    summary = json.loads(capsys.readouterr().out.strip())
    assert summary["semigroup_pairs"] == 6
    written = json.loads((tmp_path / "out" / "report.json").read_text())
    assert written["diagnostics"] == report.diagnostics


@pytest.mark.parametrize("kind", ["kernel-check", "rates", "coalesce"])
def test_timings_count_compute_and_artifacts_outside_the_payload(tmp_path, kind):
    data = {"experiment": kind, "output_dir": str(tmp_path / "out"), **_SMALL_RUNS[kind]}
    report = run(parse_config(data))
    assert set(report.timings) == {"compute_s", "artifacts_s"}
    assert report.timings["compute_s"] == report.wall_clock_seconds >= 0.0
    assert report.timings["artifacts_s"] >= 0.0
    assert "timings" not in report.payload()
    written = json.loads((tmp_path / "out" / "report.json").read_text())
    assert written["timings"] == report.timings
    assert written["wall_clock_seconds"] == report.wall_clock_seconds
    assert run(parse_config(data), write_artifacts=False).timings["artifacts_s"] == 0.0


_KERNEL_DENSE_V2 = {
    "payload": "02064382ec192fe7262f2d2e2908f59b37280e286e4c6e2cf8540d7bb63a04ab",
    "report.json": "fdc2a826bd98e78b8d6e94a377d49401b7b4fe69c8769e0dc234b0158b6831ce",
}


def test_kernel_dense_payload_and_artifacts_are_pinned():
    # the benchmark's kernel-dense shape: m = 32 on 2 leaves, times 2*pi*k/32
    # for k = 1..32, so 528 semigroup pairs over 99 distinct float totals
    # (t1 + t3 == t2 + t2, but t1 + t12 and t2 + t11 differ in the last bit);
    # every v1 sha256 was computed before the semigroup law was checked in
    # batched passes
    m = 32
    data = {"experiment": "kernel-check", "seed": 1, "output_dir": "out",
            "kernel_check": {"m": m, "leaves": [[1.0, 0.0], [2.0, 0.0]],
                             "times": [2.0 * math.pi * k / m for k in range(1, m + 1)]}}
    report = run(parse_config(data))
    assert _sha256_json(_v1_payload(report)) == (
        "5e88b054ae66630665f80c8f2ecc5e21082f8b87f8e058950019e7f10d6af8a9"
    )
    assert _sha256_json(report.payload()) == _KERNEL_DENSE_V2["payload"]
    assert _artifact_sha256(Path("out"))["report.json"] == _KERNEL_DENSE_V2["report.json"]
    written = _artifact_sha256(Path("out"), v1=True)
    kernel_files = "\n".join(f"{name} {sha}" for name, sha in written.items() if name.startswith("kernel_t"))
    assert len(written) == 35
    assert hashlib.sha256(kernel_files.encode()).hexdigest() == (
        "b092522f89c3071296caa60e9681ef94e1c2d5862eb075397b5317204a0a72a8"
    )
    # the row-sparse dumps as written
    sparse = _artifact_sha256(Path("out"))
    sparse_files = "\n".join(f"{name} {sha}" for name, sha in sparse.items() if name.startswith("kernel_t"))
    assert hashlib.sha256(sparse_files.encode()).hexdigest() == (
        "89451e35bfaabef75c9b6d00fd410e5cfd8a129811289aece8cddeabfc9a9b44"
    )
    assert {name: sha for name, sha in written.items() if not name.startswith("kernel_t")} == {
        "kernel_defects.csv": "853dc75742a2d7ef61748596846742cdc5cfc2395d334421a290173c2f787355",
        "kernel_defects.json": "087dc67704182668dcc791af128fa33db1efd03d439b073488cfe2056c7efb54",
        "report.json": "e36b1cb83b6363326ad04c8cc145b272e55e4dd0a7e656daba132c4330807203",
    }
    assert report.diagnostics == {
        "kernels_built": 32 + 32 + 99, "semigroup_pairs": 528, "gap_rows": 32 * (64**2 + 64) + 528 * 64,
    }


def test_rates_csv_sorted_ascending(tmp_path):
    cfg = parse_config(_rates_config(out=str(tmp_path)))
    run(cfg)
    lines = (tmp_path / "rates_error.csv").read_text().splitlines()
    assert lines[0] == "eps,error"
    eps = [float(l.split(",")[0]) for l in lines[1:]]
    assert eps == sorted(eps)


def test_rate_report_wire_schema(tmp_path):
    cfg = parse_config(_rates_config(out=str(tmp_path)))
    run(cfg)
    body = json.loads((tmp_path / "rate_report.json").read_text())
    assert set(body) == {
        "model", "K", "p", "eps_grid", "errors", "std_errors", "G_values",
        "slope", "r2", "flags",
    }
    assert body["model"] == "rotation-jump-cylinder"
    assert body["K"] == {"lambda0": 1.0, "k3": "zero", "angular": "cosine"}
    assert len(body["errors"]) == len(body["eps_grid"]) == 3


def test_emit_plotdata_empty_report_warns(tmp_path):
    from foliated_flows.harness import RunReport

    empty = RunReport(
        experiment="rates",
        config={},
        results={"eps_grid": [], "errors": [], "std_errors": [], "G_values": [],
                 "decompositions": np.empty((0, 8))},
        replicas=0,
        wall_clock_seconds=0.0,
    )
    with pytest.warns(UserWarning) as caught:
        files = emit_plotdata(empty, tmp_path)
    assert (tmp_path / "rates_error.csv").read_text().splitlines() == ["eps,error"]
    assert any("decomposition.npy" in str(w.message) for w in caught)
    assert np.load(tmp_path / "decomposition.npy").shape == (0, 8)
    assert files
    assert empty.payload()["results"]["decompositions"] == {
        "sha256": hashlib.sha256(b"").hexdigest(), "shape": [0, 8],
    }


# ---------------------------------------------------------------------------
# determinism


def test_rerun_reproduces_report_payload(tmp_path):
    cfg_a = parse_config(_rates_config(out=str(tmp_path / "a")))
    cfg_b = parse_config(_rates_config(out=str(tmp_path / "b")))
    pa = run(cfg_a).payload()
    pb = run(cfg_b).payload()
    pa["config"]["output_dir"] = pb["config"]["output_dir"] = ""
    assert json.dumps(pa, sort_keys=True) == json.dumps(pb, sort_keys=True)


def test_parallel_run_reproduces_serial(tmp_path):
    cfg = parse_config(_rates_config(out=str(tmp_path / "serial")))
    serial = run(cfg, threads=1).payload()
    cfg2 = parse_config(_rates_config(out=str(tmp_path / "parallel")))
    parallel = run(cfg2, threads=4).payload()
    serial["config"]["output_dir"] = parallel["config"]["output_dir"] = ""
    assert json.dumps(serial, sort_keys=True) == json.dumps(parallel, sort_keys=True)


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


# Results that follow from the averaged ODE's v(t): the RK4 solve gave them at
# rounding level, the closed form gives them exactly.  The measure's
# quadrature_points and dt config keys went with the quadrature.
_V_RESULTS = ("errors", "std_errors", "slope", "intercept", "r_squared", "flags",
              "averaged_field_lipschitz_measured")
_V_PER_EPS = ("error", "std_error", "v_final")


def _without_averaged_ode(payload: dict) -> dict:
    results = {k: v for k, v in payload["results"].items() if k not in _V_RESULTS}
    results["per_eps"] = [
        {k: v for k, v in row.items() if k not in _V_PER_EPS} for row in results["per_eps"]
    ]
    averaging = dict(payload["config"]["averaging"])
    averaging["measure"] = {
        k: v for k, v in averaging["measure"].items() if k not in ("quadrature_points", "dt")
    }
    return {**payload, "config": {**payload["config"], "averaging": averaging}, "results": results}


# the same payloads under schema v2, less what follows from v(t)
_AVERAGING_V2 = {
    "rates-cosine": "63c908e0529ce4834ac27258297e4593bcbc6b0e493d5cff5a3490b8f361c188",
    "average-commuting": "524576b12f83a618cf83f7e5acaedb83391a3f16330f2c3349ced617cf710c89",
}


@pytest.mark.parametrize(
    "name, replicas, sha256",
    [
        ("rates-cosine", 200, "3a896d4d42d29265c63da1736278e0bb3b1376161a779bc763463829595993c8"),
        ("average-commuting", 40, "ffab0ed36b0652befdba0d564799f426042cad2f882d615df9731903415232f9"),
    ],
)
def test_averaging_payload_equals_per_replica_reference(name, replicas, sha256):
    # sha256 of the v1 payload, less what follows from v(t), that the
    # per-replica implementation (a record grid, one decomposition per replica
    # and an RK4 averaged ODE) gave on this config; rates-cosine's were
    # re-pinned when the jump gaps became inverted Philox uniforms and when
    # the streams became addresses in the Philox counter
    cfg = load_config(CONFIGS / f"{name}.yaml")
    cfg = dataclasses.replace(cfg, averaging=dataclasses.replace(cfg.averaging, replicas=replicas))
    report = run(cfg, write_artifacts=False)
    assert _sha256_json(_without_averaged_ode(_v1_payload(report))) == sha256
    assert _sha256_json(_without_averaged_ode(report.payload())) == _AVERAGING_V2[name]


def test_empirical_averaging_payload_is_pinned():
    # sha256 of the whole v1 payload (errors, v_final and the measured
    # Lipschitz constant included) of an empirical-measure rates run where k3
    # moves z, as the code gave before the averaged field became one float,
    # re-pinned when the jump gaps became inverted Philox uniforms and when
    # the streams became addresses in the Philox counter
    cfg = load_config(CONFIGS / "rates-cosine.yaml")
    cfg = dataclasses.replace(
        cfg, output_dir="",
        perturbation=PerturbationField(lambda0=1.0, k3="sine", angular="cosine"),
        averaging=dataclasses.replace(
            cfg.averaging, replicas=200, start={"theta": 0.0, "r": 1.0, "z": 0.5},
            measure=InvariantMeasureSpec(mode="empirical"),
        ),
    )
    report = run(cfg, write_artifacts=False)
    assert _sha256_json(_v1_payload(report)) == (
        "6b5021fa1c809faf2fa6e98bf8248e4bc58575963a67678e574a61da2af73219"
    )
    assert _sha256_json(report.payload()) == (
        "0b001d203c63d4163cebef123a8185a31c72fb6547fee163ef3161130f19edb7"
    )


def test_average_exits_payload_is_pinned():
    # sha256 of the payload computed while every exiting replica's exit was
    # searched on its own, re-pinned when the jump gaps became inverted
    # Philox uniforms and when the streams became addresses in the Philox counter;
    # about 37 % of the replicas leave the manifold
    report = run(load_config(CONFIGS / "average-exits.yaml"), write_artifacts=False)
    assert [row["n_exited"] for row in report.results["per_eps"]] == [380, 376, 341]
    assert _sha256_json(report.payload()) == (
        "5245246376eb631da33bab1e1f60ea5bace3afc0f328f10aeee0b1725a63f63a"
    )


# the payload sha256 of each averaging sample config at a replica count,
# computed before averaging runs reported their diagnostics (the two with a
# cos term re-pinned when the jump gaps became inverted Philox uniforms and
# when the streams became addresses in the Philox counter)
_AVERAGING_PAYLOAD_SHA256 = {
    "rates-cosine": (200, "cf2e91555bfb62a52306bf8b6931fc996bd75fbb833f1569d555281d087cbeec"),
    "average-commuting": (40, "0ab8e1e7ecaafe2fd52e3b2675c6d453cadcec40630b2f27f295919c191a742b"),
    "average-exits": (1000, "5245246376eb631da33bab1e1f60ea5bace3afc0f328f10aeee0b1725a63f63a"),
}


@pytest.mark.parametrize("name", sorted(_AVERAGING_PAYLOAD_SHA256))
def test_averaging_diagnostics_are_direct_recounts(name):
    replicas, payload_sha256 = _AVERAGING_PAYLOAD_SHA256[name]
    cfg = load_config(CONFIGS / f"{name}.yaml")
    av = dataclasses.replace(cfg.averaging, replicas=replicas)
    report = run(dataclasses.replace(cfg, averaging=av), write_artifacts=False)
    assert _sha256_json(report.payload()) == payload_sha256
    assert av.f_choice == "sqrt"
    key, angular = StreamKey(cfg.seed), cfg.perturbation.has_angular
    # the jumps on [0, t/eps] of every replica's own stream; without a cos term none is read
    jumps = [sum(sample_poisson_jumps(key.replica(i), 1.0, av.t / eps).size for i in range(replicas)) * angular
             for eps in av.eps_grid]
    # the sqrt partition has int(eps^(-1/2)) full intervals
    intervals = [{0.2: 2, 0.1: 3, 0.05: 4, 0.025: 6, 0.0125: 8, 0.01: 10}[eps] for eps in av.eps_grid]
    # the decomposition rows (eps, replica, component, a1..a4, delta) hold two rows per replica that stayed
    rows = report.results["decompositions"]
    exits = [replicas - int(np.count_nonzero(rows[:, 0] == eps)) // 2 for eps in av.eps_grid]
    a = np.abs(rows[:, 3:])
    sup_g = np.array([cfg.perturbation.sup_radial(), cfg.perturbation.sup_vertical(cfg.region)])
    limit = sup_g[rows[:, 2].astype(int) - 1] * av.t * np.sqrt(rows[:, 0])
    failed = (a[:, 4] - a[:, :4].sum(axis=1) > TRIANGLE_TOL).astype(int) + (a[:, 3] > limit + TRIANGLE_TOL)
    violations = [int(failed[rows[:, 0] == eps].sum()) for eps in av.eps_grid]
    assert report.diagnostics == {
        "jumps": jumps, "partition_intervals": intervals, "exits": exits, "violations": violations,
    }
    assert exits == [row["n_exited"] for row in report.results["per_eps"]]
    assert sum(violations) == report.results["pathwise_bound_violations"]
    assert all(jumps) == angular


def test_averaged_side_is_exact_on_the_sample_configs():
    # rates-cosine: v(t) = (r0 + lambda0 t, z0) = (2, 0).  average-commuting:
    # K = (0, 1, sin z) commutes, so every replica ends exactly on v(t), and
    # as a rates run it is the exact case, with no slope fitted to rounding
    def results(name, experiment=None, **averaging):
        cfg = load_config(CONFIGS / f"{name}.yaml")
        cfg = dataclasses.replace(
            cfg, experiment=experiment or cfg.experiment,
            averaging=dataclasses.replace(cfg.averaging, **averaging),
        )
        return run(cfg, write_artifacts=False).results

    rates = results("rates-cosine", replicas=20)
    assert [row["v_final"] for row in rates["per_eps"]] == [[2.0, 0.0]] * 5
    assert results("average-commuting", replicas=10)["errors"] == [0.0, 0.0]
    commuting = results("average-commuting", "rates", replicas=10, eps_grid=(0.2, 0.1, 0.05, 0.01))
    assert commuting["errors"] == [0.0] * 4
    assert commuting["flags"] == ["exact", "zero-errors"]
    assert commuting["slope"] is None


def test_different_seed_changes_results(tmp_path):
    a = run(parse_config(_rates_config(seed=1, out=str(tmp_path / "a"))))
    b = run(parse_config(_rates_config(seed=2, out=str(tmp_path / "b"))))
    assert a.results["errors"] != b.results["errors"]


# ---------------------------------------------------------------------------
# CLI


def _write_cfg(tmp_path, data):
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(data))
    return str(path)


def test_cli_runs_and_prints_summary(tmp_path, capsys):
    path = _write_cfg(tmp_path, _rates_config(out=str(tmp_path / "out"), replicas=5))
    code = cli_main(["rates", "--config", path])
    assert code == 0
    summary = json.loads(capsys.readouterr().out.strip())
    assert summary["experiment"] == "rates"


def test_cli_quiet_suppresses_summary(tmp_path, capsys):
    path = _write_cfg(tmp_path, _rates_config(out=str(tmp_path / "out"), replicas=5))
    assert cli_main(["rates", "--config", path, "--quiet"]) == 0
    assert capsys.readouterr().out == ""


def test_cli_overrides_seed_out_replicas(tmp_path):
    path = _write_cfg(tmp_path, _rates_config(out=str(tmp_path / "ignored"), replicas=5))
    out = tmp_path / "custom"
    code = cli_main(
        ["rates", "--config", path, "--seed", "99", "--out", str(out), "--replicas", "3", "--quiet"]
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["seed"] == 99
    assert report["config"]["averaging"]["replicas"] == 3


# small runs of every kind; --replicas sets the replicas of the kind's section
_SMALL_RUNS = {
    "simulate": {"simulate": {"horizon": 0.5, "dt": 0.01, "replicas": 5}},
    "kernel-check": {"kernel_check": {"m": 4, "times": [math.pi / 2.0]}},
    "average": {"averaging": {"eps_grid": [0.1], "replicas": 5}},
    "rates": {"averaging": {"eps_grid": [0.2, 0.1, 0.05], "replicas": 5}},
    "coalesce": {"coalesce": {"horizon": 1.0, "dt": 0.01, "replicas": 5}},
}


@pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
def test_cli_replicas_override_every_kind(tmp_path, capsys, kind):
    out = tmp_path / "out"
    path = _write_cfg(tmp_path, {"experiment": kind, "output_dir": str(out), **_SMALL_RUNS[kind]})
    code = cli_main([kind, "--config", path, "--replicas", "3", "--quiet"])
    if kind == "kernel-check":  # the message is checked by test_cli_rejects_replicas_for_kernel_check
        assert code == 2
        assert not out.exists()
        return
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    section = {"simulate": "simulate", "average": "averaging", "rates": "averaging",
               "coalesce": "coalesce"}[kind]
    assert report["replicas"] == report["config"][section]["replicas"] == 3


def test_cli_validation_failure_exit_2(tmp_path, capsys):
    data = _rates_config()
    data["averaging"]["eps_grid"] = [2.0]
    path = _write_cfg(tmp_path, data)
    code = cli_main(["rates", "--config", path, "--quiet"])
    assert code == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "config"
    assert any("make_partition" in f for f in record["fields"])


def test_cli_missing_config_exit_2(tmp_path, capsys):
    code = cli_main(["simulate", "--config", str(tmp_path / "nope.yaml"), "--quiet"])
    assert code == 2
    assert json.loads(capsys.readouterr().err.strip())["error"] == "config"


@pytest.mark.parametrize(
    "content, line",
    [
        (b"coalesce: {horizon: 1.0\n", 2),  # unclosed flow mapping: a parser error
        (b"coalesce:\n\thorizon: 1.0\n", 2),  # a tab cannot start a token: a scanner error
        (b"\xff\xfe", None),  # not UTF-8
    ],
)
def test_cli_malformed_yaml_exit_2(tmp_path, capsys, content, line):
    path = tmp_path / "cfg.yaml"
    path.write_bytes(content)
    assert cli_main(["coalesce", "--config", str(path), "--quiet"]) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "config"
    [field] = record["fields"]
    assert field.startswith(f"{path}, line {line}," if line else f"{path}: ")


@pytest.mark.parametrize(
    "kind, section, field",
    [
        ("simulate", {"simulate": {"starts": [{"theta": "abc"}]}}, "config.simulate.starts[0].theta"),
        ("simulate", {"simulate": {"starts": [{"r": -1.0}]}}, "config.simulate.starts[0].r"),
        ("simulate", {"simulate": {"starts": [{"r": float("nan")}]}}, "config.simulate.starts[0].r"),
        ("simulate", {"simulate": {"starts": [{"theta": 0.0, "w": 1.0}]}}, "config.simulate.starts[0].w"),
        ("simulate", {"model": {"name": "torus-winding"}, "simulate": {"starts": [{"theta": 0.0}]}},
         "config.simulate.starts[0].theta"),
        ("simulate", {"simulate": {"starts": [[0.0, 1.0]]}}, "config.simulate.starts[0]"),
        ("simulate", {"model": {"name": "torus-winding", "v": [float("nan"), 1.0]}}, "config.model.v"),
        ("kernel-check", {"kernel_check": {"leaves": [["one", 0.0]]}}, "config.kernel_check.leaves[0]"),
        ("kernel-check", {"kernel_check": {"leaves": [[float("inf"), 0.0]]}}, "config.kernel_check.leaves[0]"),
        ("kernel-check", {"kernel_check": {"leaves": [[1.0, 0.0], [-1.0, 0.0]]}}, "config.kernel_check.leaves[1]"),
        ("kernel-check", {"kernel_check": {"times": [float("nan")]}}, "config.kernel_check.times[0]"),
        ("kernel-check", {"kernel_check": {"leaves": [[1.0, 0.0], [1.0, 0.0]]}}, "config.kernel_check.leaves[1]"),
        ("rates", {"averaging": {"start": {"z": 9.0}}}, "config.averaging.start"),
        ("average", {"averaging": {"start": {"r": 0.2}}}, "config.averaging.start"),
        ("average", {"region": {"z_max": 0.5}}, "config.averaging.start"),
        ("kernel-check", {"kernel_check": {"times": []}}, "config.kernel_check.times"),
        ("kernel-check", {"kernel_check": {"leaves": []}}, "config.kernel_check.leaves"),
        ("rates", {"averaging": {"eps_grid": []}}, "config.averaging.eps_grid"),
        ("rates", {"model": {"name": "torus-winding"}}, "config.model.name"),
        ("average", {"model": {"name": "coalescing-circle"}}, "config.model.name"),
        ("kernel-check", {"kernel_check": {"times": [-math.pi / 4.0]}}, "config.kernel_check.times[0]"),
        ("simulate", {"simulate": {"horizon": 0.005, "dt": 0.01}}, "config.simulate.dt"),
        # times that repeat, or whose kernel dumps would share one file name
        ("kernel-check", {"kernel_check": {"times": [math.pi, 0.0, math.pi]}}, "config.kernel_check.times[2]"),
        ("kernel-check", {"kernel_check": {"times": [0.0, -0.0]}}, "config.kernel_check.times[1]"),
        ("kernel-check", {"kernel_check": {"times": [math.pi / 4.0, math.nextafter(math.pi / 4.0, 1.0)]}},
         "config.kernel_check.times[1]"),
        # an eps repeated right after itself
        ("rates", {"averaging": {"eps_grid": [0.1, 0.1, 0.1]}}, "config.averaging.eps_grid[1]"),
        # a time repeated after a rejected entry
        ("kernel-check", {"kernel_check": {"times": [float("nan"), math.pi / 4.0, math.pi / 4.0]}},
         "config.kernel_check.times[2]"),
    ],
)
def test_cli_invalid_start_or_leaf_exit_2(tmp_path, capsys, kind, section, field):
    path = _write_cfg(tmp_path, {"experiment": kind, "output_dir": str(tmp_path / "out"), **section})
    assert cli_main([kind, "--config", path, "--quiet"]) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "config"
    assert any(f.startswith(field + ":") for f in record["fields"])


def test_config_rejects_a_repeated_eps():
    # a repeated eps would give the rate fit several copies of one error
    with pytest.raises(ConfigError) as info:
        parse_config({"experiment": "rates", "averaging": {"eps_grid": [0.1, 0.05, 0.1]}})
    assert info.value.problems == ["config.averaging.eps_grid[2]: repeats eps_grid[0] = 0.1"]
    with pytest.raises(ConfigError) as info:  # an invalid entry does not shift the indices
        parse_config({"experiment": "rates", "averaging": {"eps_grid": [2.0, 0.1, 0.05, 0.1]}})
    assert info.value.problems[1:] == ["config.averaging.eps_grid[3]: repeats eps_grid[1] = 0.1"]


def test_config_names_the_config_index_of_a_repeated_times_first_entry():
    # a rejected entry before the repeat does not shift the index named
    with pytest.raises(ConfigError) as info:
        parse_config({"experiment": "kernel-check",
                      "kernel_check": {"times": [float("nan"), math.pi / 4.0, math.pi / 4.0]}})
    assert info.value.problems == [
        "config.kernel_check.times[0]: expected a finite number",
        f"config.kernel_check.times[2]: repeats times[1] = {math.pi / 4.0}",
    ]
    with pytest.raises(ConfigError) as info:  # -0.0 repeats 0.0
        parse_config({"experiment": "kernel-check", "kernel_check": {"times": ["x", 0.0, math.pi, -0.0]}})
    assert info.value.problems[1:] == ["config.kernel_check.times[3]: repeats times[1] = -0.0"]


def test_cli_rejects_replicas_for_kernel_check(tmp_path, capsys):
    path = _write_cfg(tmp_path, {"experiment": "kernel-check", "output_dir": str(tmp_path / "out")})
    assert cli_main(["kernel-check", "--config", path, "--replicas", "5", "--quiet"]) == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "config"
    assert record["fields"] == ["--replicas: kernel-check runs no replicas"]
    assert not (tmp_path / "out").exists()


def test_kernel_times_are_checked_against_an_accepted_m_only():
    # 2*pi/3 lies on the grid of m = 3, which is rejected, but not on that of the default m = 8
    with pytest.raises(ConfigError) as info:
        parse_config({"experiment": "kernel-check", "kernel_check": {"m": 3, "times": [2.0 * math.pi / 3.0]}})
    assert info.value.problems == ["config.kernel_check.m: build_cylinder_kernel needs an even m >= 2 (got 3)"]
    with pytest.raises(ConfigError) as info:
        parse_config({"experiment": "kernel-check", "kernel_check": {"m": 4, "times": [2.0 * math.pi / 3.0]}})
    assert info.value.problems == [
        "config.kernel_check.times[0]: build_cylinder_kernel needs t a multiple of 2*pi/m"
    ]


def test_a_negative_zero_kernel_time_is_time_0(tmp_path):
    # -0.0 passes t >= 0; it once named its dump kernel_t-0.000000.json and
    # recorded t = -0.0, which the CSV wrote as -0
    cfg = parse_config({"experiment": "kernel-check", "output_dir": str(tmp_path),
                        "kernel_check": {"m": 4, "times": [-0.0, math.pi / 2.0]}})
    assert math.copysign(1.0, cfg.kernel_check.times[0]) == 1.0
    report = run(cfg)
    assert sorted(p.name for p in tmp_path.glob("kernel_t*.json")) == [
        "kernel_t0.000000.json", "kernel_t1.570796.json"]
    assert json.loads((tmp_path / "kernel_t0.000000.json").read_text())["t"] == 0.0
    records = report.results["records"]
    assert [r["t"] for r in records[:4]] == [0.0] * 4 and records[8]["t"] == 0.0
    assert all(math.copysign(1.0, r["t"]) == 1.0 for r in records)
    assert all(math.copysign(1.0, r["t"]) == 1.0 for r in json.loads((tmp_path / "kernel_defects.json").read_text()))
    csv = (tmp_path / "kernel_defects.csv").read_text()
    assert "row-sums,0," in csv and ",-0," not in csv


def test_config_checks_averaging_start_only_for_averaging_kinds():
    # the default averaging start (r, z) = (1, 1) lies outside this region
    for kind in ("simulate", "kernel-check", "coalesce"):
        parse_config({"experiment": kind, "region": {"z_max": 0.5}})


def test_cli_summary_counts_violations_and_exits(tmp_path, capsys):
    # lambda0 < 0 near r = 0: some replicas leave the manifold at eps = 0.9
    data = {
        "experiment": "average",
        "seed": SEED,
        "output_dir": str(tmp_path / "out"),
        "perturbation": {"lambda0": -0.4, "k3": "sine", "angular": "cosine"},
        "region": {"r_min": 0.01},
        "averaging": {
            "t": 0.5, "eps_grid": [0.9, 0.5], "replicas": 40,
            "start": {"theta": 1.0, "r": 0.25, "z": 0.5},
        },
    }
    assert cli_main(["average", "--config", _write_cfg(tmp_path, data)]) == 0
    summary = json.loads(capsys.readouterr().out.strip())
    report = json.loads((tmp_path / "out" / "report.json").read_text())["results"]
    assert summary["n_exited"] == sum(row["n_exited"] for row in report["per_eps"]) > 0
    assert summary["pathwise_bound_violations"] == report["pathwise_bound_violations"] == 0


def test_config_simulate_starts_keep_only_given_keys():
    data = {"experiment": "simulate", "simulate": {"starts": [{"theta": 1, "z": 0.5}, {}]}}
    cfg = parse_config(data)
    assert cfg.simulate.starts == ({"theta": 1.0, "z": 0.5}, {})
    assert cfg.to_dict()["simulate"]["starts"] == [{"theta": 1.0, "z": 0.5}, {}]


def test_cli_mismatched_subcommand_exit_2(tmp_path, capsys):
    path = _write_cfg(tmp_path, _rates_config())
    code = cli_main(["simulate", "--config", path, "--quiet"])
    assert code == 2
    capsys.readouterr()


@pytest.mark.parametrize("seed", [-5, -1, 2**64, 2**64 + 7])
def test_seed_outside_64_bits_is_a_config_error(tmp_path, capsys, seed):
    # -5 and 2**64 + 7 used to open the streams of 2**64 - 5 and 7
    data = {"experiment": "coalesce", "seed": seed, "output_dir": str(tmp_path / "out")}
    with pytest.raises(ConfigError) as info:
        parse_config(data)
    assert any(p.startswith("config.seed:") for p in info.value.problems)
    assert cli_main(["coalesce", "--config", _write_cfg(tmp_path, data), "--quiet"]) == 2
    assert any(f.startswith("config.seed:") for f in json.loads(capsys.readouterr().err)["fields"])
    data["seed"] = 1
    path = _write_cfg(tmp_path, data)
    assert cli_main(["coalesce", "--config", path, "--seed", str(seed), "--quiet"]) == 2
    assert json.loads(capsys.readouterr().err)["fields"][0].startswith("--seed:")
    assert not (tmp_path / "out").exists()


def test_seed_bounds_are_accepted():
    for seed in (0, 2**64 - 1):
        assert parse_config({"experiment": "coalesce", "seed": seed}).seed == seed


# three distinct classes on one leaf, which only the scan serves, and
# one point on its own leaf
_SCAN_STARTS = [{"theta": 0.0, "r": 1.0, "z": 0.0}, {"theta": 2.0, "r": 1.0, "z": 0.0},
                {"theta": 4.0, "r": 1.0, "z": 0.0}, {"theta": 0.0, "r": 2.0, "z": 0.0}]


def test_coalesce_payload_equals_per_replica_reference():
    # sha256 of the v1 and v2 payloads of the sample config with these starts
    # at 2000 replicas, as the scan gave them when harness called
    # coalescence_times directly, whose rows were then one call per replica's;
    # re-pinned when the streams became addresses in the Philox counter
    cfg = load_config(CONFIGS / "coalesce-circle.yaml")
    co = dataclasses.replace(cfg.coalesce, replicas=2000, starts=tuple(_SCAN_STARTS))
    report = run(dataclasses.replace(cfg, coalesce=co), write_artifacts=False)
    assert _sha256_json(_v1_payload(report)) == (
        "8fe6f03ec406551ed9f975e840f174520ce7885cd4b65a52693ec1d4f3ab9b9a"
    )
    assert _sha256_json(report.payload()) == (
        "8488a3f834724415b33fd30b1e9baba1cdb55567de3392ce8b668f6f8f49be69"
    )
    points = [CylPoint.from_angle(**s) for s in _SCAN_STARTS]
    replicas = np.arange(0, 2000, 97)
    batch = flows.coalescence_batch(points, StreamKey(SEED), 50.0, 0.01, 1.0, replicas=replicas)
    for rep, row in zip(replicas, batch.hit_times):
        one = flows.coalescence_times(points, StreamKey(SEED, int(rep)), 50.0, 0.01, 1.0)
        assert one.hit_times[0].tobytes() == row.tobytes()


def _scan_recount(points, horizon, dt, sigma, replicas):
    """Normals and merges of the scan, recounted from each replica's hit times.

    A point draws whole blocks of 512 steps, up to the horizon, until the
    block in which it stops sharing its leaf with another class: when it
    meets a lower point (its class is absorbed) or the last other class on
    its leaf joins it.
    """
    n_steps, normals, merges = round(horizon / dt), 0, 0
    n = len(points)
    for rep in range(replicas):
        hits = evolve_coalescing_circle(points, StreamKey(SEED, rep), horizon, dt, sigma=sigma).hit_times
        for x in range(n):
            leaf = [j for j in range(n) if j != x and points[j].leaf == points[x].leaf]
            if not leaf:
                continue
            absorbed = min([hits.get((i, x), math.inf) for i in range(x)] + [math.inf])
            alone = max(hits.get((min(x, j), max(x, j)), math.inf) for j in leaf)
            stop = min(absorbed, alone)
            k = n_steps if stop == math.inf else round(stop / dt)
            normals += min(n_steps, -(-k // 512) * 512)
        merges += sum(1 for j in range(n) if any(hits.get((i, j), math.inf) < math.inf for i in range(j)))
    return normals, merges


def test_coalesce_diagnostics_count_the_draws_outside_the_payload(tmp_path, capsys):
    # points 0, 1 and 2 share a leaf, 3 is alone: 0, 1 and 2 each open one
    # stream per replica and draw until their class no longer can merge
    data = {
        "experiment": "coalesce",
        "seed": SEED,
        "output_dir": str(tmp_path / "out"),
        "model": {"name": "coalescing-circle", "sigma": 0.5},
        "coalesce": {"horizon": 15.0, "dt": 0.01, "replicas": 30, "starts": _SCAN_STARTS},
    }
    report = run(parse_config(data), write_artifacts=False)
    points = [CylPoint.from_angle(**s) for s in _SCAN_STARTS]
    expected_normals, merged = _scan_recount(points, 15.0, 0.01, 0.5, 30)
    # as the scan counted them before the exact path, re-pinned when the
    # streams became addresses in the Philox counter
    assert (expected_normals, merged) == (110_588, 41)
    assert report.diagnostics == {
        "streams_opened": 90, "normals_drawn": expected_normals, "uniforms_drawn": 0, "merges": merged,
    }
    assert set(report.payload()) == {"schema", "experiment", "config", "replicas", "results"}
    assert json.loads(report.to_json())["diagnostics"] == report.diagnostics
    assert cli_main(["coalesce", "--config", _write_cfg(tmp_path, data)]) == 0
    summary = json.loads(capsys.readouterr().out.strip())
    assert summary["streams_opened"] == 90
    assert summary["normals_drawn"] == expected_normals
    assert summary["uniforms_drawn"] == 0


def test_coalesce_start_a_hair_below_zero_runs(tmp_path):
    # theta + 2 pi rounds to 2 pi for theta = -1e-17; the start wraps to 0.0,
    # so it equals a start at 0.0 and merges with it at time 0
    starts = [{"theta": -1.0e-17, "r": 1.0, "z": 0.0}, {"theta": 0.0, "r": 1.0, "z": 0.0},
              {"theta": 2.0, "r": 1.0, "z": 0.0}]
    data = {
        "experiment": "coalesce",
        "seed": SEED,
        "output_dir": str(tmp_path / "out"),
        "model": {"name": "coalescing-circle", "sigma": 0.5},
        "coalesce": {"horizon": 1.0, "dt": 0.01, "replicas": 3, "starts": starts},
    }
    assert cli_main(["coalesce", "--config", _write_cfg(tmp_path, data), "--quiet"]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["results"]["pairs"]["0-1"]["coalesced"] == 3


def test_simulate_torus_start_a_hair_below_zero_runs(tmp_path):
    # -1e-17 minus its floor rounds to 1.0; the start wraps to a = 0.0
    data = {
        "experiment": "simulate",
        "seed": SEED,
        "output_dir": str(tmp_path / "out"),
        "model": {"name": "torus-winding"},
        "simulate": {"horizon": 0.1, "dt": 0.01, "replicas": 2, "starts": [{"a": -1.0e-17, "b": 0.5}]},
    }
    assert cli_main(["simulate", "--config", _write_cfg(tmp_path, data), "--quiet"]) == 0
    first = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()[1].split(",")
    assert [float(x) for x in first[2:6]] == [0.0, 0.5, 0.0, 0.5]


def test_coalesce_exact_path_counts_one_uniform_per_pair_and_replica(tmp_path, capsys):
    # a pair alone on each of two leaves: no normals, one stream and one
    # uniform per pair and replica, and a merge for each finite hit time
    starts = [{"theta": 0.0, "r": 1.0, "z": 0.0}, {"theta": 3.0, "r": 1.0, "z": 0.0},
              {"theta": 1.0, "r": 2.0, "z": 0.0}, {"theta": 1.5, "r": 2.0, "z": 0.0}]
    data = {
        "experiment": "coalesce",
        "seed": SEED,
        "output_dir": str(tmp_path / "out"),
        "model": {"name": "coalescing-circle", "sigma": 0.5},
        "coalesce": {"horizon": 15.0, "dt": 0.01, "replicas": 30, "starts": starts},
    }
    report = run(parse_config(data), write_artifacts=False)
    pairs = report.results["pairs"]
    merged = pairs["0-1"]["coalesced"] + pairs["2-3"]["coalesced"]
    assert 0 < pairs["0-1"]["coalesced"] < 30
    assert report.diagnostics == {"streams_opened": 60, "normals_drawn": 0, "uniforms_drawn": 60, "merges": merged}
    assert cli_main(["coalesce", "--config", _write_cfg(tmp_path, data)]) == 0
    summary = json.loads(capsys.readouterr().out.strip())
    assert (summary["normals_drawn"], summary["uniforms_drawn"]) == (0, 60)


def test_coalesce_config_with_three_classes_on_a_leaf_keeps_the_scan_bit_for_bit():
    # one leaf holds three classes (points 0 and 1 start equal), so every
    # leaf runs the scan, the pair alone on the second leaf too: the payload
    # sha256 and the diagnostics are those the scan gave before the exact
    # path, re-pinned when the streams became addresses in the Philox counter
    starts = [{"theta": 0.5, "r": 1.0, "z": 0.0}, {"theta": 0.5, "r": 1.0, "z": 0.0},
              {"theta": 2.5, "r": 1.0, "z": 0.0}, {"theta": 4.5, "r": 1.0, "z": 0.0},
              {"theta": 1.0, "r": 2.0, "z": 0.0}, {"theta": 4.0, "r": 2.0, "z": 0.0}]
    data = {
        "experiment": "coalesce", "seed": 7, "output_dir": "out",
        "model": {"name": "coalescing-circle", "sigma": 1.5},
        "coalesce": {"horizon": 20.0, "dt": 0.01, "replicas": 300, "starts": starts, "curve_points": 50},
    }
    report = run(parse_config(data), write_artifacts=False)
    assert _sha256_json(report.payload()) == "a45128dfc044c4ca7cd80f5df352519adbf0a6cf6848fb626a1e3f84ec6b7242"
    assert report.diagnostics == {
        "streams_opened": 1500, "normals_drawn": 846_752, "uniforms_drawn": 0, "merges": 900,
    }


# ---------------------------------------------------------------------------
# artifacts

# The replica count each sample config runs at below, and the sha256 of every
# artifact it writes there, computed under schema v1 before report.json became
# compact JSON: of each file's bytes, and for report.json of
# json.dumps(json.loads(text) less wall_clock_seconds, sort_keys=True).
# report.json has since gained fields that these pins predate: the wall-time
# `timings`, and in `diagnostics` the kernel-check counters, pinned by
# test_kernel_check_diagnostics_stay_outside_the_payload, and the averaging
# counters, pinned by test_averaging_diagnostics_are_direct_recounts;
# _artifact_sha256 drops them too.  Schema v2 writes the decomposition rows to
# decomposition.npy, and report.json carries their digest; with v1=True,
# _artifact_sha256 rebuilds the v1 decomposition.csv and report.json from them.
# The kernel dumps kernel_t<t>.json are row-sparse (targets, weights) now; with
# v1=True, _artifact_sha256 rebuilds the dense dump from each.
_RUN_COUNTERS = ("kernels_built", "semigroup_pairs", "gap_rows", "jumps", "partition_intervals", "exits", "violations")
_DECOMPOSITION_HEADER = "eps,replica,component,a1,a2,a3,a4,delta\n"


def _v1_decomposition_csv(rows: np.ndarray) -> bytes:
    """decomposition.csv as schema v1 wrote it: each value formatted with "%.17g"."""
    line = ",".join(["%.17g"] * 8) + "\n"
    return (_DECOMPOSITION_HEADER + "".join(line % tuple(row) for row in rows.tolist())).encode()


def _v1_kernel_json(dump: dict) -> bytes:
    """kernel_t<t>.json as the dense dump wrote it: the matrix rebuilt from the row-sparse rows."""
    targets, weights = np.array(dump["targets"]), np.array(dump["weights"])
    matrix = np.zeros((len(targets), len(targets)))
    np.add.at(matrix, (np.arange(len(targets))[:, np.newaxis], targets), weights)
    return json.dumps({"grid": dump["grid"], "t": dump["t"], "matrix": matrix.tolist()}).encode()


def _artifact_sha256(out: Path, v1: bool = False) -> dict:
    written = {}
    for path in sorted(out.iterdir()):
        name, body = path.name, path.read_bytes()
        if name == "report.json":
            report = json.loads(body)
            del report["wall_clock_seconds"], report["timings"]
            for key in _RUN_COUNTERS:
                report["diagnostics"].pop(key, None)
            if v1:
                report["schema"] = V1_SCHEMA
                if "decompositions" in report["results"]:
                    report["results"]["decompositions"] = np.load(out / "decomposition.npy").tolist()
            body = json.dumps(report, sort_keys=True).encode()
        elif name == "decomposition.npy" and v1:
            name, body = "decomposition.csv", _v1_decomposition_csv(np.load(path))
        elif name.startswith("kernel_t") and v1:
            body = _v1_kernel_json(json.loads(body))
        written[name] = hashlib.sha256(body).hexdigest()
    return written


_ARTIFACT_SIZES = {
    "rates-cosine": ("averaging", 200),
    "average-commuting": ("averaging", 40),
    "coalesce-circle": ("coalesce", 200),
    "simulate-torus": ("simulate", 5),
    "kernel-check": (None, None),
}
_ARTIFACT_SHA256 = {
    # re-pinned when the jump gaps became inverted Philox uniforms, and this
    # one, coalesce-circle and simulate-torus when the streams became addresses in the Philox counter
    "rates-cosine": {
        "decomposition.csv": "76ae6851d69ab9071d14c58cc138e3ba8d01f3a7200f7623a1f6dde4f6cee68c",
        "rate_report.json": "d5c5c230d7934be5cb75138cb87c973a25b5a079341aede1bb48dba81e7031b0",
        "rates_bounds.csv": "93f713372578a709e72459192a1b43e10e70bdcf6e0e460f6ffd4352582b68b0",
        "rates_error.csv": "44f9a22a224cd84c6c3f49b70cfeae8b6d8faf67c5a764f5b538d905646280c2",
        "report.json": "626b52c098c1f010bd23ab042387a4f439a5b4813e9dfdd5152ac5523e6b85b4",
    },
    "average-commuting": {
        "decomposition.csv": "8e8908ed896b87c531e6d8114b535c3af7529b026f3493af4e52b3c82afafba6",
        "rates_bounds.csv": "849b5217335d4c987ca782c78864a7fc81a49895d0ed0b1265ebaa42728a5554",
        "rates_error.csv": "4c99f285b7ab42a91afc28426a5ab9fad54711c6db543fd10448726339a7ffcc",
        "report.json": "30d56a60b2d276cf5a39200d194ce9d8c04ec09c12b1984245064dc93454986e",
    },
    # the pair alone on its leaf merges at its exact exit time, with no grid
    "coalesce-circle": {
        "coalescence_fraction.csv": "5102a500c1ff48f21638419b0aa507184ea420aae593164fd27bca13ca1f713b",
        "report.json": "d00b2c1eaeab4a59fb4878304e80d3d3f9d6bc72b5b2f58051935eaed24bc8b6",
    },
    "simulate-torus": {
        "leaf_defects.csv": "4b5cf20b769506939582501c1883ff686a110cca70386c2c473412933bf62f72",
        "report.json": "22be217593478576b8a77d9f49d10b955925c1aadfa1809f6f6f091df146cf09",
        # its leaf_defect column holds the report's per-time defects
        "trajectory.csv": "362253315b16309e5030891026b020eb1e0152508564448b2b1b1fc1674435ea",
    },
    "kernel-check": {
        "kernel_defects.csv": "38a02da1ab8a7ff4acdad3d167f5f5edbdc5c4cefe7632cd194587e18e1b0a7d",
        "kernel_defects.json": "c98d630e9406999d663830f871072153dcb2ff2bde3040da186e5165aac5fd73",
        "kernel_t0.785398.json": "067405f39073f947e4e7198fc5b1fd87becb192b204ef2144c8e43aeb67e402f",
        "kernel_t1.570796.json": "64cb0af8f3b3ab2c767a64d3097518d52ae74d9706eb5935d6ff28e4e3d4244f",
        "report.json": "590ace1918ec9930ac46ef1a3559b484f453da33030dc9e7aef3f77ba0e7d3ac",
    },
}


# the files that schema v2 writes differently: decomposition.npy in place of
# decomposition.csv, and report.json with the schema and the rows' digest; and
# the row-sparse kernel dumps
_ARTIFACT_SHA256_V2 = {
    "rates-cosine": {
        "decomposition.npy": "94eb5aa68dea0689194c1f8ad1f92fb08f225ce62df5d0a4472d19921fca793e",
        "report.json": "5e2d542d8baa9525201d3c3ed6c8f3dd338e7e20e2539564152e2edf7d80e11f",
    },
    "average-commuting": {
        "decomposition.npy": "4ed43a22ae8eefdf9494647ab469cd68a7f45c2d214dc73bc8cfaabeba152748",
        "report.json": "e623876d6e34ed8ee87c90b54dbde8fec217b0c5de70eb4b184eb0ce4f49c15b",
    },
    "coalesce-circle": {"report.json": "0db49dd191d3e66840b12a78bd924947997b44af26057fbdd37543d16163450f"},
    "simulate-torus": {"report.json": "b32623412a6ce911b033bfecd0ae51ea760f21ad350ce1843a9c87b254dfacc2"},
    "kernel-check": {
        "kernel_t0.785398.json": "5c53987de6ccf6cec20938824056a82a656aebb69196ed22e647253f3a67420e",
        "kernel_t1.570796.json": "3c2b68bc306245f4060aa85740c35704f492f42a389feb556859713abf7eb388",
        "report.json": "93ff2449e17ce69bd10c9d7c900674473cf5eb713a644500b9343b064843c549",
    },
}


_AVERAGING_RUN = """
import sys
from foliated_flows.cli import main
assert main([sys.argv[1], "--config", sys.argv[2], "--replicas", "20", "--quiet"]) == 0
assert "numpy.random" not in sys.modules, f"a {sys.argv[1]} run imported numpy.random"
"""


@pytest.mark.parametrize("experiment, name", [("rates", "rates-cosine"), ("average", "average-exits")])
def test_averaging_run_does_not_import_numpy_random(tmp_path, experiment, name):
    # the jump clocks are inverted Philox uniforms computed in array arithmetic
    proc = run_snippet(_AVERAGING_RUN, experiment, str(CONFIGS / f"{name}.yaml"), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / name / "report.json").is_file()


@pytest.mark.parametrize("name", sorted(_ARTIFACT_SHA256))
def test_sample_config_artifacts_are_pinned(name):
    cfg = dataclasses.replace(load_config(CONFIGS / f"{name}.yaml"), output_dir="out")
    section, replicas = _ARTIFACT_SIZES[name]
    if section is not None:
        cfg = dataclasses.replace(cfg, **{section: dataclasses.replace(getattr(cfg, section), replicas=replicas)})
    run(cfg)
    assert _artifact_sha256(Path("out"), v1=True) == _ARTIFACT_SHA256[name]
    unchanged = {k: v for k, v in _ARTIFACT_SHA256[name].items()
                 if k not in ("decomposition.csv", "report.json") and not k.startswith("kernel_t")}
    assert _artifact_sha256(Path("out")) == {**unchanged, **_ARTIFACT_SHA256_V2[name]}


def test_percent_17g_is_fmt_for_every_float():
    # schema v1 formatted decomposition.csv rows with "%.17g", as
    # _v1_decomposition_csv does; the CSVs written now use _fmt
    bits = np.random.default_rng(3).bytes(8 * 100_000)
    specials = [math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 2.2250738585072014e-308,
                1.7976931348623157e308, 0.1, 1.0 / 3.0, 3.0, -2.5, 1e16, 1e17, 123456789012345678.0]
    for x in np.frombuffer(bits, dtype=np.float64).tolist() + specials:
        assert "%.17g" % x == _fmt(x)


def test_decomposition_npy_keeps_every_row_bit(tmp_path):
    # nan, infinities, -0, subnormals and integers: np.load gives back the
    # rows byte for byte, and the payload digest is the sha256 of those bytes
    rng = np.random.default_rng(5)
    rows = rng.standard_normal((9000, 8)) * 10.0 ** rng.integers(-300, 300, (9000, 8))
    rows[:3, 3:] = [[math.nan, math.inf, -math.inf, -0.0, 0.0]] * 3
    rows[3:6, 3:] = [[5e-324, -5e-324, 2.2250738585072009e-308, -1e-310, -math.nan]] * 3
    rows[:, 1] = np.arange(9000) // 2
    report = RunReport(
        experiment="average", config={},
        results={"eps_grid": [0.1], "errors": [0.0], "std_errors": [0.0], "G_values": [1.0],
                 "decompositions": rows},
        replicas=4500, wall_clock_seconds=0.0,
    )
    assert tmp_path / "decomposition.npy" in emit_plotdata(report, tmp_path)
    saved = np.load(tmp_path / "decomposition.npy")
    assert saved.dtype.str == "<f8"
    assert saved.shape == rows.shape
    assert saved.tobytes() == rows.astype("<f8").tobytes()
    assert report.payload()["results"]["decompositions"] == {
        "sha256": hashlib.sha256(saved.tobytes()).hexdigest(), "shape": [9000, 8],
    }
    # the v1 CSV rendering of the saved rows is _fmt of every value
    expected = ["eps,replica,component,a1,a2,a3,a4,delta"] + [",".join(_fmt(v) for v in row) for row in rows]
    assert _v1_decomposition_csv(saved).decode() == "\n".join(expected) + "\n"


def test_report_json_is_compact_and_parses_to_the_report(tmp_path):
    report = run(parse_config(_rates_config(out=str(tmp_path), replicas=5)))
    text = (tmp_path / "report.json").read_text()
    assert "\n" not in text
    body = json.loads(text)
    assert body["schema"] == REPORT_SCHEMA
    assert body["results"] == json.loads(json.dumps(report.payload()["results"]))
    assert body["wall_clock_seconds"] == report.wall_clock_seconds
    # the v1 report.json carried the rows themselves
    body["results"]["decompositions"] = np.load(tmp_path / "decomposition.npy").tolist()
    assert body["results"] == json.loads(json.dumps(_v1_payload(report)["results"]))


@pytest.mark.parametrize("kind", ["rates", "average"])
def test_payload_digest_matches_report_json_and_decomposition_npy(tmp_path, kind):
    data = dict(_rates_config(out=str(tmp_path / "a"), replicas=7), experiment=kind)
    report = run(parse_config(data))
    digest = report.payload()["results"]["decompositions"]
    written = json.loads((tmp_path / "a" / "report.json").read_text())["results"]["decompositions"]
    saved = np.load(tmp_path / "a" / "decomposition.npy")
    assert digest == written == {
        "sha256": hashlib.sha256(saved.astype("<f8").tobytes()).hexdigest(), "shape": [7 * 3 * 2, 8],
    }
    assert saved.dtype.str == "<f8"
    json.dumps(report.payload())
    again = run(parse_config(dict(data, output_dir=str(tmp_path / "b")))).payload()
    again["config"]["output_dir"] = data["output_dir"]
    assert json.dumps(again, sort_keys=True) == json.dumps(report.payload(), sort_keys=True)


def test_artifacts_written_from_the_computation_count_in_artifacts_s(tmp_path, monkeypatch):
    # kernel dumps and kernel_defects.json are written after compute_s is taken
    original = harness.write_kernel_json

    def slow(kernel, path):
        time.sleep(0.2)
        original(kernel, path)

    monkeypatch.setattr(harness, "write_kernel_json", slow)
    data = {"experiment": "kernel-check", "output_dir": str(tmp_path), **_SMALL_RUNS["kernel-check"]}
    report = run(parse_config(data))
    assert report.timings["compute_s"] < 0.2 <= report.timings["artifacts_s"]
    assert (tmp_path / "kernel_defects.json").exists()


def test_empirical_rates_run_takes_the_averaged_field_once(monkeypatch):
    # q1 and the averaged ODE are solved once per run: the measure's long
    # jump clock is drawn once, not once per eps and again for the fit
    calls = []
    original = averaging.averaged_radial_rate

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(averaging, "averaged_radial_rate", counting)
    cfg = load_config(CONFIGS / "rates-cosine.yaml")
    cfg = dataclasses.replace(
        cfg, output_dir="",
        averaging=dataclasses.replace(
            cfg.averaging, replicas=20, measure=InvariantMeasureSpec(mode="empirical")
        ),
    )
    results = run(cfg, write_artifacts=False).results
    assert len(calls) == 1
    assert len(results["errors"]) == 5 and "averaged_field_lipschitz_measured" in results


# ---------------------------------------------------------------------------
# package


_IMPORT_EACH_FIRST = """
import importlib, sys

def purge():
    for name in [n for n in sys.modules if n == "foliated_flows" or n.startswith("foliated_flows.")]:
        del sys.modules[name]

for name in sys.argv[1:]:
    purge()
    importlib.import_module("foliated_flows." + name)
purge()
from foliated_flows import config, harness
assert callable(config.load_config) and callable(harness.run)
"""


def test_each_module_imports_first_in_a_fresh_interpreter():
    # the package root imports nothing, so no module may lean on another being loaded first
    names = sorted(path.stem for path in Path(harness.__file__).parent.glob("*.py") if path.stem != "__init__")
    proc = run_snippet(_IMPORT_EACH_FIRST, *names)
    assert proc.returncode == 0, proc.stderr
