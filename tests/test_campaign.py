"""Campaign layer: specs, store, runner, CLI, resumability, pools.

The load-bearing pins:

* campaign metrics are **bit-identical** to the direct
  ``sweep_device_counts`` / figure-driver path (same seeds, same draw
  order);
* a point builds only the device prefix it simulates, and its metrics
  and provenance equal the old full-build-then-``subset`` path's;
* a re-run over an already-populated store recomputes **zero** points
  and serves stored results bit-for-bit;
* a run killed mid-campaign resumes: completed points load from the
  store, only the remainder computes, and the merged manifest matches
  a fresh single-shot run's;
* ``workers=`` requests on a 1-CPU host fall back to serial without
  spawning a redundant process pool (the campaign runner's pool is the
  only one that runs sweep points).
"""

import json
import os
from dataclasses import asdict, replace

import numpy as np
import pytest

import repro.campaign.runner as campaign_runner
import repro.utils.parallel as parallel_module
from repro.campaign.cli import main as campaign_cli
from repro.campaign.presets import (
    build_preset,
    fig17_campaign,
    fig18_campaign,
    noise_grid_campaign,
)
from repro.campaign.runner import (
    CampaignRunner,
    build_deployment,
    execute_point,
    resolve_pool_workers,
)
from repro.campaign.spec import CampaignPoint, CampaignSpec, derive_seeds
from repro.campaign.store import CampaignStore
from repro.channel.deployment import paper_deployment
from repro.core.config import NetScatterConfig
from repro.errors import ConfigurationError, ReproError
from repro.experiments import fig17_phy_rate, fig18_linklayer
from repro.phy import backend_plan
from repro.protocol.network import NetworkSimulator, sweep_device_counts
from repro.utils.parallel import usable_cpus
from repro.utils.rng import child_rng, child_seed, make_rng

COUNTS = (1, 16)
ROUNDS = 1


def small_spec(**overrides):
    kwargs = dict(
        rng=0, device_counts=COUNTS, n_rounds=ROUNDS, engine="analytic"
    )
    kwargs.update(overrides)
    return fig17_campaign(**kwargs)


def campaign_metrics(spec):
    """The spec's metrics in grid order, computed serially."""
    return CampaignRunner().run(spec).metrics


def make_point(**overrides):
    kwargs = dict(
        deployment={"kind": "paper", "n_devices": 16, "seed": 7},
        config={"n_association_shifts": 0},
        n_devices=8,
        n_rounds=1,
        query_bits=32,
        engine="analytic",
        noise_mode="payload",
        fading=False,
        seed=1234,
    )
    kwargs.update(overrides)
    return CampaignPoint(**kwargs)


class TestChildSeed:
    def test_child_rng_equals_seeded_child_seed(self):
        a, b = make_rng(42), make_rng(42)
        direct = child_rng(a, 5)
        via_seed = np.random.default_rng(child_seed(b, 5))
        assert np.array_equal(
            direct.integers(0, 1 << 30, size=8),
            via_seed.integers(0, 1 << 30, size=8),
        )

    def test_derive_seeds_matches_driver_draw_order(self):
        # fig17.run: child at index 0 for the deployment, then one
        # child per count inside sweep_device_counts, in sweep order.
        reference = make_rng(3)
        expected_dep = child_seed(reference, 0)
        expected_points = tuple(
            child_seed(reference, c) for c in (1, 16, 64)
        )
        dep, points = derive_seeds(3, (1, 16, 64))
        assert dep == expected_dep
        assert points == expected_points


class TestCampaignPoint:
    def test_hash_is_deterministic(self):
        assert (
            make_point().content_hash() == make_point().content_hash()
        )

    @pytest.mark.parametrize(
        "override",
        [
            {"seed": 1235},
            {"n_devices": 4},
            {"n_rounds": 2},
            {"query_bits": 1760},
            {"engine": "auto"},
            {"noise_mode": "full"},
            {"fading": True},
            {"deployment": {"kind": "paper", "n_devices": 16, "seed": 8}},
            {"config": {"n_association_shifts": 4}},
        ],
    )
    def test_every_axis_moves_the_hash(self, override):
        assert (
            make_point(**override).content_hash()
            != make_point().content_hash()
        )

    def test_whole_float_counts_hash_as_ints(self):
        point = make_point(n_rounds=1.0, query_bits=32.0)
        assert point.n_rounds == 1 and type(point.n_rounds) is int
        assert point.content_hash() == make_point().content_hash()

    def test_round_trips_through_dict(self):
        point = make_point()
        clone = CampaignPoint.from_dict(
            json.loads(json.dumps(point.to_dict()))
        )
        assert clone == point
        assert clone.content_hash() == point.content_hash()

    @pytest.mark.parametrize(
        "override",
        [
            {"engine": "warp"},
            {"noise_mode": "extra"},
            {"deployment": {"kind": "mars", "n_devices": 16, "seed": 1}},
            {"n_devices": 17},  # larger than the deployment
            {"n_rounds": 0},
            {"n_rounds": 1.5},
            {"query_bits": -1},
            {"config": {"bogus": 1}},
        ],
    )
    def test_invalid_points_are_rejected(self, override):
        with pytest.raises(ConfigurationError):
            make_point(**override)


class TestCampaignSpec:
    def test_grid_expansion_order_and_size(self):
        spec = noise_grid_campaign(rng=1, device_counts=(4, 8), n_rounds=1)
        points = list(spec.points())
        assert len(points) == spec.n_points == 2 * 2 * 2
        # counts innermost, fading next, noise modes outermost axis
        assert [
            (p.noise_mode, p.fading, p.n_devices) for p in points
        ] == [
            ("payload", False, 4),
            ("payload", False, 8),
            ("payload", True, 4),
            ("payload", True, 8),
            ("full", False, 4),
            ("full", False, 8),
            ("full", True, 4),
            ("full", True, 8),
        ]

    def test_seeds_paired_across_axes(self):
        spec = noise_grid_campaign(rng=1, device_counts=(4, 8), n_rounds=1)
        seeds = {}
        for point in spec.points():
            seeds.setdefault(point.n_devices, set()).add(point.seed)
        assert all(len(s) == 1 for s in seeds.values())

    def test_round_trips_through_json(self):
        spec = small_spec()
        clone = CampaignSpec.from_dict(
            json.loads(json.dumps(spec.to_dict()))
        )
        assert list(clone.points()) == list(spec.points())

    def test_numpy_and_whole_float_axes_hash_as_ints(self):
        spec = small_spec()
        clone = replace(
            spec,
            device_counts=tuple(float(c) for c in spec.device_counts),
            point_seeds=tuple(np.uint64(s) for s in spec.point_seeds),
        )
        assert all(type(c) is int for c in clone.device_counts)
        assert all(type(s) is int for s in clone.point_seeds)
        assert [p.content_hash() for p in clone.points()] == [
            p.content_hash() for p in spec.points()
        ]

    def test_seed_count_mismatch_rejected(self):
        spec = small_spec()
        with pytest.raises(ConfigurationError):
            CampaignSpec.from_dict(
                {**spec.to_dict(), "point_seeds": spec.point_seeds[:-1]}
            )

    def test_fig18_points_are_content_identical_to_fig17(self):
        fig17 = fig17_campaign(rng=0, device_counts=COUNTS, n_rounds=1)
        fig18 = fig18_campaign(rng=0, device_counts=COUNTS, n_rounds=1)
        assert [p.content_hash() for p in fig17.points()] == [
            p.content_hash() for p in fig18.points()
        ]

    def test_unknown_preset_rejected(self):
        with pytest.raises(ReproError):
            build_preset("fig99")


class TestCampaignStore:
    def test_save_load_round_trip_is_bit_exact(self, tmp_path):
        store = CampaignStore(tmp_path)
        point = make_point()
        metrics = {"phy_rate_bps": 0.1 + 0.2, "delivery_ratio": 1.0}
        store.save(point, metrics, {"backend": "analytic"})
        loaded = store.load(point)
        assert loaded["metrics"] == metrics  # exact float round trip
        assert loaded["provenance"]["backend"] == "analytic"
        assert store.has(point)
        assert not store.has(replace(point, seed=1))

    def test_missing_point_raises(self, tmp_path):
        with pytest.raises(ReproError):
            CampaignStore(tmp_path).load(make_point())

    def test_manifest_heals_after_lost_update(self, tmp_path):
        """Checkpointing never touches the manifest; a stale or deleted
        index is re-derived from the chunks whenever consulted."""
        store = CampaignStore(tmp_path)
        store.save(make_point(), {"m": 1.0}, {"backend": "analytic"})
        manifest = store.manifest()  # materialises the index
        assert len(manifest["points"]) == 1
        # A later checkpoint leaves the persisted index stale (O(1)
        # saves)…
        store.save(make_point(seed=9), {"m": 2.0}, {"backend": "fft"})
        assert len(store.manifest()["points"]) == 2  # …healed on read
        (tmp_path / "manifest.json").unlink()  # the index is lost…
        manifest = store.manifest()  # …and rebuilt from the chunks
        assert len(manifest["points"]) == 2
        fresh = CampaignStore(tmp_path).manifest()
        assert fresh == manifest

    def test_manifest_drops_deleted_chunks(self, tmp_path):
        store = CampaignStore(tmp_path)
        point = make_point()
        chunk = store.save(point, {"m": 1.0}, {})
        assert len(store.manifest()["points"]) == 1
        chunk.unlink()
        assert store.manifest()["points"] == {}

    def test_export_rows_are_sorted_and_merged(self, tmp_path):
        store = CampaignStore(tmp_path)
        store.save(
            make_point(n_devices=8),
            {"phy_rate_bps": 2.0},
            {"backend": "fft"},
        )
        store.save(
            make_point(n_devices=2),
            {"phy_rate_bps": 1.0},
            {"backend": "analytic"},
        )
        rows = store.export_rows()
        assert [r["n_devices"] for r in rows] == [2, 8]
        assert rows[0]["backend"] == "analytic"
        assert rows[0]["phy_rate_bps"] == 1.0


class TestRunnerEquivalence:
    def test_campaign_equals_direct_sweep_bit_for_bit(self):
        generator = make_rng(0)
        deployment = paper_deployment(rng=child_rng(generator, 0))
        direct = sweep_device_counts(
            deployment,
            COUNTS,
            config=NetScatterConfig(n_association_shifts=0),
            n_rounds=ROUNDS,
            rng=generator,
            engine="analytic",
        )
        campaign = campaign_metrics(small_spec())
        assert campaign == direct

    def test_fading_campaign_equals_direct_sweep_bit_for_bit(self):
        # ``sweep_device_counts`` shares one deployment across its points
        # and never fades it, so the direct reference runs its per-point
        # construction (``run_sweep_point``) by hand: a fresh full build
        # per point, cut to the count, faded from its initial state. The
        # fading state only moves the metrics once the round is crowded,
        # hence the 256-device point.
        counts = COUNTS + (256,)
        generator = make_rng(0)
        deployment_seed = child_seed(generator, 0)
        direct = []
        for count in counts:
            simulator = NetworkSimulator(
                paper_deployment(rng=deployment_seed).subset(count),
                config=NetScatterConfig(n_association_shifts=0),
                rng=child_rng(generator, count),
                engine="analytic",
            )
            direct.append(simulator.run_rounds(ROUNDS, fading=True))
        spec = small_spec(device_counts=counts)
        campaign = campaign_metrics(replace(spec, fading=(True,)))
        assert campaign == direct
        assert campaign[-1] != campaign_metrics(spec)[-1]

    def test_store_backed_rerun_recomputes_zero_points(self, tmp_path):
        spec = small_spec()
        runner = CampaignRunner(store=tmp_path)
        first = runner.run(spec)
        assert (first.n_computed, first.n_cached) == (len(COUNTS), 0)
        second = runner.run(spec)
        assert (second.n_computed, second.n_cached) == (0, len(COUNTS))
        assert second.metrics == first.metrics  # served bit-for-bit

    def test_fig18_campaign_over_fig17_store_recomputes_zero_points(
        self, tmp_path
    ):
        runner = CampaignRunner(store=tmp_path)
        fig17 = runner.run(
            fig17_campaign(rng=0, device_counts=COUNTS, n_rounds=ROUNDS)
        )
        assert (fig17.n_computed, fig17.n_cached) == (len(COUNTS), 0)
        fig18 = runner.run(
            fig18_campaign(rng=0, device_counts=COUNTS, n_rounds=ROUNDS)
        )
        assert (fig18.n_computed, fig18.n_cached) == (0, len(COUNTS))
        assert fig18.metrics == fig17.metrics

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize(
        "counts, rounds", [((1, 64, 256), 1), ((1, 16, 128), 2)]
    )
    def test_driver_points_equal_the_preset_campaign(
        self, counts, rounds, seed
    ):
        """The fig17/fig18 drivers sweep their default deployment
        directly; the preset campaigns compute the same points."""
        metrics = campaign_metrics(
            fig17_campaign(rng=seed, device_counts=counts, n_rounds=rounds)
        )
        fig17 = fig17_phy_rate.run(
            rng=seed, device_counts=counts, n_rounds=rounds
        )
        fig18 = fig18_linklayer.run(
            rng=seed, device_counts=counts, n_rounds=rounds
        )
        assert [row["netscatter_kbps"] for row in fig17.rows] == [
            m.phy_rate_bps / 1e3 for m in metrics
        ]
        assert [row["netscatter_cfg1_kbps"] for row in fig18.rows] == [
            m.link_layer_rate_bps / 1e3 for m in metrics
        ]

    def test_provenance_is_stamped_on_stored_points(self, tmp_path):
        runner = CampaignRunner(store=tmp_path)
        runner.run(small_spec())
        for row in CampaignStore(tmp_path).export_rows():
            assert row["backend"] == "analytic"
            assert row["noise_mode"] == "payload"
            assert row["noise_version"] == 2
            assert row["calibration_schema"].startswith(
                "repro-backend-plan"
            )


def _legacy_execute_point(point):
    """``execute_point`` as it was: full build, then ``subset`` (oracle)."""
    deployment = paper_deployment(
        n_devices=int(point.deployment["n_devices"]),
        rng=int(point.deployment["seed"]),
    )
    simulator = NetworkSimulator(
        deployment.subset(point.n_devices),
        config=NetScatterConfig(**point.config),
        query_bits=point.query_bits,
        rng=np.random.default_rng(point.seed),
        engine=point.engine,
        noise_mode=point.noise_mode,
    )
    metrics = simulator.run_rounds(point.n_rounds, fading=point.fading)
    provenance = {
        "backend": metrics.backend,
        "noise_mode": metrics.noise_mode,
        "noise_version": metrics.noise_version,
        "calibration_schema": backend_plan._SCHEMA,
    }
    return asdict(metrics), provenance


class TestPrefixBuild:
    """The runner builds only the devices a point simulates."""

    DESCRIPTOR = {"kind": "paper", "n_devices": 16, "seed": 7}

    @pytest.mark.parametrize("n_devices", [1, 2, 4, 256])
    @pytest.mark.parametrize(
        "axis", [{"fading": True}, {"fading": False}]
    )
    def test_execute_point_matches_full_build_oracle(self, n_devices, axis):
        point = make_point(
            deployment={"kind": "paper", "n_devices": 256, "seed": 7},
            n_devices=n_devices,
            **axis,
        )
        assert execute_point(point) == _legacy_execute_point(point)

    def test_default_builds_the_full_deployment(self):
        assert build_deployment(self.DESCRIPTOR) == paper_deployment(
            16, rng=7
        )

    @pytest.mark.parametrize("n_devices", [0, 17])
    def test_out_of_range_count_raises_the_subset_error(self, n_devices):
        with pytest.raises(ReproError) as expected:
            paper_deployment(16, rng=7).subset(n_devices)
        with pytest.raises(ReproError) as raised:
            build_deployment(self.DESCRIPTOR, n_devices)
        assert type(raised.value) is type(expected.value)
        assert str(raised.value) == str(expected.value)

    @pytest.mark.parametrize("n_devices", [None, 1])
    def test_unknown_kind_raises_configuration_error(self, n_devices):
        with pytest.raises(ConfigurationError, match="unknown deployment"):
            build_deployment({"kind": "lab", "n_devices": 4}, n_devices)


class TestResumability:
    def test_killed_run_resumes_and_matches_single_shot(
        self, tmp_path, monkeypatch
    ):
        """Kill after the first point; the re-run must load it from the
        store, compute only the rest, and end bit-identical (manifest
        and metrics) to a fresh single-shot campaign."""
        spec = small_spec()
        original = campaign_runner.execute_point

        calls = {"n": 0}

        def dying(point):
            if calls["n"] >= 1:
                raise KeyboardInterrupt("simulated mid-campaign kill")
            calls["n"] += 1
            return original(point)

        resumed_dir = tmp_path / "resumed"
        monkeypatch.setattr(campaign_runner, "execute_point", dying)
        with pytest.raises(KeyboardInterrupt):
            CampaignRunner(store=resumed_dir).run(spec)
        monkeypatch.setattr(campaign_runner, "execute_point", original)

        survivor = CampaignStore(resumed_dir)
        assert len(survivor) == 1  # the completed point was checkpointed

        executed = []

        def counting(point):
            executed.append(point.n_devices)
            return original(point)

        monkeypatch.setattr(campaign_runner, "execute_point", counting)
        resumed = CampaignRunner(store=resumed_dir).run(spec)
        assert executed == [COUNTS[1]]  # only the missing point ran
        assert (resumed.n_cached, resumed.n_computed) == (1, 1)

        fresh_dir = tmp_path / "fresh"
        monkeypatch.setattr(campaign_runner, "execute_point", original)
        fresh = CampaignRunner(store=fresh_dir).run(spec)
        assert resumed.metrics == fresh.metrics
        assert (
            CampaignStore(resumed_dir).manifest()
            == CampaignStore(fresh_dir).manifest()
        )

    def test_stale_schema_points_do_not_match(self, tmp_path):
        """A content-hash miss (here: a different seed) never serves a
        stale result — the point recomputes instead."""
        runner = CampaignRunner(store=tmp_path)
        runner.run(small_spec())
        shifted = runner.run(small_spec(rng=1))
        assert shifted.n_computed == len(COUNTS)


class TestPoolFallback:
    def test_resolve_rules(self, monkeypatch):
        monkeypatch.setattr(parallel_module, "usable_cpus", lambda: 8)
        assert resolve_pool_workers(None) == 0
        assert resolve_pool_workers(0) == 0
        assert resolve_pool_workers(1) == 0
        assert resolve_pool_workers(4) == 4
        monkeypatch.setattr(parallel_module, "usable_cpus", lambda: 1)
        assert resolve_pool_workers(4) == 0

    def test_usable_cpus_counts_the_affinity_mask(self, monkeypatch):
        """A process pinned to one CPU of a many-CPU host counts one."""
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {3}, raising=False
        )
        assert usable_cpus() == 1
        assert resolve_pool_workers(4) == 0
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0, 5, 9}, raising=False
        )
        assert usable_cpus() == 3
        assert resolve_pool_workers(4) == 4

    def test_usable_cpus_without_an_affinity_mask(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert usable_cpus() == 6
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert usable_cpus() == 1
        assert resolve_pool_workers(4) == 0

    def test_campaign_runner_on_single_cpu_never_spawns_a_pool(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.setattr(parallel_module, "usable_cpus", lambda: 1)

        class ExplodingPool:
            def __init__(self, *args, **kwargs):
                raise AssertionError(
                    "ProcessPoolExecutor spawned on a 1-CPU host"
                )

        monkeypatch.setattr(
            campaign_runner, "ProcessPoolExecutor", ExplodingPool
        )
        run = CampaignRunner(store=tmp_path, workers=4).run(small_spec())
        assert run.n_computed == len(COUNTS)
        assert run.metrics == campaign_metrics(small_spec())

    def test_pooled_campaign_matches_serial(self, monkeypatch):
        """With CPUs available the pool path produces identical
        metrics (each point owns its pre-derived seed)."""
        monkeypatch.setattr(parallel_module, "usable_cpus", lambda: 2)
        pooled = CampaignRunner(workers=2).run(small_spec())
        assert pooled.metrics == campaign_metrics(small_spec())


class TestCli:
    def run_cli(self, *argv):
        return campaign_cli(list(argv))

    def test_run_matches_fig17_driver_metrics(self, tmp_path, capsys):
        """Acceptance pin: `python -m repro.campaign run` reproduces
        fig17's sweep metrics identically to the direct driver path."""
        counts_arg = ",".join(str(c) for c in COUNTS)
        assert (
            self.run_cli(
                "run",
                "--spec",
                "fig17",
                "--seed",
                "0",
                "--counts",
                counts_arg,
                "--rounds",
                str(ROUNDS),
                "--store",
                str(tmp_path),
            )
            == 0
        )
        capsys.readouterr()
        driver = fig17_phy_rate.run(
            rng=0, device_counts=COUNTS, n_rounds=ROUNDS
        )
        rows = CampaignStore(tmp_path).export_rows()
        assert [r["n_devices"] for r in rows] == list(COUNTS)
        for row, driver_row in zip(rows, driver.rows):
            assert (
                row["phy_rate_bps"] / 1e3 == driver_row["netscatter_kbps"]
            )

    def test_rerun_reports_full_cache(self, tmp_path, capsys):
        for _ in range(2):
            self.run_cli(
                "run",
                "--spec",
                "fig17",
                "--seed",
                "0",
                "--counts",
                "1,16",
                "--rounds",
                "1",
                "--store",
                str(tmp_path),
            )
        out = capsys.readouterr().out
        assert "(2 cached, 0 computed)" in out

    def test_status_and_export(self, tmp_path, capsys):
        self.run_cli(
            "run",
            "--spec",
            "fig17",
            "--seed",
            "0",
            "--counts",
            "1,16",
            "--rounds",
            "1",
            "--store",
            str(tmp_path),
        )
        capsys.readouterr()
        assert self.run_cli("status", "--store", str(tmp_path)) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["n_points"] == 2
        assert status["by_engine"] == {"auto": 2}

        output = tmp_path / "export.csv"
        assert (
            self.run_cli(
                "export",
                "--store",
                str(tmp_path),
                "--format",
                "csv",
                "--output",
                str(output),
            )
            == 0
        )
        header, first, second = (
            output.read_text().strip().splitlines()
        )
        assert "phy_rate_bps" in header
        assert first.split(",")[1] == "1"
        assert second.split(",")[1] == "16"

    def test_spec_json_round_trip(self, tmp_path, capsys):
        self.run_cli(
            "run",
            "--spec",
            "fig17",
            "--seed",
            "0",
            "--counts",
            "1,16",
            "--rounds",
            "1",
            "--store",
            str(tmp_path),
            "--save-spec",
        )
        capsys.readouterr()
        assert self.run_cli(
            "run",
            "--spec",
            str(tmp_path / "spec.json"),
            "--store",
            str(tmp_path),
        ) == 0
        assert "(2 cached, 0 computed)" in capsys.readouterr().out

    def test_unknown_spec_errors(self, tmp_path):
        with pytest.raises(ReproError):
            self.run_cli(
                "run",
                "--spec",
                "not-a-preset",
                "--store",
                str(tmp_path),
            )

    def test_preset_only_flags_rejected_for_json_specs(
        self, tmp_path, capsys
    ):
        """A JSON spec is already expanded: --seed/--counts/--rounds/
        --engine must refuse loudly, not silently run the original
        grid."""
        self.run_cli(
            "run",
            "--spec",
            "fig17",
            "--counts",
            "1,16",
            "--rounds",
            "1",
            "--store",
            str(tmp_path),
            "--save-spec",
        )
        capsys.readouterr()
        spec_file = str(tmp_path / "spec.json")
        with pytest.raises(ReproError, match="--seed, --counts"):
            self.run_cli(
                "run",
                "--spec",
                spec_file,
                "--seed",
                "1",
                "--counts",
                "16",
                "--store",
                str(tmp_path),
            )
        # Without overrides the JSON spec still runs (fully cached).
        assert (
            self.run_cli("run", "--spec", spec_file, "--store", str(tmp_path))
            == 0
        )
        assert "(2 cached, 0 computed)" in capsys.readouterr().out

    def test_drivers_share_the_preset_grid_and_config(self):
        """Single source: the fig17/fig18 drivers' default grid and
        sweep config are the preset module's objects."""
        from repro.campaign.presets import (
            DEFAULT_DEVICE_COUNTS,
            SWEEP_CONFIG,
        )
        import inspect

        for driver in (fig17_phy_rate.run, fig18_linklayer.run):
            signature = inspect.signature(driver)
            assert (
                signature.parameters["device_counts"].default
                is DEFAULT_DEVICE_COUNTS
            )
        assert small_spec().config == SWEEP_CONFIG
