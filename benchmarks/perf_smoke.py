"""Perf smoke: time the bin-domain fast paths, append BENCH_fastpath.json.

Runs reduced versions of the hot sweeps several ways and records
wall-clock:

* Fig. 12: ``per_round_fft`` (the seed implementation's cost profile:
  one round at a time, full zero-padded FFT readout, time-domain AWGN)
  vs ``batched_sparse`` (the PR-1 engine);
* Fig. 15b: the batched sparse path;
* Fig. 17 network sweep: ``time_engine`` (compose_rounds waveform
  tensors + time-domain AWGN + sparse readout) vs ``analytic`` (the
  waveform-free Dirichlet-kernel engine) vs ``analytic_float32``
  (complex64 operators for the largest points) vs ``auto`` (the
  occupancy-adaptive backend planner, per-point backends recorded);
* the Fig. 17 sweep's 256-device point alone, ``auto`` vs ``analytic``
  (the planner's headline crossover win at ``D = N/2``);
* fading rounds at 100 rounds x 64 devices: the batched AR(1)-track
  path (``analytic`` and ``auto`` engines) vs a seed-style
  reconstruction (per-round Python loop, full-FFT readout, time-domain
  AWGN, per-device Python scoring — the same baseline styling as
  ``fig12.per_round_fft``);
* the same batched fading decode under the two engine-noise streams:
  ``noise_mode="payload"`` (located ``±1``-bin payload draws, stream
  version 2) vs ``noise_mode="full"`` (every readout bin, version 1 —
  the pre-PR-4 draws, pinned bit-identical by the regression goldens);
* the campaign layer (``repro.campaign``) against a throwaway store:
  a cold Fig. 17 campaign (every point computed + checkpointed), the
  same campaign re-run warm (zero points recomputed — the validator
  gates on this), and the Fig. 18 campaign over the same store (its
  points are content-identical to Fig. 17's, so the cross-figure
  reuse is total);
* the population-scale path: flat-array office deployments at 256 /
  10^4 / 10^5 devices (10^4 max under ``--quick``), one hybrid
  fidelity schedule cycle each (closed-form bulk + seeded Monte-Carlo
  tail — the PR-10 scaling headline, see ``docs/SCALING.md``);
* the Fig. 17/18/19 figure drivers end to end (the 17/18 drivers now
  execute through the campaign runner), and the vectorised Section
  2.2 Monte-Carlo block.

Run from the repo root::

    PYTHONPATH=src python benchmarks/perf_smoke.py          # full
    PYTHONPATH=src python benchmarks/perf_smoke.py --quick  # sub-10 s

``--quick`` times only the occupancy-adaptive headline comparisons
(fig17 256-point + fading) at reduced sizes — the mode
``tests/test_perf_guard.py`` exercises against a temporary output file.
``--output PATH`` redirects the report (defaults to the repo's
``BENCH_fastpath.json``).

``BENCH_fastpath.json`` is *append-only*: each invocation adds one run
entry under ``runs``, so the perf trajectory accumulates across PRs
instead of being overwritten (a legacy single-run v1 file is imported
as the first entry). Numbers are machine-dependent; ratios within one
run are the signal. Every report is checked by :func:`validate_report`
before it is written (and by the tier-1 docs-consistency tests), so
the schema documented in ``docs/PERFORMANCE.md`` cannot silently
drift from what the tool emits.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.campaign import (
    CampaignRunner,
    CampaignStore,
    fig17_campaign,
    fig18_campaign,
)
from repro.channel.awgn import awgn
from repro.channel.deployment import paper_deployment
from repro.core.config import NetScatterConfig
from repro.core.dcss import compose_round_matrix
from repro.core.receiver import NetScatterReceiver
from repro.experiments import (
    fig12_nearfar_ber,
    fig15_doppler_dr,
    fig17_phy_rate,
    fig18_linklayer,
    fig19_latency,
    sec22_analytics,
)
from repro.protocol.network import NetworkSimulator, sweep_device_counts

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_fastpath.json"

FIG12_SNRS = (-20, -16, -12)
FIG12_SYMBOLS = 2000
FIG15_SEPARATIONS = (2, 16, 256)
FIG15_SYMBOLS = 400
FRAME_PAYLOAD = 40
N_PREAMBLE = 6

FIG17_COUNTS = (1, 16, 32, 64, 96, 128, 160, 192, 224, 256)
FIG17_ROUNDS = 3

FADING_ROUNDS = 100
FADING_DEVICES = 64
#: Timings every fading section of the newest quick run must carry.
FADING_TIMINGS = ("per_round_fft_legacy", "batched_analytic", "batched_auto")


def _legacy_ber_point(config, snr_db, power_delta_db, n_symbols, rng):
    """Seed-style Fig. 12 point: per-round loop, FFT readout, AWGN."""
    params = config.chirp_params
    assignments = {0: fig12_nearfar_ber.WEAK_SHIFT}
    if power_delta_db is not None:
        assignments[1] = fig12_nearfar_ber.STRONG_SHIFT
    receiver = NetScatterReceiver(
        config, assignments, detection_snr_db=-100.0, readout="fft"
    )
    n_devices = len(assignments)
    cfo_to_bins = params.n_samples / params.bandwidth_hz
    errors, total = 0, 0
    while total < n_symbols:
        bits = rng.integers(0, 2, size=(FRAME_PAYLOAD, n_devices))
        bit_matrix = np.ones((N_PREAMBLE + FRAME_PAYLOAD, n_devices))
        bit_matrix[N_PREAMBLE:] = bits
        cfos_hz = rng.normal(scale=300.0, size=n_devices)
        bins = (
            np.array([2, 258][:n_devices], dtype=float)
            + cfos_hz * cfo_to_bins
        )
        amplitudes = np.ones(n_devices)
        if power_delta_db is not None:
            amplitudes[1] = 10.0 ** (power_delta_db / 20.0)
        phases = rng.uniform(0.0, 2.0 * np.pi, size=n_devices)
        symbols = compose_round_matrix(
            params, bins, amplitudes, phases, bit_matrix
        )
        decode = receiver.decode_round_matrix(
            awgn(symbols, snr_db, rng), n_preamble_upchirps=N_PREAMBLE
        )
        got = decode.devices[0].bits
        errors += sum(1 for s, g in zip(bits[:, 0].tolist(), got) if s != g)
        total += FRAME_PAYLOAD
    return errors / total


def _time_fig12_legacy() -> dict:
    config = NetScatterConfig()
    rng = np.random.default_rng(12)
    start = time.perf_counter()
    for snr in FIG12_SNRS:
        for delta in (None, 35.0, 45.0):
            _legacy_ber_point(config, float(snr), delta, FIG12_SYMBOLS, rng)
    elapsed = time.perf_counter() - start
    n_symbols = len(FIG12_SNRS) * 3 * FIG12_SYMBOLS
    return {
        "wall_clock_s": round(elapsed, 3),
        "symbols_decoded": n_symbols,
        "symbols_per_s": round(n_symbols / elapsed, 1),
    }


def _time_fig12_batched() -> dict:
    start = time.perf_counter()
    fig12_nearfar_ber.run(
        snrs_db=FIG12_SNRS,
        power_deltas_db=(None, 35.0, 45.0),
        n_symbols=FIG12_SYMBOLS,
        rng=12,
    )
    elapsed = time.perf_counter() - start
    n_symbols = len(FIG12_SNRS) * 3 * FIG12_SYMBOLS
    return {
        "wall_clock_s": round(elapsed, 3),
        "symbols_decoded": n_symbols,
        "symbols_per_s": round(n_symbols / elapsed, 1),
    }


def _time_fig15_batched() -> dict:
    start = time.perf_counter()
    result = fig15_doppler_dr.run_dynamic_range(
        separations_bins=FIG15_SEPARATIONS,
        n_symbols=FIG15_SYMBOLS,
        rng=16,
    )
    elapsed = time.perf_counter() - start
    # One baseline point plus however many deltas each separation needed.
    n_points = 1 + sum(1 for _ in result.rows)
    return {
        "wall_clock_s": round(elapsed, 3),
        "sweep_points_lower_bound": n_points,
        "symbols_per_point": FIG15_SYMBOLS,
    }


def _time_fig17_sweep(
    engine: str, float32_min_devices=None, counts=FIG17_COUNTS
) -> dict:
    deployment = paper_deployment(n_devices=max(counts), rng=2026)
    config = NetScatterConfig(n_association_shifts=0)
    start = time.perf_counter()
    metrics = sweep_device_counts(
        deployment,
        counts,
        config=config,
        n_rounds=FIG17_ROUNDS,
        rng=17,
        engine=engine,
        float32_min_devices=float32_min_devices,
    )
    elapsed = time.perf_counter() - start
    return {
        "wall_clock_s": round(elapsed, 3),
        "sweep_points": len(counts),
        "n_rounds": FIG17_ROUNDS,
        "phy_rate_kbps_at_max": round(metrics[-1].phy_rate_bps / 1e3, 1),
        # The spectral backend each point actually decoded with — makes
        # the adaptive engine's crossover visible in the record.
        "backends": [m.backend for m in metrics],
    }


def _time_fig17_point256(engine: str, n_devices: int = 256) -> dict:
    """The sweep's largest point alone (the D = N/2 crossover regime)."""
    deployment = paper_deployment(n_devices=n_devices, rng=2026)
    config = NetScatterConfig(n_association_shifts=0)
    best, metrics = float("inf"), None
    for _ in range(3):
        start = time.perf_counter()
        metrics = sweep_device_counts(
            deployment,
            (n_devices,),
            config=config,
            n_rounds=FIG17_ROUNDS,
            rng=17,
            engine=engine,
        )
        best = min(best, time.perf_counter() - start)
    return {
        "wall_clock_s": round(best, 4),
        "n_devices": n_devices,
        "n_rounds": FIG17_ROUNDS,
        "backend": metrics[0].backend,
    }


def _seed_style_fading_rounds(sim, legacy_receiver, n_rounds: int):
    """Seed-style fading loop: the pre-batching implementation's profile.

    Per round: per-device Python draws (fading step, MCU latency,
    oscillator CFO), one waveform composition, time-domain AWGN over
    the frame, a full-FFT single-round decode, and per-device Python
    bit scoring — the same baseline styling as :func:`_legacy_ber_point`
    reconstructs for Fig. 12.
    """
    params = sim._params
    n_devices = sim._deployment.n_devices
    n_pre = sim._structure.n_preamble_upchirps
    oscillators = sim._oscillator_bank.oscillators()
    total_correct = total_sent = delivered = 0
    for _ in range(n_rounds):
        effective = sim.effective_snrs_db()
        effective = [
            e + dev.step_channel(0.06, sim._rng) - dev.uplink_snr_db
            for e, dev in zip(effective, sim._deployment.devices)
        ]
        floor = min(effective)
        rel = np.asarray(effective) - floor
        delays = np.array(
            [sim._timing.sample_latency_s(sim._rng) for _ in range(n_devices)]
        )
        delays -= delays.mean()
        cfos = np.array([o.offset_hz(sim._rng) for o in oscillators])
        bins = (
            np.array(
                [sim._assignments[i] for i in range(n_devices)], dtype=float
            )
            - delays * params.bandwidth_hz
            + cfos * params.n_samples / params.bandwidth_hz
        )
        amplitudes = 10.0 ** (rel / 20.0)
        phases = sim._rng.uniform(0.0, 2.0 * np.pi, size=n_devices)
        bit_matrix = np.ones((n_pre + sim._payload_bits, n_devices))
        payload = sim._rng.integers(
            0, 2, size=(sim._payload_bits, n_devices)
        )
        bit_matrix[n_pre:] = payload
        symbols = compose_round_matrix(
            params, bins, amplitudes, phases, bit_matrix
        )
        decode = legacy_receiver.decode_round_matrix(
            awgn(symbols, floor, sim._rng), n_preamble_upchirps=n_pre
        )
        for index in range(n_devices):
            sent = payload[:, index].tolist()
            got = list(decode.devices[index].bits)
            total_sent += len(sent)
            total_correct += sum(1 for s, g in zip(sent, got) if s == g)
            if len(got) == len(sent) and all(
                s == g for s, g in zip(sent, got)
            ):
                delivered += 1
    return total_correct / max(total_sent, 1)


def _time_fading(n_rounds: int = FADING_ROUNDS,
                 n_devices: int = FADING_DEVICES) -> dict:
    """Fading rounds: batched AR(1) tracks vs the seed-style loop."""
    config = NetScatterConfig(n_association_shifts=0)
    report: dict = {"n_rounds": n_rounds, "n_devices": n_devices}

    deployment = paper_deployment(n_devices=n_devices, rng=2026)
    sim = NetworkSimulator(
        deployment, config=config, rng=5, engine="time"
    )
    legacy_receiver = NetScatterReceiver(
        config, sim.assignments, readout="fft"
    )
    start = time.perf_counter()
    _seed_style_fading_rounds(sim, legacy_receiver, n_rounds)
    report["per_round_fft_legacy"] = {
        "wall_clock_s": round(time.perf_counter() - start, 3)
    }

    for label, engine in (
        ("batched_analytic", "analytic"),
        ("batched_auto", "auto"),
    ):
        deployment = paper_deployment(n_devices=n_devices, rng=2026)
        sim = NetworkSimulator(
            deployment, config=config, rng=5, engine=engine
        )
        start = time.perf_counter()
        metrics = sim.run_rounds(n_rounds, fading=True)
        report[label] = {
            "wall_clock_s": round(time.perf_counter() - start, 3),
            "backend": metrics.backend,
        }
    report["speedup_batched_vs_legacy"] = round(
        report["per_round_fft_legacy"]["wall_clock_s"]
        / report["batched_auto"]["wall_clock_s"],
        2,
    )
    return report


def _time_noise_modes(n_rounds: int = FADING_ROUNDS,
                      n_devices: int = FADING_DEVICES,
                      repeats: int = 3) -> dict:
    """Located-bin payload noise stream vs the full-bin version-1 stream.

    Times the batched fading decode path (the analytic engine at the
    fading benchmark's operating point, where the readout-noise draws
    were measured at ~45% of remaining decode cost) under both
    ``noise_mode`` settings. The two streams realise the same noise law
    — decisions are statistically identical — so the ratio is purely
    the saved draw/mixing work of reading payload noise only at the
    located ``±1`` bins.
    """
    config = NetScatterConfig(n_association_shifts=0)
    report: dict = {"n_rounds": n_rounds, "n_devices": n_devices}
    for mode in ("full", "payload"):
        best, metrics = float("inf"), None
        for _ in range(repeats):
            deployment = paper_deployment(n_devices=n_devices, rng=2026)
            sim = NetworkSimulator(
                deployment, config=config, rng=5,
                engine="analytic", noise_mode=mode,
            )
            start = time.perf_counter()
            metrics = sim.run_rounds(n_rounds, fading=True)
            best = min(best, time.perf_counter() - start)
        report[mode] = {
            "wall_clock_s": round(best, 4),
            "noise_version": metrics.noise_version,
            "backend": metrics.backend,
        }
    report["speedup_payload_vs_full"] = round(
        report["full"]["wall_clock_s"]
        / report["payload"]["wall_clock_s"],
        2,
    )
    return report


def _time_campaign(
    counts=(1, 64, 256), n_rounds: int = FIG17_ROUNDS
) -> dict:
    """Campaign layer: cold run vs warm re-run vs cross-figure reuse.

    Cold populates a throwaway store point by point; warm re-runs the
    identical spec (every point must load from the store — the report
    validator gates ``points_computed == 0``); the Fig. 18 campaign
    then runs over the same store, whose points are content-identical
    to Fig. 17's, demonstrating the cross-figure cache.
    """
    root = Path(tempfile.mkdtemp(prefix="repro-campaign-bench-"))
    try:
        store = CampaignStore(root)
        runner = CampaignRunner(store=store)
        report: dict = {
            "device_counts": list(counts),
            "n_rounds": n_rounds,
        }
        spec17 = fig17_campaign(
            rng=17, device_counts=counts, n_rounds=n_rounds
        )
        spec18 = fig18_campaign(
            rng=17, device_counts=counts, n_rounds=n_rounds
        )
        for label, spec in (
            ("cold", spec17),
            ("warm_rerun", spec17),
            ("fig18_reuse", spec18),
        ):
            start = time.perf_counter()
            run = runner.run(spec)
            report[label] = {
                "wall_clock_s": round(time.perf_counter() - start, 4),
                "points_computed": run.n_computed,
                "points_cached": run.n_cached,
            }
        report["speedup_warm_vs_cold"] = round(
            report["cold"]["wall_clock_s"]
            / max(report["warm_rerun"]["wall_clock_s"], 1e-6),
            2,
        )
        return report
    finally:
        shutil.rmtree(root, ignore_errors=True)


def _time_population_scale(
    device_counts=(256, 10_000, 100_000)
) -> dict:
    """Flat-population deployment + one hybrid-fidelity schedule cycle.

    The PR-10 scaling headline: each point builds an office population
    as flat NumPy columns (no per-device objects) and scores one full
    schedule cycle through the hybrid split — closed-form aggregation
    for the uncontended bulk, seeded Monte-Carlo engine legs for the
    low-SNR/contended tail (see docs/SCALING.md).
    """
    from repro.protocol.population import (
        hybrid_population_round,
        office_population,
    )

    section = {}
    for count in device_counts:
        start = time.perf_counter()
        population = office_population(
            count, rng=101, snr_scale_db=-26.0
        )
        deploy_s = time.perf_counter() - start
        start = time.perf_counter()
        result = hybrid_population_round(population, seed=11)
        round_s = time.perf_counter() - start
        section[f"devices_{count}"] = {
            "n_devices": count,
            "deploy_s": round(deploy_s, 4),
            "wall_clock_s": round(round_s, 4),
            "n_groups": result.n_groups,
            "closed_form_groups": result.n_closed_form_groups,
            "monte_carlo_groups": result.n_monte_carlo_groups,
            "monte_carlo_devices": result.n_monte_carlo_devices,
            "delivery_ratio": round(result.delivery_ratio, 4),
        }
    return section


def _time_callable(fn, **kwargs) -> dict:
    start = time.perf_counter()
    fn(**kwargs)
    return {"wall_clock_s": round(time.perf_counter() - start, 3)}


def validate_report(report: dict) -> dict:
    """Validate a ``BENCH_fastpath.json`` payload against schema v2.

    Raises ``ValueError`` on the first violation, returns the report
    unchanged otherwise. The rules are the documented schema
    (``docs/PERFORMANCE.md``): a ``bench-fastpath-v2`` envelope with a
    non-empty append-only ``runs`` list; every non-legacy run carries
    ``timestamp`` + ``host``; every ``wall_clock_s`` anywhere in a run
    is a non-negative number and every ``speedup*`` key a positive
    number; ``noise_modes`` sections record both streams' versions and
    their speedup ratio; ``campaign`` sections record the cold /
    warm-rerun / cross-figure-reuse point counts, and the warm re-run
    and the Fig. 18 reuse must have recomputed **zero** points (the
    campaign layer's cache contract). Section-*presence* rules (a
    quick run must carry ``fig17_point256`` + ``fading`` +
    ``noise_modes`` + ``campaign`` + ``population_scale``, and its
    ``fading`` section a ``wall_clock_s`` for each of
    :data:`FADING_TIMINGS`) apply only to the **newest** run — the one
    the current tool produced.
    The history is append-only and older runs were written by older
    section layouts; rejecting them would force hand-editing the
    accumulated trajectory, exactly what this file must never require.
    """
    if not isinstance(report, dict):
        raise ValueError("report must be a JSON object")
    if report.get("schema") != "bench-fastpath-v2":
        raise ValueError(
            f"unexpected schema {report.get('schema')!r}; "
            "expected 'bench-fastpath-v2'"
        )
    runs = report.get("runs")
    if not isinstance(runs, list) or not runs:
        raise ValueError("runs must be a non-empty list")

    def is_number(value):
        # bool is an int subclass; a JSON `true` is not a wall-clock.
        return isinstance(value, (int, float)) and not isinstance(
            value, bool
        )

    def walk(node, path):
        if isinstance(node, list):
            for index, item in enumerate(node):
                walk(item, f"{path}[{index}]")
            return
        if not isinstance(node, dict):
            return
        for key, value in node.items():
            where = f"{path}.{key}"
            if key == "wall_clock_s":
                if not is_number(value) or value < 0:
                    raise ValueError(f"{where} must be a >= 0 number")
            elif key.startswith("speedup"):
                if not is_number(value) or value <= 0:
                    raise ValueError(f"{where} must be a positive number")
            else:
                walk(value, where)

    for index, run in enumerate(runs):
        where = f"runs[{index}]"
        if not isinstance(run, dict):
            raise ValueError(f"{where} must be an object")
        if "note" in run:
            continue  # imported v1 / opaque legacy entries
        if not isinstance(run.get("timestamp"), str):
            raise ValueError(f"{where}.timestamp missing")
        if not isinstance(run.get("host"), dict):
            raise ValueError(f"{where}.host missing")
        walk(run, where)
        if run.get("quick") and index == len(runs) - 1:
            for section in (
                "fig17_point256",
                "fading",
                "noise_modes",
                "campaign",
                "population_scale",
            ):
                if section not in run:
                    raise ValueError(
                        f"{where} is a quick run but lacks {section!r}"
                    )
            fading = run["fading"]
            for timing in FADING_TIMINGS:
                entry = fading.get(timing) if isinstance(fading, dict) else None
                if not isinstance(entry, dict) or "wall_clock_s" not in entry:
                    raise ValueError(
                        f"{where}.fading.{timing} must record wall_clock_s"
                    )
        modes = run.get("noise_modes")
        if modes is not None:
            for mode, version in (("full", 1), ("payload", 2)):
                entry = modes.get(mode)
                if not isinstance(entry, dict):
                    raise ValueError(
                        f"{where}.noise_modes.{mode} missing"
                    )
                if entry.get("noise_version") != version:
                    raise ValueError(
                        f"{where}.noise_modes.{mode} must record "
                        f"noise_version {version}"
                    )
            if "speedup_payload_vs_full" not in modes:
                raise ValueError(
                    f"{where}.noise_modes lacks speedup_payload_vs_full"
                )
        scale = run.get("population_scale")
        if scale is not None:
            if not isinstance(scale, dict) or not scale:
                raise ValueError(
                    f"{where}.population_scale must be a non-empty object"
                )
            for name, entry in scale.items():
                for counter in ("n_devices", "n_groups"):
                    if not is_number(entry.get(counter)):
                        raise ValueError(
                            f"{where}.population_scale.{name}.{counter} "
                            "must be a number"
                        )
                if (
                    entry.get("closed_form_groups", 0)
                    + entry.get("monte_carlo_groups", 0)
                    != entry.get("n_groups")
                ):
                    raise ValueError(
                        f"{where}.population_scale.{name}: fidelity "
                        "split does not cover every group"
                    )
        campaign = run.get("campaign")
        if campaign is not None:
            for section in ("cold", "warm_rerun", "fig18_reuse"):
                entry = campaign.get(section)
                if not isinstance(entry, dict):
                    raise ValueError(
                        f"{where}.campaign.{section} missing"
                    )
                for counter in ("points_computed", "points_cached"):
                    if not is_number(entry.get(counter)):
                        raise ValueError(
                            f"{where}.campaign.{section}.{counter} "
                            "must be a number"
                        )
            # The cache contract: a re-run over a populated store —
            # same spec or the content-identical Fig. 18 one —
            # recomputes nothing.
            for section in ("warm_rerun", "fig18_reuse"):
                if campaign[section]["points_computed"] != 0:
                    raise ValueError(
                        f"{where}.campaign.{section} recomputed "
                        f"{campaign[section]['points_computed']} "
                        "points; the store must serve them all"
                    )
    return report


def _load_previous_runs(output: Path) -> list:
    """Existing run history; a legacy v1 file becomes the first entry.

    The file is append-only across PRs, so never silently drop what is
    there: unparsable JSON aborts with instructions instead of letting
    the subsequent write clobber the trajectory, and an unrecognised
    schema is preserved verbatim as an opaque entry.
    """
    if not output.exists():
        return []
    try:
        data = json.loads(output.read_text())
    except json.JSONDecodeError as error:
        raise SystemExit(
            f"{output} exists but is not valid JSON ({error}); fix or "
            "move it aside before benchmarking — refusing to overwrite "
            "the accumulated perf history"
        )
    if not isinstance(data, dict):
        return [
            {"note": "unrecognised schema, preserved as-is", "data": data}
        ]
    if data.get("schema") == "bench-fastpath-v2":
        return list(data.get("runs", []))
    if data.get("schema") == "bench-fastpath-v1":
        legacy = {
            key: data[key]
            for key in ("host", "fig12", "fig15b")
            if key in data
        }
        legacy["note"] = "imported from single-run bench-fastpath-v1"
        return [legacy]
    return [{"note": "unrecognised schema, preserved as-is", "data": data}]


def main(quick: bool = False, output=None) -> dict:
    output = OUTPUT if output is None else Path(output)
    run = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
    }
    if quick:
        # Sub-10 s subset: the occupancy-adaptive headline comparisons
        # only, at reduced sizes (used by tests/test_perf_guard.py).
        run["quick"] = True
        run["fig17_point256"] = {
            "analytic": _time_fig17_point256("analytic"),
            "auto": _time_fig17_point256("auto"),
        }
        run["fading"] = _time_fading(n_rounds=30, n_devices=32)
        run["noise_modes"] = _time_noise_modes(n_rounds=30, n_devices=32)
        run["campaign"] = _time_campaign(counts=(1, 32), n_rounds=1)
        run["population_scale"] = _time_population_scale(
            device_counts=(256, 10_000)
        )
    else:
        run["fig12"] = {
            "per_round_fft": _time_fig12_legacy(),
            "batched_sparse": _time_fig12_batched(),
        }
        run["fig15b"] = {"batched_sparse": _time_fig15_batched()}
        run["fig17_sweep"] = {
            "time_engine": _time_fig17_sweep("time"),
            "analytic": _time_fig17_sweep("analytic"),
            "analytic_float32": _time_fig17_sweep(
                "analytic", float32_min_devices=160
            ),
            "auto": _time_fig17_sweep("auto"),
        }
        run["fig17_point256"] = {
            "analytic": _time_fig17_point256("analytic"),
            "auto": _time_fig17_point256("auto"),
        }
        run["fading"] = _time_fading()
        run["noise_modes"] = _time_noise_modes()
        run["campaign"] = _time_campaign()
        run["population_scale"] = _time_population_scale()
        run["figure_drivers"] = {
            "fig17": _time_callable(fig17_phy_rate.run, rng=17),
            "fig18": _time_callable(fig18_linklayer.run, rng=18),
            "fig19": _time_callable(fig19_latency.run, rng=19),
            "sec22": _time_callable(sec22_analytics.run, rng=22),
        }
        fig12 = run["fig12"]
        fig12["speedup"] = round(
            fig12["per_round_fft"]["wall_clock_s"]
            / fig12["batched_sparse"]["wall_clock_s"],
            2,
        )
        fig17 = run["fig17_sweep"]
        for variant in ("analytic", "analytic_float32", "auto"):
            fig17[f"speedup_{variant}"] = round(
                fig17["time_engine"]["wall_clock_s"]
                / fig17[variant]["wall_clock_s"],
                2,
            )
    point = run["fig17_point256"]
    point["speedup_auto"] = round(
        point["analytic"]["wall_clock_s"] / point["auto"]["wall_clock_s"],
        2,
    )
    runs = _load_previous_runs(output)
    runs.append(run)
    report = {"schema": "bench-fastpath-v2", "runs": runs}
    validate_report(report)
    _write_atomic(output, json.dumps(report, indent=2) + "\n")
    print(json.dumps(run, indent=2))
    print(f"\nappended run {len(runs)} to {output}")
    return report


def _write_atomic(output: Path, text: str) -> None:
    """Tmp-file + ``os.replace`` write: a crash mid-append can never
    leave a torn ``BENCH_fastpath.json`` — the history is append-only
    and the previous version survives any interrupted write."""
    tmp = output.with_name(output.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, output)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="sub-10 s subset: fig17 256-point + reduced fading only",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="report path (default: BENCH_fastpath.json in the repo root)",
    )
    args = parser.parse_args()
    main(quick=args.quick, output=args.output)
