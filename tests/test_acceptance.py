"""Release acceptance suite: one test per numbered criterion.

Each test registers a single PASS/FAIL line (echoed by the terminal-summary
hook in conftest.py), then asserts on it, so `pytest -v` shows one verdict per
criterion.  Criteria 1 through 6 are closed-form or determinism checks and run
in seconds.  Criteria 7 and 8 are directional replication experiments over 30
paired seeds (about 90 s); when an ordering fails at the default
configuration they fall back to a heterogeneity sweep over m in [0.1, 0.4],
a in [1, 3], b in [2, 5], driven through the command line interface, and pass
only if a conforming setting is located and recorded.  The fallback adds a
few minutes; the whole module is budgeted under ten minutes on one core.
"""

import csv
import math
import random
import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from wsnsim import cli, engine, report
from wsnsim.engine import DrawStream, initial_state, simulate_round
from wsnsim.model import NodeTier, ProtocolKind, SimConfig, deploy, weighted_probabilities
from wsnsim.protocols import distance_factor, elect_heads, rotation, sep_threshold, threshold
from wsnsim.radio import crossover_distance, rx_energy, tx_energy

PROTOCOLS = (ProtocolKind.LEACH, ProtocolKind.SEP, ProtocolKind.DBCP)
REPLICATION_SEEDS = range(1, 31)

# printed as a block by the terminal-summary hook in conftest.py
CRITERION_LINES: list[str] = []


def record(number: int, name: str, ok: bool, detail: str) -> bool:
    verdict = "PASS" if ok else "FAIL"
    CRITERION_LINES.append(f"criterion {number} {verdict}: {name}: {detail}")
    return ok


def test_criterion_1_radio_model_exactness():
    radio = SimConfig()
    t0 = time.perf_counter()
    tx = tx_energy(radio, 50.0)
    rx = rx_energy(radio)
    d0 = crossover_distance(radio)
    d2 = d0 * d0
    free_space = 4000 * radio.e_elec + 4000 * (radio.eps_fs * d2)
    multipath = 4000 * radio.e_elec + 4000 * (radio.eps_mp * d2 * d2)
    gap = abs(free_space - multipath) / max(free_space, multipath)
    ms = (time.perf_counter() - t0) * 1e3
    ok = abs(tx - 1.2e-4) <= 1e-9 and abs(rx - 2.0e-5) <= 1e-9 and gap <= 1e-15
    assert record(
        1, "radio model exactness", ok,
        f"tx(4000 bits, 50 m)={tx:.10e} J, rx(4000)={rx:.10e} J, "
        f"branch gap at d0={gap:.1e} rel, {ms:.2f} ms",
    )


def test_criterion_2_probability_algebra():
    t0 = time.perf_counter()
    rng = random.Random(11)
    worst = 0.0
    drawn = 0
    while drawn < 1000:
        m = rng.uniform(0.0, 1.0)
        m0 = rng.uniform(0.0, m)
        a = rng.uniform(0.0, 4.0)
        b = a + rng.uniform(0.0, 4.0)
        p_opt = rng.uniform(0.01, 0.3)
        try:
            probs = weighted_probabilities(SimConfig(p_opt=p_opt, m=m, m0=m0, a=a, b=b))
        except ValueError:
            continue  # pathological draw, resample: the criterion wants valid ones
        drawn += 1
        mixture = (
            (1.0 - m) * probs.p_normal
            + (m - m0) * probs.p_advanced
            + m0 * probs.p_super
        )
        worst = max(worst, abs(mixture - p_opt))

    # closed-form network total vs the deployed sum, at parameter points where
    # the tier populations are exact integers (so both sides are exact floats)
    exact = True
    totals = []
    cases = [
        (SimConfig(n=100, m=0.2, m0=0.1, a=2.0, b=3.0, e0=0.5, seed=5), 75.0),
        (SimConfig(n=8, m=0.25, m0=0.125, a=2.0, b=3.0, e0=0.5, seed=5), 6.5),
        (SimConfig(n=40, m=0.5, m0=0.25, a=1.5, b=2.5, e0=0.25, seed=5), 20.0),
    ]
    for h, expected in cases:
        closed = h.n * h.e0 * (1.0 + h.a * (h.m - h.m0) + h.m0 * h.b)
        nodes = deploy(h, random.Random(5))
        deployed = sum(nodes.energy.tolist())
        totals.append(deployed)
        exact = exact and closed == deployed == expected
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and exact and elapsed < 1.0
    assert record(
        2, "probability algebra", ok,
        f"worst mixture deviation {worst:.2e} over 1000 draws, "
        f"deployed totals {totals} J match closed form exactly, {elapsed:.2f} s",
    )


def test_criterion_3_threshold_properties():
    t0 = time.perf_counter()
    rng = random.Random(3)
    u = rng.random
    ramp, d_avg, d_i = [], [], []
    for _ in range(100_000):
        p = 0.01 + 0.98 * u()
        r = int(10_000 * u())
        ramp.append(sep_threshold(rotation(p), r))
        d_avg.append(1.0 + 99.0 * u())
        d_i.append(2.0 * d_avg[-1] * u())
    ramp, d_avg, d_i = (np.array(v) for v in (ramp, d_avg, d_i))
    # every draw is one node, of a tier of its own: the rule unscaled (leach,
    # sep) and with the dbcp distance factor
    node = np.arange(len(ramp))
    s = threshold(ramp, node, 1.0)
    d = threshold(ramp, node, distance_factor(d_i, d_avg))
    bounds_bad = int(np.count_nonzero(~((0.0 <= s) & (s <= 1.0) & (0.0 <= d) & (d <= 1.0))))
    order_bad = int(np.count_nonzero(d > s))
    equality_bad = int(np.count_nonzero((d == s) != ((d_i >= d_avg) | (d_i == 0.0))))
    certain = all(
        sep_threshold(rotation(1.0 / k), lap * k + (k - 1)) == 1.0
        for k in range(1, 51)
        for lap in range(4)
    )
    elapsed = time.perf_counter() - t0
    ok = bounds_bad == order_bad == equality_bad == 0 and certain and elapsed < 1.0
    assert record(
        3, "threshold properties", ok,
        f"100000 draws: {bounds_bad} out of [0,1], {order_bad} above the "
        f"unscaled threshold, {equality_bad} equality-condition misses, "
        f"epoch-end certainty {certain}, {elapsed:.2f} s",
    )


def test_criterion_4_election_oracle():
    t0 = time.perf_counter()
    config = SimConfig(n=100, seed=2026)
    nodes = deploy(config, random.Random(config.seed))
    trials = 10_000
    deviations = {}
    ok = True
    for protocol in PROTOCOLS:
        state = initial_state(replace(config, protocol=protocol), nodes)
        if protocol is ProtocolKind.LEACH:
            rates = (config.p_opt,) * len(NodeTier)
        else:
            rates = weighted_probabilities(config)
        tier_thresholds = [sep_threshold(rotation(p), 0) for p in rates]
        thresholds = threshold(tier_thresholds, state.tier, state.factor).tolist()
        expected = sum(thresholds)
        # heads are independent Bernoulli draws in round 0, so the empirical
        # mean over `trials` draws has standard error sqrt(sum t(1-t)/trials)
        se = math.sqrt(sum(t * (1.0 - t) for t in thresholds) / trials)
        draws = DrawStream(random.Random(7))
        total = 0
        for _ in range(trials):
            state.eligible_from[:] = 0
            total += len(elect_heads(state, state.alive, 0, draws))
        mean = total / trials
        deviations[protocol.value] = (mean, expected, abs(mean - expected) / se)
        ok = ok and abs(mean - expected) <= 3.0 * se
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    detail = ", ".join(
        f"{name} mean {mean:.3f} vs {exp:.3f} ({dev:.2f} se)"
        for name, (mean, exp, dev) in deviations.items()
    )
    assert record(4, "election head-count oracle", ok, f"{detail}, {elapsed:.1f} s")


def test_criterion_5_single_cluster_closed_form(make_deployment):
    bits = 4000
    e_elec, eps_fs, eps_mp, e_da = 5e-9, 10e-12, 0.0013e-12, 5e-9
    d0 = math.sqrt(eps_fs / eps_mp)

    def tx_hand(d):
        amp = eps_fs * d * d if d < d0 else eps_mp * d**4
        return bits * e_elec + bits * amp

    coords = [
        (50.0, 40.0),  # the forced head
        (30.0, 50.0), (70.0, 50.0), (50.0, 70.0), (35.0, 35.0),
        (65.0, 65.0), (20.0, 80.0), (80.0, 20.0),
    ]
    config = SimConfig(n=len(coords), seed=9, protocol=ProtocolKind.LEACH)
    # the default config's tiers for 8 nodes: one super, one advanced, six normal
    tiers = [NodeTier.SUPER, NodeTier.ADVANCED] + [NodeTier.NORMAL] * 6
    nodes = make_deployment(coords, tiers, energies=[2.0, 1.5] + [0.5] * 6)
    state = initial_state(config, nodes)
    state.eligible_from[1:] = 10**9
    before = sum(nodes.energy.tolist())
    # round 9 closes the p=0.1 epoch, so the sole eligible node is certain
    metrics = simulate_round(state, 9, DrawStream(random.Random(3)))
    after = sum(state.energy.tolist())
    engine_spend = before - after

    (hx, hy), members = coords[0], coords[1:]
    e_ch = (
        len(members) * bits * e_elec
        + len(coords) * bits * e_da
        + tx_hand(math.hypot(hx - 50.0, hy - 50.0))
    )
    e_nch = sum(tx_hand(math.hypot(x - hx, y - hy)) for x, y in members)
    drift = abs(engine_spend - (e_ch + e_nch))
    ledger_drift = abs(state.energy_dissipated - (e_ch + e_nch))
    ok = metrics.head_count == 1 and metrics.packets_to_bs_round == 1
    ok = ok and drift <= 1e-9 and ledger_drift <= 1e-9
    assert record(
        5, "single-cluster closed form", ok,
        f"engine {engine_spend:.12e} J vs hand {e_ch + e_nch:.12e} J, "
        f"drift {drift:.1e} J",
    )


def test_criterion_6_conservation_and_determinism(tmp_path):
    t0 = time.perf_counter()
    config = SimConfig()
    first = engine.run(config)
    second = engine.run(config)
    final_residual = first.series[-1].residual_energy_j
    drift = abs(first.initial_energy_j - final_residual - first.energy_dissipated_j)
    path_a = tmp_path / "a.csv"
    path_b = tmp_path / "b.csv"
    report.write_series(first.series, path_a)
    report.write_series(second.series, path_b)
    identical = path_a.read_bytes() == path_b.read_bytes()
    elapsed = time.perf_counter() - t0
    ok = first.initial_energy_j == 75.0 and drift <= 1e-9 and identical
    assert record(
        6, "conservation and determinism", ok,
        f"initial {first.initial_energy_j} J, ledger drift {drift:.2e} J over "
        f"{first.summary.rounds_simulated} rounds, byte-identical series "
        f"{identical}, {elapsed:.1f} s",
    )


# --- criteria 7 and 8: directional replication over 30 paired seeds ---------


def orderings_hold(fnd, lnd, packets, curves):
    """Evaluate both directional orderings on per-protocol measures.

    Lifetime: mean fnd dbcp > sep > leach and mean lnd dbcp >= sep.
    Throughput: dbcp's mean alive curve stays at or above sep's for at least
    90% of rounds from the earlier of their mean fnd rounds onward, and mean
    total packets dbcp >= sep >= leach.
    """
    lifetime = (
        fnd["dbcp"] > fnd["sep"] > fnd["leach"] and lnd["dbcp"] >= lnd["sep"]
    )
    start = math.ceil(min(fnd["dbcp"], fnd["sep"]))
    alive_d, alive_s = curves["dbcp"], curves["sep"]
    span = range(start - 1, min(len(alive_d), len(alive_s)))
    if len(span) > 0:
        frac = sum(1 for i in span if alive_d[i] >= alive_s[i]) / len(span)
    else:
        frac = 0.0
    throughput = (
        frac >= 0.9 and packets["dbcp"] >= packets["sep"] >= packets["leach"]
    )
    return lifetime, throughput, frac


def measures_from(comparison):
    fnd, lnd, packets, curves = {}, {}, {}, {}
    for protocol in PROTOCOLS:
        agg = comparison[protocol]
        key = protocol.value
        fnd[key] = agg.stats["fnd"].mean
        lnd[key] = agg.stats["lnd"].mean
        packets[key] = agg.stats["total_packets"].mean
        curves[key] = agg.alive_mean
    return fnd, lnd, packets, curves


def measures_from_dir(point_dir):
    fnd, lnd, packets = {}, {}, {}
    with open(point_dir / "comparison.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            target = {"fnd": fnd, "lnd": lnd, "total_packets": packets}.get(row["metric"])
            if target is not None:
                target[row["protocol"]] = float(row["mean"])
    curves = {}
    with open(point_dir / "mean_curves.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            curves.setdefault(row["protocol"], []).append(float(row["alive_mean"]))
    return fnd, lnd, packets, curves


@pytest.fixture(scope="module")
def replication_batch():
    """90 paired default-config runs (3 protocols x 30 seeds), aggregated.
    They run as one cli.run_batch over the default worker count; each run
    owns its rng, so the results are those of one-by-one engine.run calls."""
    t0 = time.perf_counter()
    configs = [
        replace(SimConfig(), protocol=protocol, seed=seed)
        for protocol in PROTOCOLS
        for seed in REPLICATION_SEEDS
    ]
    runs = cli.run_batch(configs)
    elapsed = time.perf_counter() - t0
    return report.aggregate(runs), elapsed


# the a >= b corner of the stated box is excluded by the model's b >= a rule
BOX_AB = [
    (1.0, 2.0), (1.0, 3.5), (1.0, 5.0),
    (2.0, 2.0), (2.0, 3.5), (2.0, 5.0),
    (3.0, 3.5), (3.0, 5.0),
]
BOX_M = (0.1, 0.2, 0.3, 0.4)


@pytest.fixture(scope="module")
def box_search(replication_batch, tmp_path_factory):
    """Heterogeneity-box sweep, executed only when an ordering fails at the
    default configuration.

    Screens every box point through the sweep command (3 seeds, 7500 rounds),
    then confirms the most promising screen hits with the full 30-seed batch.
    Returns which orderings were confirmed where.
    """
    comparison, _ = replication_batch
    lifetime, throughput, _ = orderings_hold(*measures_from(comparison))
    outcome = SimpleNamespace(
        needed=not (lifetime and throughput),
        screened=0,
        screen_hits=[],
        confirmed=[],
        found_lifetime=None,
        found_throughput=None,
    )
    if not outcome.needed:
        return outcome

    root = tmp_path_factory.mktemp("box_sweep")
    candidates = []  # (fnd gap dbcp-sep, m, a, b, lifetime, throughput)
    for a, b in BOX_AB:
        out = root / f"a{a:g}_b{b:g}"
        code = cli.main(
            ["sweep", "--param", "m", "--values", ",".join(str(m) for m in BOX_M),
             "--a", str(a), "--b", str(b), "--seeds", "1..3",
             "--max-rounds", "7500", "--out", str(out)]
        )
        assert code == 0
        for m in BOX_M:
            outcome.screened += 1
            fnd, lnd, packets, curves = measures_from_dir(out / f"m_{m:g}")
            life, thr, _ = orderings_hold(fnd, lnd, packets, curves)
            if life or thr:
                candidates.append((fnd["dbcp"] - fnd["sep"], m, a, b, life, thr))
                outcome.screen_hits.append((m, a, b, life, thr))

    # confirm hits that screen for both orderings first, widest fnd gap first
    candidates.sort(key=lambda c: (c[4] and c[5], c[0]), reverse=True)
    for _, m, a, b, _, _ in candidates[:3]:
        runs = [
            engine.run(SimConfig(m=m, a=a, b=b, protocol=protocol, seed=seed))
            for protocol in PROTOCOLS
            for seed in REPLICATION_SEEDS
        ]
        confirm = report.aggregate(runs)
        life, thr, frac = orderings_hold(*measures_from(confirm))
        entry = ((m, a, b), confirm, life, thr, frac)
        outcome.confirmed.append(entry)
        if life and outcome.found_lifetime is None:
            outcome.found_lifetime = entry
        if thr and outcome.found_throughput is None:
            outcome.found_throughput = entry
        if outcome.found_lifetime and outcome.found_throughput:
            break
    return outcome


def test_criterion_7_lifetime_ordering(replication_batch, box_search):
    comparison, elapsed = replication_batch
    fnd, lnd, packets, curves = measures_from(comparison)
    lifetime, _, _ = orderings_hold(fnd, lnd, packets, curves)
    base = (
        f"defaults, 30 seeds: mean fnd leach={fnd['leach']:.1f} "
        f"sep={fnd['sep']:.1f} dbcp={fnd['dbcp']:.1f}, mean lnd "
        f"sep={lnd['sep']:.1f} dbcp={lnd['dbcp']:.1f}, batch {elapsed:.0f} s "
        f"(target 120 s)"
    )
    if lifetime:
        ok = True
        detail = base + "; ordering holds at the default configuration"
    elif box_search.found_lifetime:
        (m, a, b), confirm, _, _, _ = box_search.found_lifetime
        f2, l2, _, _ = measures_from(confirm)
        ok = True
        detail = base + (
            f"; conforming setting located by sweep and confirmed over 30 "
            f"seeds: m={m:g} a={a:g} b={b:g} with mean fnd "
            f"leach={f2['leach']:.1f} sep={f2['sep']:.1f} dbcp={f2['dbcp']:.1f}, "
            f"mean lnd sep={l2['sep']:.1f} dbcp={l2['dbcp']:.1f}"
        )
    else:
        ok = False
        detail = base + (
            f"; box sweep screened {box_search.screened} settings "
            f"({len(box_search.screen_hits)} screen hits, "
            f"{len(box_search.confirmed)} confirmed at 30 seeds), none conforms"
        )
    assert record(7, "lifetime ordering", ok, detail)


def test_criterion_8_throughput_ordering(replication_batch, box_search):
    comparison, _ = replication_batch
    fnd, lnd, packets, curves = measures_from(comparison)
    _, throughput, frac = orderings_hold(fnd, lnd, packets, curves)
    base = (
        f"defaults, 30 seeds: mean packets leach={packets['leach']:.0f} "
        f"sep={packets['sep']:.0f} dbcp={packets['dbcp']:.0f}, alive-curve "
        f"dominance dbcp over sep {frac:.1%} of rounds from first death"
    )
    if throughput:
        ok = True
        detail = base + "; ordering holds at the default configuration"
    elif box_search.found_throughput:
        (m, a, b), confirm, _, _, frac2 = box_search.found_throughput
        _, _, p2, _ = measures_from(confirm)
        ok = True
        detail = base + (
            f"; conforming setting located by sweep and confirmed over 30 "
            f"seeds: m={m:g} a={a:g} b={b:g} with mean packets "
            f"leach={p2['leach']:.0f} sep={p2['sep']:.0f} dbcp={p2['dbcp']:.0f}, "
            f"dominance {frac2:.1%}"
        )
    else:
        ok = False
        detail = base + (
            f"; box sweep screened {box_search.screened} settings "
            f"({len(box_search.screen_hits)} screen hits, "
            f"{len(box_search.confirmed)} confirmed at 30 seeds), none conforms"
        )
    assert record(8, "throughput ordering", ok, detail)
