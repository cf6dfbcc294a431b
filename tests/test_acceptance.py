"""End-to-end acceptance gate: one test per criterion, one printed verdict line each.

Budgets and tolerances are pinned in the asserts; the printed lines are for
humans reading the run log (pytest -v also shows one PASSED/FAILED per
criterion through the test names).
"""

import io
import itertools
import math
import time
from contextlib import redirect_stdout

import numpy as np

from lhzcode import (
    FactorGraph,
    NoiseModel,
    SimConfig,
    bp_decode,
    channel_prior,
    chernoff_bound,
    encode,
    num_pairs,
    planar_lhz_graph,
    run_cell,
    run_sweep,
    triangle_graph,
    union_bound,
)
from lhzcode.cli import main as cli_main

from reference import enumerate_codewords, exact_marginals, gf2_rank

SEED = 20250819

# verdict lines collected here are replayed by the conftest terminal-summary
# hook, so they show up even when pytest captures stdout
VERDICTS: list[str] = []


def _line(num, name, ok, detail):
    verdict = f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    VERDICTS.append(verdict)
    print(verdict)
    assert ok, f"criterion {num} {name}: {detail}"


def test_acceptance_1_endpoint_calibration():
    # n=2 has a single observed bit and no constraints: every decoder just
    # reads it, so the failure rate is the channel rate itself
    t0 = time.perf_counter()
    r = run_cell(2, 0.1, "bp", 5000, SEED)
    dt = time.perf_counter() - t0
    tol = 0.0127  # 3 sigma at p=0.1, 5000 trials
    ok = abs(r.p_fail - 0.1) <= tol and dt < 1.0
    _line(1, "endpoint calibration", ok, f"p_hat={r.p_fail:.4f} vs 0.1, tol {tol}, {dt:.2f}s")


def test_acceptance_2_one_round_beliefs():
    g = np.array([0, 0, 0, 0, 0, 1], dtype=np.uint8)
    out = bp_decode(triangle_graph(4), channel_prior(g, NoiseModel(0.1)),
                    iterations=1, schedule="belief", observed=g)
    want = np.array([0.9946745562130177, 0.9, 0.9, 0.9, 0.9, 0.6975103734439834])
    err = float(np.abs(out.beliefs[:, 0] - want).max())
    _line(2, "one-round beliefs", err <= 1e-6, f"max belief error {err:.2e} <= 1e-6")


def test_acceptance_3_bounds_dominate():
    t0 = time.perf_counter()
    spot1 = chernoff_bound(20, 0.1)
    spot2 = union_bound(40, 0.1)
    ok = abs(spot1 - 0.025062063262558797) < 1e-12 and abs(spot1 - 0.02504) < 1e-4
    ok = ok and abs(spot2 - 0.016263395783875038) < 1e-12 and abs(spot2 - 0.01628) < 1e-4
    worst = None
    for n, eps in itertools.product((10, 20, 40), (0.05, 0.1, 0.15, 0.2)):
        r = run_cell(n, eps, "majority", 10_000, SEED)
        pair_rate = r.pair_fail_rate
        sig_pair = math.sqrt(max(pair_rate * (1 - pair_rate), 1e-12) / r.trials)
        sig_word = math.sqrt(max(r.p_fail * (1 - r.p_fail), 1e-12) / r.trials)
        ok = ok and pair_rate <= r.chernoff + 3 * sig_pair
        ok = ok and r.p_fail <= r.union_bound + 3 * sig_word
        gap = r.chernoff - pair_rate
        if worst is None or gap < worst[0]:
            worst = (gap, n, eps)
    dt = time.perf_counter() - t0
    ok = ok and dt < 60.0
    _line(3, "analytic bounds dominate", ok,
          f"12 cells x 10^4 trials, tightest chernoff gap {worst[0]:.2e} at n={worst[1]} eps={worst[2]}, {dt:.1f}s")


def test_acceptance_4_failure_decay():
    t0 = time.perf_counter()
    rates = {}
    for dec in ("bp", "majority"):
        for n in (10, 40):
            rates[dec, n] = run_cell(n, 0.1, dec, 5000, SEED, bp_iterations=5).p_fail
    dt = time.perf_counter() - t0
    bound40 = 0.016263395783875038
    ok = (
        rates["bp", 40] < rates["bp", 10]
        and rates["majority", 40] < rates["majority", 10]
        and rates["bp", 40] < bound40
        and dt < 600.0
    )
    _line(4, "failure decay with n", ok,
          f"bp {rates['bp', 10]:.4f}->{rates['bp', 40]:.5f}, "
          f"majority {rates['majority', 10]:.4f}->{rates['majority', 40]:.5f}, "
          f"bp(40) < {bound40:.5f}, {dt:.0f}s")


def test_acceptance_5_mle_dominates():
    counts = {}
    for dec in ("mle", "majority", "bp"):
        counts[dec] = run_cell(6, 0.2, dec, 2000, SEED, shared_noise=True).failures
    ok = counts["mle"] <= counts["majority"] and counts["mle"] <= counts["bp"]
    _line(5, "exhaustive decoder dominates", ok,
          f"paired failures on 2000 trials: mle={counts['mle']} majority={counts['majority']} bp={counts['bp']}")


def test_acceptance_6_tree_marginals_exact():
    fixtures = [
        (FactorGraph(3, ((0, 1), (1, 2))),
         [[0.9, 0.1], [0.8, 0.2], [0.3, 0.7]], 3),
        (FactorGraph(4, ((0, 1), (0, 2), (0, 3))),
         [[0.6, 0.4], [0.9, 0.1], [0.2, 0.8], [0.55, 0.45]], 4),
        (FactorGraph(5, ((0, 1, 2), (2, 3), (3, 4))),
         [[0.7, 0.3], [0.35, 0.65], [0.5, 0.5], [0.9, 0.1], [0.25, 0.75]], 6),
        (FactorGraph(3, ((0, 1, 2),)),
         [[0.9, 0.1], [0.9, 0.1], [0.1, 0.9]], 1),
    ]
    worst = 0.0
    for graph, priors, iterations in fixtures:
        priors = np.array(priors)
        out = bp_decode(graph, priors, iterations=iterations, schedule="extrinsic")
        worst = max(worst, float(np.abs(out.beliefs - exact_marginals(graph, priors)).max()))
    _line(6, "cycle-free marginals exact", worst <= 1e-9,
          f"extrinsic schedule, max error {worst:.2e} <= 1e-9 over {len(fixtures)} fixtures")


def test_acceptance_7_constraint_structure():
    ok = True
    for n in range(3, 13):
        want = num_pairs(n) - n + 1
        ok = ok and gf2_rank(triangle_graph(n)) == want
        ok = ok and gf2_rank(planar_lhz_graph(n)) == want
    preimage_counts = set()
    for n in range(3, 8):
        image = {}
        for m in range(2**n):
            b = [(m >> (n - 1 - i)) & 1 for i in range(n)]
            key = tuple(encode(b).tolist())
            image[key] = image.get(key, 0) + 1
        preimage_counts |= set(image.values())
        ok = ok and len(image) == 2 ** (n - 1)
        ok = ok and enumerate_codewords(triangle_graph(n)) == set(image)
        ok = ok and enumerate_codewords(planar_lhz_graph(n)) == set(image)
    ok = ok and preimage_counts == {2}
    _line(7, "constraint structure", ok,
          "ranks k-n+1 for n=3..12, nullspaces = code image, encoding 2-to-1 for n=3..7")


def test_acceptance_8_determinism():
    cfg = SimConfig(n_values=(2, 6, 9), eps_values=(0.05, 0.15), decoders=("majority", "bp"),
                    trials=300, seed=SEED)
    sweeps = [run_sweep(cfg), run_sweep(cfg), run_sweep(cfg, threads=8)]
    ok = sweeps[0] == sweeps[1] == sweeps[2]
    argv = ["simulate", "--n", "2,6,9", "--eps", "0.05,0.15", "--decoder", "majority,bp",
            "--trials", "300", "--seed", str(SEED)]
    outs = []
    for extra in ([], [], ["--threads", "8"]):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli_main(argv + extra)
        ok = ok and code == 0
        outs.append(buf.getvalue())
    ok = ok and outs[0] == outs[1] == outs[2] and len(outs[0]) > 0
    _line(8, "byte-identical reruns", ok,
          f"sweeps equal, {len(outs[0].splitlines()) - 1} CSV rows identical across reruns and threads 1 vs 8")
