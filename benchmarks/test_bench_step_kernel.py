"""Benchmark: the fused step kernel vs the PR-3 per-slot step.

The PR-4 hot-path overhaul precomputes every action-independent slot
quantity (:class:`repro.fleet.planes.SlotPlanes`), runs the per-step
arithmetic through reusable ``out=`` buffers straight into the cost
book's storage, evaluates the blackout branch only on outage rows, and
replaces the per-step ``np.isin`` action validation with a cheap exact
check. This bench measures the payoff two ways on the canonical
``fleet.txt`` workload (100 hubs x 336 slots, rule-based scheduler):

* against :class:`ReferenceStepSimulation` — a faithful in-file copy of
  the PR-3 ``step()`` (slot-tuple rebuilds, fresh temporaries, both
  branches every slot) run on the same hardware, which is the
  hardware-independent speedup the guard asserts on; and
* against the absolute PR-3 rate recorded in ``reports/fleet.txt``
  (582,104 hub-slots/sec), reported for the cross-PR trend.

Both engines must also agree numerically (profit within 1e-6, columns
within atol 1e-9 — the same tolerance as the scalar-equivalence suite).
Thresholds relax under ``ECT_PERF_RELAXED=1`` / scaled-down workloads so
CI smoke runs guard regressions without flaky hard numbers.

The speedup is the median of per-pair time ratios over ``PAIRS``
interleaved fused/reference runs (which engine runs first alternates per
pair, after one untimed warm-up each), so host drift lands on both
engines alike instead of on whichever one a sequential best-of-3 timed
last. Every battery-kernel backend that resolves on this machine also
gets a throughput row (numpy only where numba isn't installed; the
optional CI leg adds the jitted row, checked at atol 1e-9 against the
default engine).
"""

from __future__ import annotations

import os

import numpy as np

from conftest import paired_times, perf_relaxed, timed_once, write_perf_report
from repro import api
from repro.backend import available_backends
from repro.energy.battery import CHARGE, DISCHARGE, IDLE
from repro.errors import FleetError, GridError
from repro.fleet import FleetSimulation

N_HUBS = 100

#: PR-3 batched rate recorded in reports/fleet.txt before the overhaul.
PR3_BASELINE_RATE = 582_104.0

#: Same-hardware speedup guard over the reference step implementation,
#: applied to the median per-pair ratio.
MIN_SPEEDUP = 2.0
MIN_SPEEDUP_RELAXED = 1.2

#: Interleaved fused/reference timing pairs behind the median ratio.
PAIRS = 31

#: Timed runs per backend throughput row (median reported).
BACKEND_RUNS = 5


class ReferenceStepSimulation(FleetSimulation):
    """The PR-3 step, verbatim: per-slot recomputation, no plane cache.

    Kept as the benchmark's reference so the speedup ratio is measured on
    the hardware running the bench instead of against a recorded number
    from other silicon. Only ``step`` differs; construction, the book,
    feeders, and schedulers are shared with the fused engine.
    """

    def step(self, actions: np.ndarray) -> dict[str, np.ndarray]:
        if self.done:
            raise FleetError(f"fleet horizon of {self.horizon} slots exhausted")
        actions = np.asarray(actions)
        if actions.shape != (self.n_hubs,):
            raise FleetError(
                f"actions must have shape ({self.n_hubs},), got {actions.shape}"
            )
        if not np.isin(actions, (DISCHARGE, IDLE, CHARGE)).all():
            raise FleetError("battery actions must be -1, 0, or 1")

        t = self._t
        params = self.params
        dt = params.dt_h
        blackout = self._outage[:, t]

        slot = self.inputs.slot(t)
        p_bs = params.bs_power_kw(slot.load_rate)
        rtp = slot.rtp_kwh
        srtp = params.cs_base_price_kwh * (1.0 - slot.discount)
        p_pv = slot.pv_power_kw
        p_wt = slot.wt_power_kw

        normal = self._normal_branch(actions, p_bs, p_pv, p_wt, t, dt)
        dark = self._blackout_branch(p_bs, p_pv, p_wt, dt)

        applied_action = np.where(blackout, IDLE, normal["action"])
        p_cs = np.where(blackout, 0.0, normal["p_cs_kw"])
        p_bp = np.where(blackout, dark["p_bp_kw"], normal["p_bp_kw"])
        p_grid = np.where(blackout, 0.0, normal["p_grid_kw"])
        surplus = np.where(blackout, dark["surplus_kw"], normal["surplus_kw"])
        unserved = np.where(blackout, dark["unserved_kwh"], 0.0)
        soc = np.where(blackout, dark["soc_kwh"], normal["soc_kwh"])
        throughput = np.where(
            blackout, dark["throughput_kwh"], normal["throughput_kwh"]
        )

        limit = params.import_limit_kw
        over = ~blackout & (limit > 0.0) & (p_grid > limit)
        if over.any():
            hub = int(np.argmax(over))
            raise GridError(
                f"hub {hub}: import of {p_grid[hub]:.3f} kW exceeds the "
                f"interconnection limit of {limit[hub]:.3f} kW"
            )

        shortfall_kw = np.zeros(self.n_hubs)
        if self._coupled:
            p_grid, shortfall_kw = self.feeders.allocate(p_grid, t)
            shortfall_kwh = shortfall_kw * dt
            eta = np.where(params.paper_exact, 1.0, params.discharge_efficiency)
            drawn = np.minimum(shortfall_kwh / eta, soc)
            served_kwh = drawn * eta
            p_bp = p_bp - np.where(drawn > 0.0, served_kwh / dt, 0.0)
            soc = soc - drawn
            throughput = throughput + drawn
            unserved = unserved + np.maximum(shortfall_kwh - served_kwh, 0.0)

        self.soc_kwh = soc
        self.throughput_kwh = self.throughput_kwh + throughput

        columns = {
            "action": applied_action,
            "blackout": blackout,
            "p_bs_kw": p_bs,
            "p_cs_kw": p_cs,
            "p_bp_kw": p_bp,
            "p_pv_kw": p_pv,
            "p_wt_kw": p_wt,
            "p_grid_kw": p_grid,
            "surplus_kw": surplus,
            "rtp_kwh": rtp,
            "srtp_kwh": srtp,
            "soc_kwh": self.soc_kwh,
            "grid_cost": p_grid * dt * rtp,
            "bp_cost": np.where(applied_action != IDLE, 1.0, 0.0)
            * params.c_bp_per_slot,
            "revenue": p_cs * dt * srtp,
            "unserved_kwh": unserved,
            "import_shortfall_kw": shortfall_kw,
        }
        self.book.record(t, **columns)
        self._t += 1
        return columns

    def _normal_branch(self, actions, p_bs, p_pv, p_wt, t, dt):
        params = self.params
        soc = self.soc_kwh

        eta_ch = params.charge_efficiency
        stored_requested = params.charge_rate_kw * dt * eta_ch
        headroom = np.maximum(params.soc_max_kwh - soc, 0.0)
        stored = np.where(
            stored_requested > headroom + 1e-12, headroom, stored_requested
        )
        charging = (actions == CHARGE) & (stored > 0.0)
        stored = np.where(charging, stored, 0.0)
        bus_charge_kwh = np.where(charging, stored / eta_ch, 0.0)

        eta_dch = params.discharge_efficiency
        requested_bus_kwh = params.discharge_rate_kw * dt
        drawn_requested = np.where(
            params.paper_exact,
            requested_bus_kwh * eta_dch,
            requested_bus_kwh / eta_dch,
        )
        bus_per_drawn = np.where(params.paper_exact, 1.0, eta_dch)
        available = np.maximum(soc - params.soc_min_kwh, 0.0)
        drawn = np.where(
            drawn_requested > available + 1e-12, available, drawn_requested
        )
        discharging = (actions == DISCHARGE) & (drawn > 0.0)
        drawn = np.where(discharging, drawn, 0.0)
        bus_discharge_kwh = np.where(discharging, drawn * bus_per_drawn, 0.0)

        applied = np.where(
            charging, CHARGE, np.where(discharging, DISCHARGE, IDLE)
        )
        p_bp = (bus_charge_kwh - bus_discharge_kwh) / dt
        new_soc = soc + stored - drawn

        p_cs = params.cs_power_kw(self.inputs.occupied[:, t])
        residual = p_bs + p_cs + p_bp - p_pv - p_wt
        p_grid = np.where(residual >= 0.0, residual, 0.0)
        surplus = np.where(residual >= 0.0, 0.0, -residual)

        return {
            "action": applied,
            "p_cs_kw": p_cs,
            "p_bp_kw": p_bp,
            "p_grid_kw": p_grid,
            "surplus_kw": surplus,
            "soc_kwh": new_soc,
            "throughput_kwh": stored + drawn,
        }

    def _blackout_branch(self, p_bs, p_pv, p_wt, dt):
        params = self.params
        soc = self.soc_kwh

        renewable = p_pv + p_wt
        deficit_kwh = np.maximum(p_bs - renewable, 0.0) * dt
        eta = np.where(params.paper_exact, 1.0, params.discharge_efficiency)
        drawn = np.minimum(deficit_kwh / eta, soc)
        served_kwh = drawn * eta
        return {
            "p_bp_kw": np.where(served_kwh > 0.0, -served_kwh / dt, 0.0),
            "surplus_kw": np.maximum(renewable - p_bs, 0.0),
            "soc_kwh": soc - drawn,
            "throughput_kwh": drawn,
            "unserved_kwh": deficit_kwh - served_kwh,
        }


def test_bench_step_kernel():
    scale = float(os.environ.get("ECT_BENCH_SCALE", 1.0))
    n_days = max(int(round(14 * scale)), 2)
    fused = api.build(
        api.resolve_spec("fleet-default").with_overrides(
            {"fleet.n_hubs": N_HUBS, "run.days": n_days, "run.seed": 0}
        )
    ).simulation
    reference = ReferenceStepSimulation(
        fused.params,
        fused.inputs,
        feeders=fused.feeders,
        voll_per_kwh=fused.voll_per_kwh,
    )
    hub_slots = N_HUBS * fused.horizon

    fused_s, reference_s = paired_times(fused, reference, PAIRS)
    fused_book, reference_book = fused.book, reference.book
    ratios = reference_s / fused_s
    speedup = float(np.median(ratios))
    ratio_q1, ratio_q3 = (float(q) for q in np.percentile(ratios, [25, 75]))

    # One throughput row per backend that actually resolves here; a
    # numba row appears only where the optional package is installed.
    backend_rates: dict[str, float] = {}
    backend_books: dict[str, object] = {}
    for backend in available_backends():
        sim = FleetSimulation(
            fused.params,
            fused.inputs,
            feeders=fused.feeders,
            voll_per_kwh=fused.voll_per_kwh,
            backend=backend,
        )
        timed_once(sim)
        times = [timed_once(sim) for _ in range(BACKEND_RUNS)]
        backend_rates[backend] = hub_slots / float(np.median(times))
        backend_books[backend] = sim.book

    fused_rate = hub_slots / float(np.median(fused_s))
    reference_rate = hub_slots / float(np.median(reference_s))
    vs_recorded = fused_rate / PR3_BASELINE_RATE
    relaxed = perf_relaxed()
    floor = MIN_SPEEDUP_RELAXED if relaxed else MIN_SPEEDUP

    backend_lines = [
        f"backend:{name:<9} {rate:>12,.0f} hub-slots/sec"
        for name, rate in backend_rates.items()
    ]
    report = "\n".join(
        [
            "== step-kernel: fused planes kernel vs PR-3 per-slot step ==",
            f"workload: {N_HUBS} hubs x {fused.horizon} slots "
            f"({hub_slots} hub-slots), rule-based scheduler",
            f"fused     {fused_rate:>12,.0f} hub-slots/sec  "
            f"(median {np.median(fused_s):.3f}s)",
            f"reference {reference_rate:>12,.0f} hub-slots/sec  "
            f"(median {np.median(reference_s):.3f}s)",
            *backend_lines,
            f"speedup   {speedup:>12.2f}x  median of {PAIRS} interleaved "
            f"pairs, IQR {ratio_q1:.2f}-{ratio_q3:.2f}x  (guard: >= "
            f"{floor:.1f}x{', relaxed' if relaxed else ''})",
            f"vs PR-3 recorded rate ({PR3_BASELINE_RATE:,.0f}/s): "
            f"{vs_recorded:.2f}x",
            f"profit agreement: fused ${fused_book.profit:,.1f} vs "
            f"reference ${reference_book.profit:,.1f}",
        ]
    )
    write_perf_report(
        "step-kernel",
        report,
        {
            "workload": {
                "n_hubs": N_HUBS,
                "slots": fused.horizon,
                "hub_slots": hub_slots,
                "scheduler": "rule-based",
            },
            "fused_hub_slots_per_sec": fused_rate,
            "reference_hub_slots_per_sec": reference_rate,
            "backend_hub_slots_per_sec": backend_rates,
            "speedup": speedup,
            "speedup_iqr": [ratio_q1, ratio_q3],
            "pairs": PAIRS,
            "pr3_recorded_rate": PR3_BASELINE_RATE,
            "speedup_vs_pr3_recorded": vs_recorded,
            "relaxed": relaxed,
        },
    )
    print("\n" + report)

    # Numerical safety net: the fused kernel books the same run as the
    # PR-3 step, at the scalar-equivalence tolerance.
    assert abs(fused_book.profit - reference_book.profit) < 1e-6
    for name in fused_book._FLOAT_COLUMNS:
        np.testing.assert_allclose(
            getattr(fused_book, name),
            getattr(reference_book, name),
            rtol=0,
            atol=1e-9,
            err_msg=name,
        )
    assert (fused_book.action == reference_book.action).all()

    # Per-backend agreement: numpy byte-identical, jitted within 1e-9.
    for name, backend_book in backend_books.items():
        if name == "numpy":
            assert backend_book.profit == fused_book.profit
        else:  # pragma: no cover - needs the optional numba package
            for column in fused_book._FLOAT_COLUMNS:
                np.testing.assert_allclose(
                    getattr(backend_book, column),
                    getattr(fused_book, column),
                    rtol=0,
                    atol=1e-9,
                    err_msg=f"{name}:{column}",
                )

    assert speedup >= floor, report
