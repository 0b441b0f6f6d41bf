"""Call tracer for the traced run: wraps bicopterlab's public functions from outside.

Each wrapper replaces the name a consumer module resolves at call time
(`bicopterlab.sim.filter_deriv`, `bicopterlab.cli.simulate`,
`TimeSeries.to_csv`, ...), so nothing under src/ changes. Per
(phase, function, parent) the tracer keeps a call count, inclusive time and
self time (inclusive minus traced children) in memory instead of one span
per call, which would be about a million spans per run. Raw spans are kept
only for whole operations and for `rk4_step`.

Every traced call pays for two clock reads and one Python frame, so small
functions read slower than they run untraced; end-to-end numbers therefore
come from untraced operations only.
"""

from array import array
from contextlib import contextmanager
from time import perf_counter

import bicopterlab.cli as cli
import bicopterlab.sim as sim
import bicopterlab.verify as verify

TOP = "op"

# (consumer module, attribute, span name). Span names are <layer>.<function>.
_TARGETS = (
    (sim, "params_from_theta", "estimator.params_from_theta"),
    (sim, "filter_deriv", "estimator.filter_deriv"),
    (sim, "filter_outputs", "estimator.filter_outputs"),
    (sim, "data_matrix_deriv", "estimator.data_matrix_deriv"),
    (sim, "xi_of_chi", "linearizer.xi_of_chi"),
    (sim, "iol_w", "linearizer.iol_w"),
    (sim, "tracking_v", "tracker.tracking_v"),
    (sim, "extended_deriv", "model.extended_deriv"),
    (sim, "ellipse_ref", "trajectory.ellipse_ref"),
    (sim, "hilbert_ref", "trajectory.hilbert_ref"),
    (cli, "parse_config", "cli.parse_config"),
    (cli, "summarize", "sim.summarize"),
    (cli, "run_verification", "verify.run_verification"),
    (verify, "lie_relative_degree_check", "linearizer.lie_relative_degree_check"),
)


class Tracer:
    """Aggregated call statistics and raw operation/step spans of one run."""

    def __init__(self):
        self.phase = TOP
        # (phase, name, parent) -> [calls, inclusive s, self s]
        self.stats = {}
        # (phase, name) -> count, for events that are not timed
        self.counts = {}
        self._stack = [[TOP, 0.0]]
        self.op_spans = []  # (op index, phase, start, end)
        self.step_spans = array("d")  # op index, start, end; flat triples
        self.op_index = -1

    def count(self, name: str, n: int = 1) -> None:
        key = (self.phase, name)
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, name: str, fn, keep_spans: bool = False):
        """`fn` with its calls recorded under `name`."""
        stats, stack, clock, steps = self.stats, self._stack, perf_counter, self.step_spans
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                parent[1] += dt
                key = (tracer.phase, name, parent[0])
                s = stats.get(key)
                if s is None:
                    stats[key] = [1, dt, dt - frame[1]]
                else:
                    s[0] += 1
                    s[1] += dt
                    s[2] += dt - frame[1]
                if keep_spans:
                    steps.extend((tracer.op_index, t0, t1))

        return traced

    @contextmanager
    def operation(self, index: int, phase: str):
        """Mark one CLI command of operation `index` as the current phase."""
        self.op_index, self.phase = index, phase
        t0 = perf_counter()
        try:
            yield
        finally:
            self.op_spans.append((index, phase, t0, perf_counter()))
            self.phase = TOP

    @contextmanager
    def installed(self):
        """Swap the traced wrappers in for the duration of the block."""
        saved = []

        def patch(owner, attr, new):
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, new)

        for module, attr, name in _TARGETS:
            patch(module, attr, self.wrap(name, getattr(module, attr)))
        patch(sim, "rk4_step", self.wrap("sim.rk4_step", self._counting_rk4(sim.rk4_step), True))
        patch(sim, "estimate_deriv", self._deadzone_estimate(sim.estimate_deriv))
        simulate = self._row_counting_simulate(cli.simulate)
        patch(cli, "simulate", simulate)
        patch(verify, "simulate", simulate)
        ts = sim.TimeSeries
        patch(ts, "to_csv", self.wrap("sim.to_csv", ts.to_csv))
        patch(ts, "from_csv", classmethod(self.wrap("sim.from_csv", ts.__dict__["from_csv"].__func__)))
        try:
            yield self
        finally:
            for owner, attr, old in reversed(saved):
                setattr(owner, attr, old)

    def _counting_rk4(self, rk4_step):
        """rk4_step that counts the derivative evaluations it makes."""
        count = self.count

        def rk4_counted(state, t, dt, deriv):
            def counted(y, tt):
                count("sim.deriv")
                return deriv(y, tt)

            return rk4_step(state, t, dt, counted)

        return rk4_counted

    def _deadzone_estimate(self, estimate_deriv):
        """estimate_deriv that counts calls returning the dead-zone zero."""
        count = self.count

        def estimate(theta_hat, xbar, phibar, cfg):
            out = estimate_deriv(theta_hat, xbar, phibar, cfg)
            if out == (0.0, 0.0):
                count("estimator.estimate_deriv.deadzone")
            return out

        return self.wrap("estimator.estimate_deriv", estimate)

    def _row_counting_simulate(self, simulate):
        """simulate that counts the steps it asks for and the rows it logs."""
        count = self.count

        def simulate_counted(cfg):
            ts = simulate(cfg)
            count("sim.steps", int(round(cfg.t_end / cfg.dt)))
            count("sim.rows", len(ts.rows))
            return ts

        return self.wrap("sim.simulate", simulate_counted)

    def totals(self, phase: str, name: str) -> tuple:
        """(calls, inclusive s, self s) of `name` in `phase`, summed over parents."""
        calls = incl = self_s = 0
        for (ph, nm, _), (c, i, s) in self.stats.items():
            if ph == phase and nm == name:
                calls += c
                incl += i
                self_s += s
        return calls, incl, self_s

    def counted(self, phase: str, name: str) -> int:
        return self.counts.get((phase, name), 0)

    def dump(self) -> dict:
        """Everything recorded, as plain JSON-ready data."""
        return {
            "stats": [
                {"phase": ph, "name": nm, "parent": par, "calls": c, "incl_s": i, "self_s": s}
                for (ph, nm, par), (c, i, s) in sorted(self.stats.items())
            ],
            "counts": [
                {"phase": ph, "name": nm, "count": n} for (ph, nm), n in sorted(self.counts.items())
            ],
            "op_spans": [
                {"op": i, "phase": ph, "start": t0, "end": t1} for i, ph, t0, t1 in self.op_spans
            ],
        }
