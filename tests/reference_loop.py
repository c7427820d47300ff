"""The simulator's reference loop: each download steps its measurement's
generator and reads its rate, with no plan and no reuse of a rate.

ReferenceLoop keeps the generator-driven download path of netsim._Loop as
it was before measurements ran from plans, and the queue scan that took
each round's first plan whose target was not mid-measurement. run and
run_probe_with run the simulator with it in place of netsim._Loop; tests
and CI compare their results with run_simulation and run_probe.
"""

from unittest import mock

from torbwsim import netsim
from torbwsim.scanner import measurement_steps


class ReferenceLoop(netsim._Loop):
    def _start_next(self, ctx, now):
        ba_id = ctx.ba_id
        queue = self.queues[ba_id]
        # a target may still be mid-measurement from the previous round;
        # leave it queued for whichever thread frees up after it
        idx = next(
            (i for i, p in enumerate(queue)
             if (p.target, ba_id) not in self.state.flows),
            None,
        )
        if idx is None:
            return
        plan = queue[idx]
        del queue[idx]
        delay = self.cfg.detector.detection_delay
        detect = (self.cfg.topology.relays[plan.target].policy != "honest"
                  and self.rng_detect.random() >= self.cfg.detector.false_negative_rate)
        self.state.add_flow(plan.target, ba_id, detected=detect and delay == 0)
        ctx.target = plan.target
        ctx.cap = self.state.exit_caps[plan.exit]
        ctx.start = now
        gen = ctx.gen = measurement_steps()
        if detect and delay > 0:
            self.push(now + delay, netsim._PRIO_DETECT, self._on_detect, ctx, gen)
        self._issue_download(ctx, gen.send(None), now)

    def _issue_download(self, ctx, size, now):
        rate = min(self.state.flow_bandwidth(ctx.target, ctx.ba_id), ctx.cap)
        if rate <= 0:
            self.push(now, netsim._PRIO_STEP, self._on_step, ctx, None)
            return
        duration = size / rate
        self.push(now + duration, netsim._PRIO_STEP, self._on_step, ctx, duration)

    def _on_step(self, now, ctx, duration):
        if duration is None:
            now += netsim._EPS  # a dead path ends just after it was found
        try:
            size = ctx.gen.send(duration)
        except StopIteration as stop:
            self._complete(ctx, stop.value, now)
            self._start_next(ctx, now)
            return
        self._issue_download(ctx, size, now)


def run(cfg):
    """run_simulation(cfg) on the reference loop."""
    with mock.patch.object(netsim, "_Loop", ReferenceLoop):
        return netsim.run_simulation(cfg)


def run_probe_with(cfg, relay_ids, seed):
    """run_probe(cfg, relay_ids, seed) on the reference loop."""
    with mock.patch.object(netsim, "_Loop", ReferenceLoop):
        return netsim.run_probe(cfg, relay_ids, seed)
