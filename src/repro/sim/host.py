"""SimHost: a kernel with attached workload generators and monitors.

This is the unit the experiment harness manipulates: "thing1 on Tuesday" is
one :class:`SimHost` -- a kernel configured with a scheduling policy, a set
of workload generators (see :mod:`repro.workload`) seeded deterministically,
and whatever sensors the experiment attaches (see :mod:`repro.sensors`).
"""

from __future__ import annotations

import numpy as np

from repro.sim.kernel import Kernel, KernelConfig
from repro.sim.scheduler import Scheduler

__all__ = ["SimHost"]


class SimHost:
    """A named simulated machine.

    Parameters
    ----------
    name:
        Host name (e.g. ``"thing1"``).
    config:
        Kernel configuration; default :class:`~repro.sim.kernel.KernelConfig`.
    scheduler:
        Scheduling policy; default decay-usage.
    seed:
        Seed (or :class:`numpy.random.SeedSequence`) from which all of this
        host's stochastic components derive their generators.  Two hosts
        built from different spawns of one root sequence evolve
        independently but reproducibly.
    """

    def __init__(
        self,
        name: str,
        *,
        config: KernelConfig | None = None,
        scheduler: Scheduler | None = None,
        seed: int | np.random.SeedSequence | None = None,
    ):
        self.name = str(name)
        self.kernel = Kernel(config, scheduler)
        if isinstance(seed, np.random.SeedSequence):
            self._seed_seq = seed
        else:
            self._seed_seq = np.random.SeedSequence(seed)
        self._workloads: list = []

    def rng(self) -> np.random.Generator:
        """A fresh, independent generator derived from this host's seed."""
        (child,) = self._seed_seq.spawn(1)
        return np.random.default_rng(child)

    def attach(self, *workloads) -> "SimHost":
        """Attach workload generators; each gets ``start(kernel, rng)``.

        Returns ``self`` for chaining.
        """
        for workload in workloads:
            workload.start(self.kernel, self.rng())
            self._workloads.append(workload)
        return self

    @property
    def workloads(self) -> list:
        return list(self._workloads)

    def run_until(self, t_end: float) -> "SimHost":
        """Advance this host's kernel to ``t_end``; returns ``self``."""
        self.kernel.run_until(t_end)
        return self

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<SimHost {self.name!r} t={self.kernel.time:.1f}s>"
