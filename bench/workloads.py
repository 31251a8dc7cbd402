"""Workloads: op classes, their fixed cyclic schedules and output checks.

An op is one call of ``thirdq.cli.main(argv)`` on a model file of its own.
A workload repeats one fixed cycle of op classes a fixed number of times, so
every run of a workload, whatever its seed, completes the same multiset of
op classes; the seed only draws the model parameters.  The median and the
tail therefore land on the same op class in every run.  See README.md for
why each workload exists and which layers it bypasses.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import models

STEPS = 101  # dynamics grid
SWEEP_STEPS = 24
MAX_EXCITATION = 2


@dataclass(frozen=True)
class OpClass:
    name: str
    make: Callable  # rng -> model document
    n: int
    argv: tuple[str, ...]  # command and flags, without --model/--output
    stable: bool = True
    ep3: bool = False

    @property
    def command(self) -> str:
        return self.argv[0]


def _chain(n, **kw):
    return lambda rng: models.chain(rng, n, **kw)


def _steady(command, n, *flags):
    return OpClass(f"{command}.chain{n}", _chain(n), n, (command, *flags))


def _spectrum(n):
    return _steady("spectrum", n, "-M", str(MAX_EXCITATION))


def _sweep(n):
    # H.0.0.0 is Re H_11: shifting it keeps H Hermitian and leaves the
    # Hermitian part of X, and with it stability, unchanged
    return _steady(
        "sweep", n, "--param", "H.0.0.0", "--from", "0.5", "--to", "1.5",
        "--steps", str(SWEEP_STEPS),
    )


def _ness_ep3(n):
    return OpClass(
        f"ness.ep3-{n}", lambda rng: models.ep3_trimers(rng, n), n, ("ness",), ep3=True
    )


def _dynamics(n, unstable=False):
    kind = "unstable" if unstable else "chain"
    return OpClass(
        f"dynamics.{kind}{n}", _chain(n, forces=True, unstable=unstable), n,
        ("dynamics", "--t1", "10", "--steps", str(STEPS)), stable=not unstable,
    )


def _verify(name, make, n, *flags):
    return OpClass(f"verify.{name}", make, n, ("verify", *flags))


_ep51, _ness50 = _ness_ep3(51), _steady("ness", 50)
_d20, _u20 = _dynamics(20), _dynamics(20, unstable=True)
_osc30 = _verify("osc-cutoff30", models.oscillator, 1, "--cutoff", "30")
_two6 = _verify("two-mode-cutoff6", models.two_modes, 2, "--cutoff", "6", "--tol-moments", "1e-3")


@dataclass(frozen=True)
class Workload:
    name: str
    cycle: tuple[OpClass, ...]
    cycle_seconds: float  # nominal cycle time on a 2-core x86 machine
    warmup: tuple[OpClass, ...]  # small instances of every command, untimed
    probe: tuple[OpClass, ...] = ()  # known-defect ops, run untimed and reported

    def cycles(self, seconds: float) -> int:
        """Cycles per run: fixed by --seconds, not by how fast the code is,
        so that two commits run the same ops; at least enough for three ops
        of every class."""
        names = [op.name for op in self.cycle]
        fewest = min(names.count(name) for name in names)
        return max(math.ceil(3 / fewest), round(seconds / self.cycle_seconds))


# Each cycle runs every op class of its workload; steady and dynamics make
# three cycles per run, verify two.  The class counts put the median and the
# p75 of the op times inside one class each, away from its fastest op:
# ness.ep3-51 and ness.chain50 (six ops each) in steady, dynamics.chain20 and
# dynamics.unstable20 in dynamics, verify.osc-cutoff30 (six) and
# verify.two-mode-cutoff6 (four; the p75 is the second fastest) in verify.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "steady",
            (_steady("analyze", 20), _steady("ness", 20), _ep51, _ness50, _spectrum(20),
             _sweep(20), _ep51, _ness50, _spectrum(50), _steady("ness", 100)),
            8.2,
            (_steady("analyze", 3), _steady("ness", 3), _spectrum(3), _sweep(3), _ness_ep3(3)),
        ),
        Workload(
            "dynamics",
            (_d20, _d20, _u20, _d20, _dynamics(50), _d20, _u20, _d20),
            7.2,
            (_dynamics(3), _dynamics(3, unstable=True)),
        ),
        Workload(
            "verify",
            (_osc30, _two6, _osc30, _osc30, _two6),
            15.0,
            (_verify("osc-cutoff12", models.oscillator, 1, "--cutoff", "12"),),
            # at the default cutoff the truncation check fails (exit 5)
            (_verify("osc-default-cutoff", lambda rng: models.oscillator(rng, (0.45, 0.55)), 1),),
        ),
    )
}


def _rows(text: str) -> int:
    return text.count("\n") - 1  # minus the header


def check(op: OpClass, text: str) -> str | None:
    """Return why the output of ``op`` is wrong, or None if it is right."""
    cmd = op.command
    if cmd in ("spectrum", "sweep", "dynamics"):
        if cmd == "spectrum":
            want = math.comb(2 * op.n + MAX_EXCITATION, 2 * op.n)
        elif cmd == "sweep":
            want = SWEEP_STEPS
        else:
            want = STEPS
        got = _rows(text)
        return None if got == want else f"{got} rows, expected {want}"
    report = json.loads(text)
    results = report["results"]
    if cmd == "analyze":
        want = "Stable" if op.stable else "Unstable"
        if results["stability"] != want or results["n"] != op.n:
            return f"stability {results['stability']} n {results['n']}"
        return None
    if cmd == "ness":
        tol = report["tolerances"]["residual_tol"]
        method = "SchurBartelsStewart" if op.ep3 else "Eigenbasis"
        if not results["residual"] <= tol:
            return f"residual {results['residual']:.3e} above {tol:.1e}"
        if results["method"] != method:
            return f"method {results['method']}, expected {method}"
        return None
    if cmd == "verify":
        return None if results["pass"] is True else f"verify failed: worst {results['worst']}"
    raise ValueError(f"no check for command {cmd}")
