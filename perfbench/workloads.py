"""The benchmark's workloads: generated system files, configs and exact oracles.

Every workload is a list of CLI ops.  The configs are generated from the
workload seed (the same seed gives the same files); the program only ever
sees the generated files.  Each op carries the oracle checks that its JSON
artifact must meet.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

LOG_LAMBDA = math.log((3.0 + math.sqrt(5.0)) / 2.0)  # entropy of the cat map [[2,1],[1,1]]

SYSTEMS = {
    "cat.system": (
        "base.kind = deterministic-trivial\n"
        "base.symbols = 1\n"
        "fiber.dim = 2\n"
        "map.0.matrix = 2 1 1 1\n"
        "seed = 1\n"
    ),
    "iid_aa2.system": (
        "base.kind = iid\n"
        "base.symbols = 2\n"
        "base.dist = 0.5 0.5\n"
        "fiber.dim = 2\n"
        "map.0.matrix = 2 1 1 1\n"
        "map.1.matrix = 5 3 3 2\n"
        "seed = 1\n"
    ),
    # The cat map composed with a volume-preserving shear: conjugate to the
    # cat map, so its leafwise entropy is still log(lambda), but its Jacobian
    # varies from point to point.
    "sheared_cat.system": (
        "base.kind = deterministic-trivial\n"
        "base.symbols = 1\n"
        "fiber.dim = 2\n"
        "map.0.matrix = 2 1 1 1\n"
        "map.0.perturbation = 0.015:0,1:0.3\n"
        "seed = 1\n"
    ),
}


@dataclass(frozen=True)
class Check:
    """One oracle check.  Numeric checks carry a tolerance; verdict checks do not."""

    name: str
    estimate: float | str
    exact: float | str
    tol: float | None = None

    @property
    def err(self) -> float | None:
        """|estimate - exact| / tolerance, or None for a verdict check."""
        if self.tol is None:
            return None
        return abs(self.estimate - self.exact) / self.tol

    @property
    def passed(self) -> bool:
        if self.tol is None:
            return self.estimate == self.exact
        return self.err <= 1.0

    def to_json(self) -> dict:
        return {"name": self.name, "estimate": self.estimate, "exact": self.exact,
                "tol": self.tol, "err": self.err, "passed": self.passed}


@dataclass(frozen=True)
class Op:
    """One CLI run: a generated config and the oracles its JSON artifact must meet."""

    op_id: str
    config: dict
    oracles: Callable[[dict], list[Check]]

    @property
    def config_text(self) -> str:
        return "".join(f"{k} = {v}\n" for k, v in self.config.items())

    @property
    def artifact_json(self) -> str:
        """File name of the op's JSON artifact, as the CLI names it."""
        return f"{self.config['experiment'].replace('-', '_')}_{self.config['seed']}.json"


def _gibbs_oracles(doc: dict) -> list[Check]:
    return [
        Check("pressure_at_phiu", doc["pressure_at_phiu"], 0.0, 0.05),
        Check("bowen_ball_entropy", doc["entropy"], 1.5 * LOG_LAMBDA, 0.07 * 1.5 * LOG_LAMBDA),
    ]


def _suite_oracles(doc: dict) -> list[Check]:
    shift = next(c for c in doc["checks"] if c["name"] == "constant-shift")
    return [
        Check("suite_all_passed", doc["all_passed"], True),
        Check("h_top", doc["estimates"]["zero"]["value"], LOG_LAMBDA, 0.05 * LOG_LAMBDA),
        # the suite stores -|P(phi + c) - P(phi) - c| as the check's slack
        Check("constant_shift", -shift["slack"], 0.0, 1e-9),
    ]


def _entropy_oracles(doc: dict) -> list[Check]:
    return [Check("h_top", doc["value"], LOG_LAMBDA, 0.05 * LOG_LAMBDA)]


def _certify_oracles(doc: dict) -> list[Check]:
    return [Check("verdict", doc["verdict"], "certified")]


def _spectrum_oracles(doc: dict) -> list[Check]:
    # volume preservation: the exponents of every orbit sum to zero
    worst = max(abs(sum(e * m for e, m in zip(r["exponents"], r["multiplicities"])))
                for r in doc["records"])
    return [Check("exponent_sum", worst, 0.0, 1e-9)]


def _no_oracles(doc: dict) -> list[Check]:
    return []


def _seeds(seed: int, count: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(1, 2**31) for _ in range(count)]


def many_short_orbits(seed: int, tiny: bool = False) -> list[Op]:
    """iid A/A^2 switching through `gibbs`: hundreds of ~800-step QR walks."""
    (s,) = _seeds(seed, 1)
    cfg = {
        "system": "iid_aa2.system", "experiment": "gibbs", "seed": s,
        "samples": 2 if tiny else 16, "measures": "haar", "delta": 0.1,
        "n_grid": "4:20", "eps_grid": "0.02 0.04", "base_grid": 3,
        "entropy_samples": 2 if tiny else 48,
        "birkhoff_n": 64 if tiny else 256, "birkhoff_samples": 2 if tiny else 32,
    }
    return [Op("gibbs", cfg, _gibbs_oracles)]


def linear_packing(seed: int, tiny: bool = False) -> list[Op]:
    """The cat map through `property-suite` with x-dependent potentials: greedy packing."""
    (s,) = _seeds(seed, 1)
    cfg = {
        "system": "cat.system", "experiment": "property-suite", "seed": s,
        "potentials": "zero const:0.3 cos:0.4:1,0 sin:0.4:1,0 const:-0.2",
        "delta": 0.05, "n_grid": "5:6" if tiny else "5:9", "eps_grid": 0.04, "base_grid": 2,
    }
    return [Op("property_suite", cfg, _suite_oracles)]


def sheared_nonlinear(seed: int, tiny: bool = False) -> list[Op]:
    """The sheared cat map: graph-transform charts, arc packing, few long orbits.

    The last op runs the acceptance grid (n 8:14, eps 0.02), which the
    resolution guard refuses today; it stays in so the limit shows as a
    failed op.
    """
    s = _seeds(seed, 5)
    small = {"system": "sheared_cat.system", "samples": 1, "delta": 0.1,
             "n_grid": "1:3", "eps_grid": 0.04, "base_grid": 2}
    return [
        Op("entropy_small", {"experiment": "entropy", "seed": s[0], **small}, _entropy_oracles),
        Op("pressure_cos", {"experiment": "pressure", "seed": s[1], "potential": "cos:0.4:1,0",
                            **small}, _no_oracles),
        Op("spectrum", {"system": "sheared_cat.system", "experiment": "spectrum", "seed": s[2],
                        "samples": 2, "spectrum_n": 200 if tiny else 1000}, _spectrum_oracles),
        Op("certify", {"system": "sheared_cat.system", "experiment": "certify", "seed": s[3],
                       "samples": 10, "certify_n": 40}, _certify_oracles),
        Op("entropy_acceptance", {"system": "sheared_cat.system", "experiment": "entropy",
                                  "seed": s[4], "samples": 1, "delta": 0.1, "n_grid": "8:14",
                                  "eps_grid": 0.02, "base_grid": 2},
           _entropy_oracles),
    ]


WORKLOADS = {
    "many_short_orbits": many_short_orbits,
    "linear_packing": linear_packing,
    "sheared_nonlinear": sheared_nonlinear,
}
