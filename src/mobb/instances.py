"""Instance generators for the benchmark families and the canonical file format.

Families: multi-objective knapsack (KP), uncapacitated / capacitated facility
location (UFLP / CFLP) and generalized assignment (GAP), each encoded down to
MO01LP form. Generation is fully seeded and reproducible; every emitted
instance is feasible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .model import Instance, ModelError, SENSE_EQ, SENSE_LE

FAMILY_KP = "KP"
FAMILY_UFLP = "UFLP"
FAMILY_CFLP = "CFLP"
FAMILY_GAP = "GAP"

# default coefficient ranges: profits/costs and weights/demands
COST_RANGE = (1, 100)
WEIGHT_RANGE = (1, 50)


@dataclass(frozen=True)
class GeneratorSpec:
    family: str
    p: int
    seed: int
    items: int = 0          # KP
    facilities: int = 0     # UFLP / CFLP
    customers: int = 0      # UFLP / CFLP
    agents: int = 0         # GAP
    jobs: int = 0           # GAP
    cost_range: tuple = COST_RANGE
    weight_range: tuple = WEIGHT_RANGE

    def __post_init__(self):
        if self.family not in (FAMILY_KP, FAMILY_UFLP, FAMILY_CFLP, FAMILY_GAP):
            raise ModelError(f"unknown family {self.family!r}")
        if self.p < 2:
            raise ModelError("need at least 2 objectives")
        lo, hi = self.cost_range
        if lo > hi or self.weight_range[0] > self.weight_range[1]:
            raise ModelError("empty coefficient range")
        needed = {FAMILY_KP: ("items",),
                  FAMILY_UFLP: ("facilities", "customers"),
                  FAMILY_CFLP: ("facilities", "customers"),
                  FAMILY_GAP: ("agents", "jobs")}[self.family]
        for attr in needed:
            if getattr(self, attr) < 1:
                raise ModelError(f"{self.family} needs positive {attr}")


def _rand(rng, lo_hi, size):
    return rng.integers(lo_hi[0], lo_hi[1] + 1, size=size, dtype=np.int64)


def _generate_kp(spec: GeneratorSpec, rng) -> Instance:
    n = spec.items
    profits = _rand(rng, spec.cost_range, (spec.p, n))
    weights = _rand(rng, spec.weight_range, n)
    cap = int(weights.sum()) // 2
    return Instance(C=-profits, A=weights[None, :], b=np.array([cap]),
                    senses=(SENSE_LE,),
                    name=f"KP_p{spec.p}_n{n}_s{spec.seed}")


def _flp_structure(f, c):
    """Assignment/linking rows for facility location: y_1..y_f then x_ij."""
    n = f + f * c

    def xcol(i, j):  # customer i -> facility j
        return f + i * f + j

    rows, rhs, senses = [], [], []
    for i in range(c):
        row = np.zeros(n, dtype=np.int64)
        for j in range(f):
            row[xcol(i, j)] = 1
        rows.append(row)
        rhs.append(1)
        senses.append(SENSE_EQ)
    for i in range(c):
        for j in range(f):
            row = np.zeros(n, dtype=np.int64)
            row[xcol(i, j)] = 1
            row[j] = -1
            rows.append(row)
            rhs.append(0)
            senses.append(SENSE_LE)
    return n, xcol, rows, rhs, senses


def _flp_objectives(spec, rng, n, xcol):
    f, c = spec.facilities, spec.customers
    C = np.zeros((spec.p, n), dtype=np.int64)
    for k in range(spec.p):
        C[k, :f] = _rand(rng, spec.cost_range, f)
        for i in range(c):
            for j in range(f):
                C[k, xcol(i, j)] = int(_rand(rng, spec.cost_range, 1)[0])
    return C


def _generate_uflp(spec: GeneratorSpec, rng) -> Instance:
    f, c = spec.facilities, spec.customers
    n, xcol, rows, rhs, senses = _flp_structure(f, c)
    C = _flp_objectives(spec, rng, n, xcol)
    return Instance(C=C, A=np.array(rows), b=np.array(rhs), senses=tuple(senses),
                    name=f"UFLP_p{spec.p}_f{f}_c{c}_s{spec.seed}")


def _generate_cflp(spec: GeneratorSpec, rng) -> Instance:
    f, c = spec.facilities, spec.customers
    for _ in range(100):
        demand = _rand(rng, spec.weight_range, c)
        total = int(demand.sum())
        caps = _rand(rng, (max(total // f, 1), max(total, 2)), f)
        while int(caps.sum()) < int(np.ceil(1.5 * total)):
            caps = caps + _rand(rng, (1, max(total // f, 2)), f)
        # first-fit check with every facility open
        load = np.zeros(f, dtype=np.int64)
        ok = True
        for i in np.argsort(-demand):
            placed = False
            for j in np.argsort(-(caps - load)):
                if load[j] + demand[i] <= caps[j]:
                    load[j] += demand[i]
                    placed = True
                    break
            if not placed:
                ok = False
                break
        if ok:
            break
    else:
        raise ModelError("could not draw a feasible CFLP instance")
    n, xcol, rows, rhs, senses = _flp_structure(f, c)
    for j in range(f):
        row = np.zeros(n, dtype=np.int64)
        row[j] = -int(caps[j])
        for i in range(c):
            row[xcol(i, j)] = int(demand[i])
        rows.append(row)
        rhs.append(0)
        senses.append(SENSE_LE)
    C = _flp_objectives(spec, rng, n, xcol)
    return Instance(C=C, A=np.array(rows), b=np.array(rhs), senses=tuple(senses),
                    name=f"CFLP_p{spec.p}_f{f}_c{c}_s{spec.seed}")


def _generate_gap(spec: GeneratorSpec, rng) -> Instance:
    a, jobs = spec.agents, spec.jobs
    n = a * jobs

    def col(i, j):  # agent i does job j
        return i * jobs + j

    for _ in range(100):
        w = _rand(rng, spec.weight_range, (a, jobs))
        caps = np.ceil(1.2 * w.sum(axis=1) / a).astype(np.int64) + spec.weight_range[1]
        load = np.zeros(a, dtype=np.int64)
        ok = True
        for j in range(jobs):
            order = np.argsort([w[i, j] for i in range(a)])
            placed = False
            for i in order:
                if load[i] + w[i, j] <= caps[i]:
                    load[i] += w[i, j]
                    placed = True
                    break
            if not placed:
                ok = False
                break
        if ok:
            break
    else:
        raise ModelError("could not draw a feasible GAP instance")
    rows, rhs, senses = [], [], []
    for j in range(jobs):
        row = np.zeros(n, dtype=np.int64)
        for i in range(a):
            row[col(i, j)] = 1
        rows.append(row)
        rhs.append(1)
        senses.append(SENSE_EQ)
    for i in range(a):
        row = np.zeros(n, dtype=np.int64)
        row[col(i, 0):col(i, jobs - 1) + 1] = w[i]
        rows.append(row)
        rhs.append(int(caps[i]))
        senses.append(SENSE_LE)
    C = np.zeros((spec.p, n), dtype=np.int64)
    for k in range(spec.p):
        C[k] = _rand(rng, spec.cost_range, n)
    return Instance(C=C, A=np.array(rows), b=np.array(rhs), senses=tuple(senses),
                    name=f"GAP_p{spec.p}_a{a}_j{jobs}_s{spec.seed}")


def generate(spec: GeneratorSpec) -> Instance:
    rng = np.random.default_rng(spec.seed)
    if spec.family == FAMILY_KP:
        return _generate_kp(spec, rng)
    if spec.family == FAMILY_UFLP:
        return _generate_uflp(spec, rng)
    if spec.family == FAMILY_CFLP:
        return _generate_cflp(spec, rng)
    return _generate_gap(spec, rng)


# -- canonical file format -------------------------------------------------

def write_instance(instance: Instance, path):
    doc = {
        "problem": "mo01lp",
        "p": instance.p,
        "n": instance.n,
        "m": instance.m,
        "C": instance.C.tolist(),
        "A": instance.A.tolist(),
        "b": instance.b.tolist(),
        "senses": list(instance.senses),
        "name": instance.name,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


class ParseError(ValueError):
    """Malformed instance file."""


class _FloatLiteral(str):
    """A JSON number with a fraction or an exponent, as written: as float64,
    integers beyond 2**53 would lose their low bits."""


def _exact_int(value, field_name) -> int:
    """One coefficient as a Python int, or ParseError if it is not integral."""
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, _FloatLiteral):
        from decimal import Decimal     # only files with such literals pay for it
        exact = Decimal(value)
        if exact.adjusted() >= 19:      # beyond int64; int() of 1e999999999 never ends
            raise ParseError(f"field {field_name!r}: coefficient outside the int64 range")
        if exact != int(exact):
            raise ParseError(f"field {field_name!r}: non-integer coefficient")
        return int(exact)
    if isinstance(value, float):
        if not value.is_integer():      # also nan and inf
            raise ParseError(f"field {field_name!r}: non-integer coefficient")
        return int(value)
    raise ParseError(f"field {field_name!r}: non-numeric coefficient {value!r}")


def _require_int_matrix(value, field_name):
    try:
        arr = np.asarray(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"field {field_name!r}: {exc}") from None
    if arr.size and not np.issubdtype(arr.dtype, np.signedinteger):
        # entry by entry: as one array, a float among the entries would turn
        # every integer into float64 and drop the low bits of those beyond 2**53
        entries = np.asarray(value, dtype=object).ravel()
        ints = [_exact_int(v, field_name) for v in entries]
        if any(not -2**63 <= v < 2**63 for v in ints):
            raise ParseError(f"field {field_name!r}: coefficient outside the int64 range")
        return np.array(ints, dtype=np.int64).reshape(arr.shape)
    return arr.astype(np.int64)


def _require_int(doc, key, path) -> int:
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{path}: field {key!r} must be an integer, got {value!r}")
    return value


def read_instance(path) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh, parse_float=_FloatLiteral)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ParseError(f"{path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    for key in ("problem", "p", "n", "m", "C", "A", "b", "senses", "name"):
        if key not in doc:
            raise ParseError(f"{path}: missing field {key!r}")
    if doc["problem"] != "mo01lp":
        raise ParseError(f"{path}: field 'problem' must be 'mo01lp', got {doc['problem']!r}")
    if not isinstance(doc["senses"], list):
        raise ParseError(f"{path}: field 'senses' must be a list")
    p, n, m = (_require_int(doc, key, path) for key in ("p", "n", "m"))
    C = _require_int_matrix(doc["C"], "C")
    A = _require_int_matrix(doc["A"], "A")
    b = _require_int_matrix(doc["b"], "b")
    if C.shape != (p, n):
        raise ParseError(f"{path}: field 'C' has shape {C.shape}, expected ({p}, {n})")
    if A.shape != (m, n):
        raise ParseError(f"{path}: field 'A' has shape {A.shape}, expected ({m}, {n})")
    if b.shape != (m,):
        raise ParseError(f"{path}: field 'b' has shape {b.shape}, expected ({m},)")
    if len(doc["senses"]) != m:
        raise ParseError(f"{path}: field 'senses' has {len(doc['senses'])} entries, expected {m}")
    try:
        return Instance(C=C, A=A, b=b, senses=tuple(doc["senses"]), name=str(doc["name"]))
    except ModelError as exc:
        raise ParseError(f"{path}: {exc}") from None
