"""Finite multitype branching models, population states, and stopping sets.

A model has K particle types; each type carries a finite-support offspring
law over count vectors of length K.  A stopping set is a finite set of
nonzero population vectors that absorbs the process on first entry.  Model
files are JSON; see ``load_model`` for the format.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Optional

PROB_TOL = 1e-12


class ModelFormatError(ValueError):
    """Raised when a model file cannot be parsed."""


class ModelValidationError(ValueError):
    """Raised when a parsed model violates a structural invariant."""


@dataclass(frozen=True)
class PopulationState:
    """A vector of per-type particle counts."""

    counts: tuple[int, ...]

    def __post_init__(self):
        counts = tuple(int(c) for c in self.counts)
        if not counts:
            raise ModelValidationError("population state needs at least one type")
        if any(c < 0 for c in counts):
            raise ModelValidationError(f"negative count in state {counts}")
        object.__setattr__(self, "counts", counts)

    @property
    def total(self) -> int:
        return sum(self.counts)

    @property
    def is_zero(self) -> bool:
        return self.total == 0

    def label(self) -> str:
        """Bracketed comma-joined form, e.g. ``[2,0]``."""
        return counts_label(self.counts)

    def __len__(self) -> int:
        return len(self.counts)


def counts_label(counts) -> str:
    """``PopulationState.label`` of a plain count sequence."""
    return "[" + ",".join(str(c) for c in counts) + "]"


def zero_state(k: int) -> PopulationState:
    return PopulationState((0,) * k)


def unit_state(i: int, k: int) -> PopulationState:
    """State with a single particle of type ``i`` (1-based), out of ``k`` types."""
    if not 1 <= i <= k:
        raise ValueError(f"type index {i} out of range 1..{k}")
    return PopulationState(tuple(1 if j == i - 1 else 0 for j in range(k)))


def parse_state(text: str) -> PopulationState:
    """Inverse of :meth:`PopulationState.label`, e.g. ``"[1,0]"``."""
    body = text.strip()
    if not (body.startswith("[") and body.endswith("]")):
        raise ModelFormatError(f"state {text!r} must look like [n1,n2,...]")
    try:
        counts = tuple(int(part) for part in body[1:-1].split(","))
    except ValueError as exc:
        raise ModelFormatError(f"state {text!r}: {exc}") from None
    return PopulationState(counts)


@dataclass(frozen=True)
class OffspringLaw:
    """Finite-support law over offspring count vectors for one parent type.

    Atoms are stored sorted lexicographically by counts, so equal laws
    compare equal regardless of input order.
    """

    atoms: tuple[tuple[PopulationState, float], ...]

    def __post_init__(self):
        atoms = tuple(sorted(self.atoms, key=lambda a: a[0].counts))
        object.__setattr__(self, "atoms", atoms)
        if not atoms:
            raise ModelValidationError("offspring law has no atoms")
        dims = {len(state) for state, _ in atoms}
        if len(dims) != 1:
            raise ModelValidationError("offspring vectors of mixed dimension")
        seen = set()
        for state, p in atoms:
            if state.counts in seen:
                raise ModelValidationError(f"duplicate offspring state {state.label()}")
            seen.add(state.counts)
            if not p > 0:
                raise ModelValidationError(
                    f"atom {state.label()} has non-positive probability {p!r}"
                )
        total = sum(p for _, p in atoms)
        if abs(total - 1.0) > PROB_TOL:
            raise ModelValidationError(f"probabilities sum to {total!r}, not 1")

    @property
    def dimension(self) -> int:
        return len(self.atoms[0][0])


@dataclass(frozen=True)
class BranchingModel:
    """A finite set of particle types with one offspring law per type."""

    type_names: tuple[str, ...]
    laws: tuple[OffspringLaw, ...]

    def __post_init__(self):
        object.__setattr__(self, "type_names", tuple(str(n) for n in self.type_names))
        object.__setattr__(self, "laws", tuple(self.laws))
        if not self.type_names:
            raise ModelValidationError("model needs at least one type")
        if len(self.laws) != len(self.type_names):
            raise ModelValidationError(
                f"{len(self.type_names)} types but {len(self.laws)} offspring laws"
            )
        for i, law in enumerate(self.laws):
            if law.dimension != self.k:
                raise ModelValidationError(
                    f"law for type {i + 1} has offspring vectors of length "
                    f"{law.dimension}, expected {self.k}"
                )

    @property
    def k(self) -> int:
        return len(self.type_names)


@dataclass(frozen=True)
class StoppingSet:
    """Finite set of nonzero population vectors that absorb the process."""

    members: frozenset[PopulationState]

    def __post_init__(self):
        members = frozenset(self.members)
        object.__setattr__(self, "members", members)
        if not members:
            raise ModelValidationError("stopping set is empty")
        dims = {len(m) for m in members}
        if len(dims) != 1:
            raise ModelValidationError("stopping states of mixed dimension")
        if any(m.is_zero for m in members):
            raise ModelValidationError("zero state in stopping set")

    @property
    def dimension(self) -> int:
        return len(next(iter(self.members)))

    @property
    def max_total(self) -> int:
        """Largest total population over the members."""
        return max(m.total for m in self.members)

    def sorted_members(self) -> list[PopulationState]:
        """Members in graded lexicographic order (total, then counts)."""
        return sorted(self.members, key=lambda m: (m.total, m.counts))

    def __contains__(self, state: PopulationState) -> bool:
        return state in self.members

    def __iter__(self):
        return iter(self.sorted_members())

    def __len__(self) -> int:
        return len(self.members)


def check_absorption_starts(
    stopping: StoppingSet, starts: Iterable[PopulationState], r: PopulationState
):
    """Reject absorption requests from ``starts`` to ``r`` that are undefined.

    Per start, in this order: the zero start, a start inside the stopping
    set, a target outside it and a start of the wrong length raise
    ``ValueError``.  Needs no state space, so every engine checks first.
    """
    k = stopping.dimension
    for n in starts:
        if n.is_zero:
            raise ValueError("absorption is undefined from the zero state")
        if n in stopping:
            raise ValueError(f"start {n.label()} lies inside the stopping set")
        if r not in stopping:
            raise ValueError(f"target {r.label()} is not a stopping state")
        if len(n) != k:
            raise ValueError(f"start {n.label()} has {len(n)} entries for {k} types")


def _require(condition: bool, where: str, message: str):
    if not condition:
        raise ModelFormatError(f"{where}: {message}")


def load_model(text: str) -> tuple[BranchingModel, Optional[StoppingSet]]:
    """Parse a JSON model file.

    Format::

        {
          "version": 1,
          "types": ["a", "b"],
          "offspring": [
            [{"counts": [0, 0], "p": 0.5}, {"counts": [2, 0], "p": 0.5}],
            [{"counts": [0, 0], "p": 1.0}]
          ],
          "stopping_set": [[1, 0]]        // optional
        }

    Probabilities are validated against the sum-to-one invariant, never
    renormalized.  Unknown fields are rejected.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(
            f"line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    _require(isinstance(raw, dict), "top level", "expected a JSON object")
    known = {"version", "types", "offspring", "stopping_set"}
    unknown = set(raw) - known
    _require(not unknown, "top level", f"unknown fields {sorted(unknown)}")
    _require("version" in raw, "top level", "missing 'version'")
    _require(raw["version"] == 1, "version", f"unsupported version {raw['version']!r}")
    _require("types" in raw, "top level", "missing 'types'")
    _require("offspring" in raw, "top level", "missing 'offspring'")

    types = raw["types"]
    _require(isinstance(types, list) and types, "types", "expected a nonempty list")
    k = len(types)

    raw_laws = raw["offspring"]
    _require(isinstance(raw_laws, list), "offspring", "expected a list")
    _require(
        len(raw_laws) == k,
        "offspring",
        f"{len(raw_laws)} laws for {k} types",
    )
    laws = []
    for i, raw_law in enumerate(raw_laws):
        where = f"offspring[{i}]"
        _require(isinstance(raw_law, list) and raw_law, where, "expected a nonempty list")
        atoms = []
        for j, raw_atom in enumerate(raw_law):
            aw = f"{where}[{j}]"
            _require(isinstance(raw_atom, dict), aw, "expected an object")
            extra = set(raw_atom) - {"counts", "p"}
            _require(not extra, aw, f"unknown fields {sorted(extra)}")
            _require("counts" in raw_atom and "p" in raw_atom, aw, "needs 'counts' and 'p'")
            counts = raw_atom["counts"]
            _require(
                isinstance(counts, list) and all(isinstance(c, int) for c in counts),
                aw, "'counts' must be a list of integers",
            )
            _require(len(counts) == k, aw, f"counts has length {len(counts)}, expected {k}")
            p = raw_atom["p"]
            _require(isinstance(p, (int, float)) and not isinstance(p, bool), aw,
                     "'p' must be a number")
            try:
                atoms.append((PopulationState(tuple(counts)), float(p)))
            except ModelValidationError as exc:
                raise ModelValidationError(f"{aw}: {exc}") from None
        try:
            laws.append(OffspringLaw(tuple(atoms)))
        except ModelValidationError as exc:
            raise ModelValidationError(f"law for type {i + 1}: {exc}") from None

    model = BranchingModel(tuple(types), tuple(laws))

    stopping = None
    if "stopping_set" in raw:
        stopping = _parse_stopping_set(raw["stopping_set"], k, "stopping_set")

    return model, stopping


def dump_model(model: BranchingModel, stopping: Optional[StoppingSet] = None) -> str:
    """Serialize a model (and optional stopping set) back to file text.

    Atom order is canonical (lexicographic), so load/dump round-trips are
    identity on equal models.
    """
    doc = {
        "version": 1,
        "types": list(model.type_names),
        "offspring": [
            [{"counts": list(state.counts), "p": p} for state, p in law.atoms]
            for law in model.laws
        ],
    }
    if stopping is not None:
        doc["stopping_set"] = [list(m.counts) for m in stopping.sorted_members()]
    return json.dumps(doc, indent=2)


def load_stopping_set(text: str, k: int) -> StoppingSet:
    """Parse a standalone stopping-set file: a JSON list of count vectors."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(
            f"line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    return _parse_stopping_set(raw, k, "stopping set")


def _parse_stopping_set(raw, k: int, where: str) -> StoppingSet:
    """A JSON list of length-k integer vectors as a stopping set."""
    _require(isinstance(raw, list), where, "expected a list")
    states = []
    for j, vec in enumerate(raw):
        _require(
            isinstance(vec, list) and all(isinstance(c, int) for c in vec),
            f"{where}[{j}]", "expected a list of integers",
        )
        _require(len(vec) == k, f"{where}[{j}]", f"length {len(vec)}, expected {k}")
        states.append(PopulationState(tuple(vec)))
    try:
        return StoppingSet(frozenset(states))
    except ModelValidationError as exc:
        raise ModelValidationError(f"{where}: {exc}") from None
