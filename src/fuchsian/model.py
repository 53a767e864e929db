"""Problem and solution data for second-order equations with prescribed
singularity structure.

An instance fixes a finite point set with an exponent pair at each point and
at infinity, plus a disjoint set of apparent-singularity candidates each
carrying a prescribed momentum (the first Laurent coefficient of the w-term
at that point).  The admissibility requirement ties the exponent sum to the
point counts: sum over all prescribed pairs minus (n - N - 1) must vanish,
where n counts finite prescribed points and N the apparent ones.

Convention at infinity: the exponents (l1, l2) supplied for the infinite
point are the standard ones, i.e. the roots of l*(l+1) - g0*l + h0 = 0 where
g0 and h0 are the top coefficients of the two numerator polynomials.  With
this reading the admissibility target above holds literally and the
hypergeometric equation carries its textbook exponents at infinity.

An instance is checked once, when it is built: at least two finite points,
all points pairwise distinct, or InvalidInstance.  Instances and equations
are read-only, so a built one stays valid; they compare, hash and pickle by
value.  That rule is written once, as scalars._Frozen, and every value
reachable from an instance follows it: its exponent pairs, an equation's
polynomials and every GaussianRational in them.

An instance also keeps a memo of what is computed from its points and
exponents alone, each value on first use: the point frame (_psi_ints) here,
and g, the Hermite frame, the right-hand-side terms and the Fredholm
constraints in the builder.  No memoized build reads the momenta, so
with_momenta hands the memo to the sibling it returns and a momentum scan
builds these once.  Equality, hashing, pickle and copies read the
constructor's arguments alone: a copy, a pickle, shifted and a fresh
instance start with an empty memo.  A computation that raises stores nothing.
"""

from __future__ import annotations

from functools import wraps
from itertools import combinations, repeat

from .polynomials import Polynomial, _monic_ints
from .scalars import GaussianRational, _Frozen, to_gaussian_ints


MAX_POINTS = 128  # cap on n + N in instance JSON; gen's 121 pool positions stay under it
MAX_DIGITS = 1000  # cap on the digits of one rational coordinate in instance JSON, p and q together


class InvalidInstance(ValueError):
    """Structurally invalid instance or malformed instance JSON."""


class ExponentPair(_Frozen):
    """Unordered pair of exponents; {a, b} compares equal to {b, a}.  A
    read-only _Frozen value, so an instance's exponents cannot change under
    its memo; only equality and the hash are its own, being unordered."""

    __slots__ = ("rho1", "rho2")

    def __init__(self, rho1, rho2):
        object.__setattr__(self, "rho1", GaussianRational.coerce(rho1))
        object.__setattr__(self, "rho2", GaussianRational.coerce(rho2))

    def _value(self) -> tuple:
        return self.rho1, self.rho2

    @property
    def sum(self) -> GaussianRational:
        return self.rho1 + self.rho2

    @property
    def product(self) -> GaussianRational:
        return self.rho1 * self.rho2

    def __eq__(self, other):
        if not isinstance(other, ExponentPair):
            return NotImplemented
        return (self.rho1 == other.rho1 and self.rho2 == other.rho2) or (
            self.rho1 == other.rho2 and self.rho2 == other.rho1
        )

    def __hash__(self):
        return hash(frozenset((self.rho1, self.rho2)))

    def __repr__(self):
        return f"{{{self.rho1}, {self.rho2}}}"

    def to_json_obj(self) -> list:
        return [self.rho1.to_pair(), self.rho2.to_pair()]

    @classmethod
    def from_json_obj(cls, obj) -> ExponentPair:
        if not isinstance(obj, (list, tuple)) or len(obj) != 2:
            raise InvalidInstance(f"exponent pair must be a 2-element list: {obj!r}")
        return cls(_complex_from_json(obj[0]), _complex_from_json(obj[1]))


def _complex_from_json(obj) -> GaussianRational:
    """GaussianRational.from_pair, once each coordinate is within MAX_DIGITS."""
    for part in obj if isinstance(obj, list) else ():
        text = part if isinstance(part, str) else str(part) if isinstance(part, int) else ""
        digits = len(text) - text.count("/") - text.count("+") - text.count("-")
        if digits > MAX_DIGITS:
            raise InvalidInstance(
                f"a coordinate has {digits} digits, over the cap MAX_DIGITS = {MAX_DIGITS}"
            )
    return GaussianRational.from_pair(obj)


def _as_pair(value) -> ExponentPair:
    if isinstance(value, ExponentPair):
        return value
    a, b = value
    return ExponentPair(a, b)


class FuchsianInstance(_Frozen):
    """Prescribed data: finite points with exponents, the pair at infinity,
    and apparent points with momenta.  Built only valid (see _check_points)
    and read-only, so that what its memo keeps (see _per_instance) stays
    true of it."""

    __slots__ = ("finite_points", "infinity_exponents", "apparent_points", "_memo")

    def __init__(self, finite_points, infinity_exponents, apparent_points=()):
        finite_points = tuple(
            (GaussianRational.coerce(t), _as_pair(pair)) for t, pair in finite_points
        )
        infinity_exponents = _as_pair(infinity_exponents)
        apparent_points = tuple(
            (GaussianRational.coerce(q), GaussianRational.coerce(p))
            for q, p in apparent_points
        )
        _check_points([t for t, _ in finite_points], [q for q, _ in apparent_points])
        set_field = object.__setattr__
        set_field(self, "finite_points", finite_points)
        set_field(self, "infinity_exponents", infinity_exponents)
        set_field(self, "apparent_points", apparent_points)
        set_field(self, "_memo", {})

    def _value(self) -> tuple:
        return self.finite_points, self.infinity_exponents, self.apparent_points

    @property
    def n(self) -> int:
        return len(self.finite_points)

    @property
    def num_apparent(self) -> int:
        return len(self.apparent_points)

    @property
    def finite_positions(self) -> tuple:
        return tuple(t for t, _ in self.finite_points)

    @property
    def apparent_positions(self) -> tuple:
        return tuple(q for q, _ in self.apparent_points)

    @property
    def momenta(self) -> tuple:
        return tuple(p for _, p in self.apparent_points)

    def with_momenta(self, momenta) -> FuchsianInstance:
        """Same points and exponents, other momenta, and the same memo."""
        momenta = tuple(GaussianRational.coerce(p) for p in momenta)
        if len(momenta) != self.num_apparent:
            raise ValueError(
                f"expected {self.num_apparent} momenta, got {len(momenta)}"
            )
        sibling = FuchsianInstance(
            self.finite_points,
            self.infinity_exponents,
            tuple(zip(self.apparent_positions, momenta)),
        )
        object.__setattr__(sibling, "_memo", self._memo)
        return sibling

    def shifted(self, c) -> FuchsianInstance:
        """Translate every point by c, keeping exponents and momenta."""
        c = GaussianRational.coerce(c)
        return FuchsianInstance(
            tuple((t + c, pair) for t, pair in self.finite_points),
            self.infinity_exponents,
            tuple((q + c, p) for q, p in self.apparent_points),
        )

    def __repr__(self):
        finite = ", ".join(f"{t}: {pair}" for t, pair in self.finite_points)
        apparent = ", ".join(f"{q} (p={p})" for q, p in self.apparent_points)
        return (
            f"FuchsianInstance(finite=[{finite}], infinity={self.infinity_exponents}, "
            f"apparent=[{apparent}])"
        )


def _check_points(ts, qs) -> None:
    """Raise InvalidInstance unless there are at least two finite points ts,
    pairwise distinct, and the apparent points qs are pairwise distinct and
    off them: the hypotheses under which the h-system has maximal rank.
    The message lists every violation as "code: message", joined by "; "."""
    errors = []
    if len(ts) < 2:
        errors.append(f"n-too-small: need at least 2 finite points, got {len(ts)}")
    for i, j in combinations(range(len(ts)), 2):
        if ts[i] == ts[j]:
            errors.append(f"duplicate-t: finite points {i} and {j} coincide at {ts[i]}")
    for i, j in combinations(range(len(qs)), 2):
        if qs[i] == qs[j]:
            errors.append(f"duplicate-q: apparent points {i} and {j} coincide at {qs[i]}")
    for j, q in enumerate(qs):
        if q in ts:
            errors.append(f"q-in-P: apparent point {j} at {q} collides with a finite point")
    if errors:
        raise InvalidInstance("; ".join(errors))


def fuchs_defect(instance: FuchsianInstance) -> GaussianRational:
    """Sum of all prescribed exponent pairs minus (n - N - 1).

    Zero exactly when the instance is admissible; the value is the amount by
    which the dropped infinity condition of the first linear system fails.
    """
    total = instance.infinity_exponents.sum
    for _, pair in instance.finite_points:
        total = total + pair.sum
    target = instance.n - instance.num_apparent - 1
    return total - GaussianRational(target)


def _per_instance(build):
    """build, a function of an instance's points and exponents, made to run
    once per point set: its first value is kept in the memo that with_momenta
    siblings share, and later calls on any of them return it, unchanged by
    its readers.  So build must not read the momenta.  This is the one way a
    value enters the memo, and a call that raises stores nothing, so a
    failure is raised again on every call."""

    @wraps(build)
    def cached(instance: FuchsianInstance):
        memo = instance._memo
        if build not in memo:
            memo[build] = build(instance)
        return memo[build]

    return cached


@_per_instance
def _psi_ints(instance: FuchsianInstance) -> tuple:
    """(E, xr, xi, (pr, pi)), the point frame: X = E x = xr[k] + xi[k] i at
    each point, finite ones first, E the lcm of their denominators, and
    Psi~ = prod (Z - X) as int lists."""
    e, xr, xi = to_gaussian_ints(instance.finite_positions + instance.apparent_positions)
    return e, xr, xi, _monic_ints([1], [0], xr, xi, repeat(1))


class FuchsianEquation(_Frozen):
    """Coefficient data (g, h) of w'' + (g/psi) w' + (h/psi^2) w = 0 together
    with the instance it was built for; read-only, so the degree bounds hold."""

    __slots__ = ("g", "h", "instance")

    def __init__(self, g: Polynomial, h: Polynomial, instance: FuchsianInstance):
        d = instance.n + instance.num_apparent
        if g.degree > d - 1:
            raise ValueError(f"g has degree {g.degree}, bound is {d - 1}")
        if h.degree > 2 * (d - 1):
            raise ValueError(f"h has degree {h.degree}, bound is {2 * (d - 1)}")
        set_field = object.__setattr__
        set_field(self, "g", g)
        set_field(self, "h", h)
        set_field(self, "instance", instance)

    def _value(self) -> tuple:
        return self.g, self.h, self.instance

    def __repr__(self):
        return f"FuchsianEquation(g={self.g}, h={self.h})"


# -- JSON schemas -----------------------------------------------------------


def instance_to_json_obj(instance: FuchsianInstance) -> dict:
    """Instance as a JSON-ready dict with fixed key order."""
    return {
        "finite_points": [
            {"t": t.to_pair(), "exponents": pair.to_json_obj()}
            for t, pair in instance.finite_points
        ],
        "infinity_exponents": instance.infinity_exponents.to_json_obj(),
        "apparent": [
            {"q": q.to_pair(), "p": p.to_pair()} for q, p in instance.apparent_points
        ],
    }


def instance_from_json_obj(obj) -> FuchsianInstance:
    """Parse the instance schema; raises InvalidInstance on malformed data."""
    try:
        if not isinstance(obj, dict):
            raise InvalidInstance(f"instance must be an object, got {type(obj).__name__}")
        finite_entries, apparent_entries = obj["finite_points"], obj.get("apparent", [])
        points = len(finite_entries) + len(apparent_entries)
        if points > MAX_POINTS:
            raise InvalidInstance(f"n + N = {points}, over the cap MAX_POINTS = {MAX_POINTS}")
        finite = [
            (_complex_from_json(entry["t"]), ExponentPair.from_json_obj(entry["exponents"]))
            for entry in finite_entries
        ]
        infinity = ExponentPair.from_json_obj(obj["infinity_exponents"])
        apparent = [
            (_complex_from_json(entry["q"]), _complex_from_json(entry["p"]))
            for entry in apparent_entries
        ]
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, InvalidInstance):
            raise
        raise InvalidInstance(f"malformed instance JSON: {exc}") from exc
    return FuchsianInstance(finite, infinity, apparent)


def equation_to_json_obj(eq: FuchsianEquation) -> dict:
    """Equation as {"G": ..., "H": ...} with full-length coefficient arrays."""
    d = eq.instance.n + eq.instance.num_apparent
    return {
        "G": [c.to_pair() for c in eq.g.padded(d)],
        "H": [c.to_pair() for c in eq.h.padded(2 * d - 1)],
    }


def equation_from_json_obj(obj, instance: FuchsianInstance) -> FuchsianEquation:
    """Parse the equation schema, refusing "G" or "H" longer than
    equation_to_json_obj writes them before any coefficient is parsed."""
    d = instance.n + instance.num_apparent
    try:
        for key, full in (("G", d), ("H", 2 * d - 1)):
            if len(obj[key]) > full:
                raise InvalidInstance(
                    f'"{key}" has {len(obj[key])} coefficients, over its full length {full}'
                )
        g = Polynomial([GaussianRational.from_pair(c) for c in obj["G"]])
        h = Polynomial([GaussianRational.from_pair(c) for c in obj["H"]])
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, InvalidInstance):
            raise
        raise InvalidInstance(f"malformed equation JSON: {exc}") from exc
    return FuchsianEquation(g, h, instance)
