"""Rectangle-complement and translation symmetries of the four coefficient
families, exhaustive verification sweeps, and weight-reduction planners.

Every rule has the same shape.  Hypotheses relate the index partitions to the
rule parameters; applying a rule outside its hypotheses is a caller error
(PreconditionViolated), not a mathematical statement.  Inside the hypotheses
a containment test decides between two verdicts: the coefficient equals the
coefficient of a transformed index tuple, or the coefficient is zero.

Rule names and what they transform:

  lr-box(l, m, n)              c(lam, mu; nu), all three complemented in boxes
                               l x n, m x n, (l+m) x n
  lr-translate(n, k)           lam and nu translated by (k^n)
  kron-box(l, m, n)            g(lam, mu, nu) complemented in l x mn, m x ln,
                               n x lm
  kron-translate(l, m, k)      translated by ((km)^l), ((kl)^m), (k^(lm))
  pleth-box-inner(m, n)        a(lam, mu; nu): mu in m x n, nu in m|lam| x n
  pleth-translate-inner(n, k)  mu by (k^n), nu by ((k|lam|)^n)
  pleth-box-outer(l, n)        lam in l x r, nu in ql x n, where r counts the
                               tableaux of shape mu with entries <= n and
                               q = r|mu|/n
  pleth-translate-outer(n, k)  lam by (k^r), nu by ((qk)^n)
  kf-box(k, n)                 K(lam, mu): both complemented in k x n
  kf-translate(n, k)           both translated by (k^n)
"""

import os
import time
from dataclasses import asdict, dataclass, field

from .coefficients import kronecker_coefficient, lr_coefficient, plethysm_coefficient
from .hall_littlewood import kostka_foulkes
from .partitions import (
    complement_partition,
    conjugate,
    count_ssyt,
    fits_in_box,
    partitions_of,
    to_partition,
    translated_partition,
)
from .powersum import CharCache, WeightMismatch

RULE_NAMES = (
    "lr-box",
    "lr-translate",
    "kron-box",
    "kron-translate",
    "pleth-box-inner",
    "pleth-translate-inner",
    "pleth-box-outer",
    "pleth-translate-outer",
    "kf-box",
    "kf-translate",
)

FAMILY_OF = {name: name.split("-", 1)[0] for name in RULE_NAMES}

# The coefficient_of key of each family name the command line and the
# reduction reports use.
FAMILY_KEY = {"lr": "lr", "kronecker": "kron", "plethysm": "pleth", "kostka-foulkes": "kf"}


class PreconditionViolated(ValueError):
    """A rule was invoked outside its hypotheses."""

    def __init__(self, rule, clause):
        super().__init__(f"{rule}: {clause}")
        self.rule = rule
        self.clause = clause


@dataclass(frozen=True)
class Outcome:
    """Verdict of one rule application: an equal-coefficient image tuple,
    or None meaning the coefficient is zero."""

    rule: str
    params: tuple
    transformed: tuple

    @property
    def vanishes(self):
        return self.transformed is None


def _require(cond, rule, clause):
    if not cond:
        raise PreconditionViolated(rule, clause)


def _first(p):
    return p[0] if p else 0


def tableau_ratio(mu, n):
    """q = r|mu|/n where r = count_ssyt(mu, n); integral by the degree count
    over the tableau monomials of s_mu in n variables."""
    if n <= 0:
        raise ValueError("n must be positive")
    total = count_ssyt(mu, n) * sum(mu)
    if total % n:
        raise ArithmeticError(f"q = {total}/{n} is not integral for mu={mu}")
    return total // n


# ---------------------------------------------------------------------------
# the rules


def _lr_box(indices, l, m, n):
    lam, mu, nu = indices
    _require(len(nu) <= n, "lr-box", "length(nu) <= n")
    _require(_first(lam) <= l, "lr-box", "lambda_1 <= l")
    _require(_first(mu) <= m, "lr-box", "mu_1 <= m")
    if (
        fits_in_box(lam, l, n)
        and fits_in_box(mu, m, n)
        and fits_in_box(nu, l + m, n)
    ):
        return (
            complement_partition(lam, l, n),
            complement_partition(mu, m, n),
            complement_partition(nu, l + m, n),
        )
    return None


def _lr_translate(indices, n, k):
    lam, mu, nu = indices
    _require(n >= len(nu), "lr-translate", "n >= length(nu)")
    lam_t = translated_partition(lam, k, n)
    _require(lam_t is not None, "lr-translate", "lambda+(k^n) is a partition")
    nu_t = translated_partition(nu, k, n)
    if len(lam) <= n and nu_t is not None:
        return (lam_t, mu, nu_t)
    return None


def _kron_box(indices, l, m, n):
    lam, mu, nu = indices
    _require(_first(lam) <= l, "kron-box", "lambda_1 <= l")
    _require(_first(mu) <= m, "kron-box", "mu_1 <= m")
    _require(_first(nu) <= n, "kron-box", "nu_1 <= n")
    if (
        fits_in_box(lam, l, m * n)
        and fits_in_box(mu, m, l * n)
        and fits_in_box(nu, n, l * m)
    ):
        return (
            complement_partition(lam, l, m * n),
            complement_partition(mu, m, l * n),
            complement_partition(nu, n, l * m),
        )
    return None


def _kron_translate(indices, l, m, k):
    lam, mu, nu = indices
    _require(l >= len(lam), "kron-translate", "l >= length(lambda)")
    _require(m >= len(mu), "kron-translate", "m >= length(mu)")
    nu_t = translated_partition(nu, k, l * m)
    _require(nu_t is not None, "kron-translate", "nu+(k^(lm)) is a partition")
    lam_t = translated_partition(lam, k * m, l)
    mu_t = translated_partition(mu, k * l, m)
    if len(nu) <= l * m and lam_t is not None and mu_t is not None:
        return (lam_t, mu_t, nu_t)
    return None


def _pleth_box_inner(indices, m, n):
    lam, mu, nu = indices
    _require(fits_in_box(mu, m, n), "pleth-box-inner", "mu fits in m x n")
    _require(len(nu) <= n, "pleth-box-inner", "length(nu) <= n")
    if fits_in_box(nu, m * sum(lam), n):
        return (
            lam,
            complement_partition(mu, m, n),
            complement_partition(nu, m * sum(lam), n),
        )
    return None


def _pleth_translate_inner(indices, n, k):
    lam, mu, nu = indices
    _require(len(nu) <= n, "pleth-translate-inner", "length(nu) <= n")
    mu_t = translated_partition(mu, k, n)
    _require(mu_t is not None, "pleth-translate-inner", "mu+(k^n) is a partition")
    nu_t = translated_partition(nu, k * sum(lam), n)
    if nu_t is not None:
        return (lam, mu_t, nu_t)
    return None


def _pleth_box_outer(indices, l, n):
    lam, mu, nu = indices
    _require(n >= 1, "pleth-box-outer", "n >= 1")
    _require(_first(lam) <= l, "pleth-box-outer", "lambda_1 <= l")
    _require(len(nu) <= n, "pleth-box-outer", "length(nu) <= n")
    r = count_ssyt(mu, n)
    q = tableau_ratio(mu, n)
    if fits_in_box(lam, l, r) and fits_in_box(nu, q * l, n):
        return (
            complement_partition(lam, l, r),
            mu,
            complement_partition(nu, q * l, n),
        )
    return None


def _pleth_translate_outer(indices, n, k):
    lam, mu, nu = indices
    _require(n >= 1, "pleth-translate-outer", "n >= 1")
    _require(len(nu) <= n, "pleth-translate-outer", "length(nu) <= n")
    r = count_ssyt(mu, n)
    q = tableau_ratio(mu, n)
    lam_t = translated_partition(lam, k, r)
    _require(lam_t is not None, "pleth-translate-outer", "lambda+(k^r) is a partition")
    nu_t = translated_partition(nu, q * k, n)
    if len(lam) <= r and nu_t is not None:
        return (lam_t, mu, nu_t)
    return None


def _kf_box(indices, k, n):
    lam, mu = indices
    _require(_first(lam) <= k, "kf-box", "lambda_1 <= k")
    _require(len(mu) <= n, "kf-box", "length(mu) <= n")
    if fits_in_box(lam, k, n) and fits_in_box(mu, k, n):
        return (complement_partition(lam, k, n), complement_partition(mu, k, n))
    return None


def _kf_translate(indices, n, k):
    lam, mu = indices
    _require(len(mu) <= n, "kf-translate", "length(mu) <= n")
    lam_t = translated_partition(lam, k, n)
    _require(lam_t is not None, "kf-translate", "lambda+(k^n) is a partition")
    mu_t = translated_partition(mu, k, n)
    if len(lam) <= n and mu_t is not None:
        return (lam_t, mu_t)
    return None


_APPLIERS = {
    "lr-box": (_lr_box, ("l", "m", "n")),
    "lr-translate": (_lr_translate, ("n", "k")),
    "kron-box": (_kron_box, ("l", "m", "n")),
    "kron-translate": (_kron_translate, ("l", "m", "k")),
    "pleth-box-inner": (_pleth_box_inner, ("m", "n")),
    "pleth-translate-inner": (_pleth_translate_inner, ("n", "k")),
    "pleth-box-outer": (_pleth_box_outer, ("l", "n")),
    "pleth-translate-outer": (_pleth_translate_outer, ("n", "k")),
    "kf-box": (_kf_box, ("k", "n")),
    "kf-translate": (_kf_translate, ("n", "k")),
}

# The parameters of each box rule, in the order the command line's --box
# lists them; every one is a box dimension (k is kf-box's width).
BOX_PARAMS = {
    rule: names for rule, (_, names) in _APPLIERS.items() if "-box" in rule
}


def apply_rule(rule, indices, l=None, m=None, n=None, k=None):
    """Apply one named rule to an index tuple (three partitions, or two for
    the Kostka-Foulkes rules).  Returns an Outcome whose transformed field is
    the image tuple, or None when the rule proves the coefficient is zero.

    Box dimensions l, m, n must be nonnegative; translation amounts k may be
    any integer.  Missing, unused or out-of-hypothesis parameters raise
    PreconditionViolated.
    """
    if rule not in _APPLIERS:
        raise ValueError(f"unknown rule {rule!r}")
    fn, names = _APPLIERS[rule]
    supplied = {"l": l, "m": m, "n": n, "k": k}
    for name, value in supplied.items():
        if value is not None and name not in names:
            raise PreconditionViolated(
                rule, f"takes no parameter {name} (its parameters are {', '.join(names)})"
            )
    args = []
    for name in names:
        value = supplied[name]
        _require(value is not None, rule, f"parameter {name} is required")
        value = int(value)
        if name != "k" or rule in ("kf-box",):
            # k doubles as a box width for kf-box; every box width is >= 0
            _require(value >= 0, rule, f"parameter {name} must be nonnegative")
        args.append(value)
    want = 2 if FAMILY_OF[rule] == "kf" else 3
    if len(indices) != want:
        raise ValueError(f"{rule} acts on {want} partitions, got {len(indices)}")
    indices = tuple(to_partition(p) for p in indices)
    return Outcome(rule, tuple(zip(names, args)), fn(indices, *args))


# ---------------------------------------------------------------------------
# verification sweeps


@dataclass(frozen=True)
class SweepBounds:
    """Instance bounds for verify_rule.

    max_weight bounds the weight of the original coefficient, max_box every
    box dimension (and variable count n), max_k the absolute translation
    amount.  max_image_weight caps the weight of the image coefficient, and
    is consulted only by the plethysm rules, whose images otherwise grow far
    beyond what exact verification can afford; capped-out instances are
    counted as skipped.  A negative field raises ValueError.
    """

    max_weight: int = 6
    max_box: int = 3
    max_k: int = 2
    max_image_weight: int = 24

    def __post_init__(self):
        for name, value in asdict(self).items():
            if value < 0:
                raise ValueError(f"{name} must be nonnegative, got {value}")


class SweepContext:
    """Caches scoped to one sweep: character tables, inner-power products,
    Schur coefficients of evaluated plethysms, and Kronecker values."""

    def __init__(self):
        self.chars = CharCache()
        self.powers = {}
        self.maps = {}
        self.kron = {}


def _kron_value(lam, mu, nu, ctx):
    key = tuple(sorted((lam, mu, nu)))
    value = ctx.kron.get(key)
    if value is None:
        value = kronecker_coefficient(lam, mu, nu, ctx.chars)
        ctx.kron[key] = value
    return value


def coefficient_of(family, indices, ctx=None):
    """Coefficient value for one family; the common entry point used by the
    sweeps, the reduction checks and the command line."""
    if family == "lr":
        return lr_coefficient(*indices)
    if family == "kf":
        return kostka_foulkes(*indices)
    if ctx is None:
        ctx = SweepContext()
    if family == "kron":
        return _kron_value(*indices, ctx)
    if family == "pleth":
        return plethysm_coefficient(*indices, ctx.chars, ctx.powers, ctx.maps)
    raise ValueError(f"unknown family {family!r}")


@dataclass
class RuleReport:
    rule: str
    checked: int = 0
    transformed: int = 0
    vanished: int = 0
    skipped: int = 0
    counterexamples: list = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def ok(self):
        return not self.counterexamples

    def as_dict(self, with_timing=True):
        out = {
            "rule": self.rule,
            "checked": self.checked,
            "transformed": self.transformed,
            "vanished": self.vanished,
            "skipped": self.skipped,
            "counterexamples": list(self.counterexamples),
        }
        if with_timing:
            out["elapsed_s"] = round(self.elapsed_s, 3)
        return out


def _split_triples(max_weight):
    # |lam| + |mu| = |nu| <= max_weight
    for total in range(max_weight + 1):
        for nu in partitions_of(total):
            for a in range(total + 1):
                for lam in partitions_of(a):
                    for mu in partitions_of(total - a):
                        yield lam, mu, nu


def _same_weight_triples(max_weight):
    for total in range(max_weight + 1):
        for lam in partitions_of(total):
            for mu in partitions_of(total):
                for nu in partitions_of(total):
                    yield lam, mu, nu


def _pleth_triples(max_weight):
    # |lam| * |mu| = |nu| <= max_weight, including the degenerate weight-0
    # instances where one factor is empty
    yield (), (), ()
    for w in range(1, max_weight + 1):
        for mu in partitions_of(w):
            yield (), mu, ()
        for lam in partitions_of(w):
            yield lam, (), ()
    for total in range(1, max_weight + 1):
        for a in range(1, total + 1):
            if total % a:
                continue
            for lam in partitions_of(a):
                for mu in partitions_of(total // a):
                    for nu in partitions_of(total):
                        yield lam, mu, nu


def _same_weight_pairs(max_weight):
    for total in range(max_weight + 1):
        for lam in partitions_of(total):
            for mu in partitions_of(total):
                yield lam, mu


def _instances(rule, bounds):
    """Yield (indices, params, image_weight) for every in-hypothesis instance
    of the rule inside the bounds.  image_weight is the weight of the image
    coefficient, used for the plethysm cap."""
    top = bounds.max_box
    kk = bounds.max_k
    if rule == "lr-box":
        for lam, mu, nu in _split_triples(bounds.max_weight):
            for n in range(len(nu), top + 1):
                for l in range(_first(lam), top + 1):
                    for m in range(_first(mu), top + 1):
                        yield (lam, mu, nu), {"l": l, "m": m, "n": n}, (l + m) * n - sum(nu)
    elif rule == "lr-translate":
        for lam, mu, nu in _split_triples(bounds.max_weight):
            for n in range(len(nu), top + 1):
                for k in range(-kk, kk + 1):
                    if translated_partition(lam, k, n) is None:
                        continue
                    yield (lam, mu, nu), {"n": n, "k": k}, sum(nu) + k * n
    elif rule == "kron-box":
        for lam, mu, nu in _same_weight_triples(bounds.max_weight):
            for l in range(_first(lam), top + 1):
                for m in range(_first(mu), top + 1):
                    for n in range(_first(nu), top + 1):
                        yield (lam, mu, nu), {"l": l, "m": m, "n": n}, l * m * n - sum(nu)
    elif rule == "kron-translate":
        for lam, mu, nu in _same_weight_triples(bounds.max_weight):
            for l in range(len(lam), top + 1):
                for m in range(len(mu), top + 1):
                    for k in range(-kk, kk + 1):
                        if translated_partition(nu, k, l * m) is None:
                            continue
                        yield (lam, mu, nu), {"l": l, "m": m, "k": k}, sum(nu) + k * l * m
    elif rule == "pleth-box-inner":
        for lam, mu, nu in _pleth_triples(bounds.max_weight):
            for n in range(max(len(mu), len(nu)), top + 1):
                for m in range(_first(mu), top + 1):
                    yield (lam, mu, nu), {"m": m, "n": n}, sum(lam) * (m * n - sum(mu))
    elif rule == "pleth-translate-inner":
        for lam, mu, nu in _pleth_triples(bounds.max_weight):
            for n in range(len(nu), top + 1):
                for k in range(-kk, kk + 1):
                    if translated_partition(mu, k, n) is None:
                        continue
                    yield (lam, mu, nu), {"n": n, "k": k}, sum(nu) + k * sum(lam) * n
    elif rule == "pleth-box-outer":
        for lam, mu, nu in _pleth_triples(bounds.max_weight):
            for n in range(max(1, len(nu)), top + 1):
                r = count_ssyt(mu, n)
                for l in range(_first(lam), top + 1):
                    yield (lam, mu, nu), {"l": l, "n": n}, (l * r - sum(lam)) * sum(mu)
    elif rule == "pleth-translate-outer":
        for lam, mu, nu in _pleth_triples(bounds.max_weight):
            for n in range(max(1, len(nu)), top + 1):
                r = count_ssyt(mu, n)
                for k in range(-kk, kk + 1):
                    if translated_partition(lam, k, r) is None:
                        continue
                    yield (lam, mu, nu), {"n": n, "k": k}, (sum(lam) + k * r) * sum(mu)
    elif rule == "kf-box":
        for lam, mu in _same_weight_pairs(bounds.max_weight):
            for n in range(len(mu), top + 1):
                for k in range(_first(lam), top + 1):
                    yield (lam, mu), {"k": k, "n": n}, k * n - sum(mu)
    elif rule == "kf-translate":
        for lam, mu in _same_weight_pairs(bounds.max_weight):
            for n in range(len(mu), top + 1):
                for k in range(-kk, kk + 1):
                    if translated_partition(lam, k, n) is None:
                        continue
                    yield (lam, mu), {"n": n, "k": k}, sum(mu) + k * n
    else:
        raise ValueError(f"unknown rule {rule!r}")


def _json_value(value):
    return value if isinstance(value, int) else str(value)


def _check_one(rule, family, indices, params, report, ctx):
    """Check one instance into report; False when it is a counterexample."""
    outcome = apply_rule(rule, indices, **params)
    left = coefficient_of(family, indices, ctx)
    if outcome.vanishes:
        report.vanished += 1
        right = 0
    else:
        report.transformed += 1
        right = coefficient_of(family, outcome.transformed, ctx)
    report.checked += 1
    if left != right:
        report.counterexamples.append(
            {
                "rule": rule,
                "indices": [list(p) for p in indices],
                "params": params,
                "verdict": "vanishes" if outcome.vanishes else "transformed",
                "image": None
                if outcome.vanishes
                else [list(p) for p in outcome.transformed],
                "original_value": _json_value(left),
                "image_value": _json_value(right),
            }
        )
    return left == right


def _sweep_stride(rule, bounds, start, step, ctx=None):
    """Check every step-th in-bounds instance beginning at start.  Used both
    for the serial sweep (0, 1) and as the worker of the parallel one.
    Returns the report and the enumeration index of each counterexample."""
    if ctx is None:
        ctx = SweepContext()
    family = FAMILY_OF[rule]
    capped = family == "pleth"
    report = RuleReport(rule)
    found = []
    for i, (indices, params, image_weight) in enumerate(_instances(rule, bounds)):
        if i % step != start:
            continue
        if capped and image_weight > bounds.max_image_weight:
            report.skipped += 1
            continue
        if not _check_one(rule, family, indices, params, report, ctx):
            found.append(i)
    return report, found


def verify_rule(rule, bounds=None, ctx=None, jobs=1):
    """Check one rule on every in-bounds instance.

    Transformed verdicts are checked for equality of the two coefficients,
    Vanishes verdicts for the original being zero.  Returns a RuleReport;
    report.counterexamples is expected to stay empty.

    With jobs > 1 the instances are strided over a process pool of at most
    os.cpu_count() workers; workers are pure, the counters add up, and the
    counterexamples are merged back into enumeration order, so the report
    equals the serial one.  jobs < 1 raises ValueError.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    jobs = min(jobs, os.cpu_count() or 1)
    if bounds is None:
        bounds = SweepBounds()
    started = time.perf_counter()
    if jobs == 1:
        report, _ = _sweep_stride(rule, bounds, 0, 1, ctx)
    else:
        from concurrent.futures import ProcessPoolExecutor

        report = RuleReport(rule)
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [
                pool.submit(_sweep_stride, rule, bounds, start, jobs)
                for start in range(jobs)
            ]
            parts = [future.result() for future in futures]
        indexed = []
        for part, found in parts:
            report.checked += part.checked
            report.transformed += part.transformed
            report.vanished += part.vanished
            report.skipped += part.skipped
            indexed.extend(zip(found, part.counterexamples))
        indexed.sort(key=lambda pair: pair[0])
        report.counterexamples = [ce for _, ce in indexed]
    report.elapsed_s = time.perf_counter() - started
    return report


def verify_all(bounds=None, rules=RULE_NAMES, jobs=1):
    """Run verify_rule for each rule with a fresh context; reports come back
    in the given rule order."""
    return [verify_rule(rule, bounds, jobs=jobs) for rule in rules]


# ---------------------------------------------------------------------------
# weight reduction


@dataclass
class ReductionReport:
    family: str
    original: tuple
    chain: list
    reduced: tuple
    weight_before: int
    weight_after: int
    candidates: list
    vanishes: bool = False

    def as_dict(self):
        return {
            "family": self.family,
            "original": [list(p) for p in self.original],
            "chain": list(self.chain),
            "reduced": None if self.reduced is None else [list(p) for p in self.reduced],
            "weight_before": self.weight_before,
            "weight_after": self.weight_after,
            "candidates": list(self.candidates),
            "vanishes": self.vanishes,
        }


def _identity_report(family, indices, weight, candidates):
    return ReductionReport(family, indices, [], indices, weight, weight, candidates)


def _vanishing_report(family, indices, weight, candidates, chain):
    return ReductionReport(
        family, indices, chain, None, weight, None, candidates, vanishes=True
    )


def reduce_kronecker(lam, mu, nu):
    """Plan the cheapest equivalent Kronecker instance.

    Conjugating two of the three arguments preserves the coefficient, and the
    box complement with the smallest legal boxes (first parts of the possibly
    conjugated partitions) lands at weight l*m*n - N.  The planner scores the
    four conjugation patterns and keeps the best strictly-below-N result; when
    none helps, it returns the identity chain.  A complement whose containment
    test fails proves the coefficient is zero.
    """
    lam, mu, nu = to_partition(lam), to_partition(mu), to_partition(nu)
    weight = sum(lam)
    if not (sum(mu) == weight == sum(nu)):
        raise WeightMismatch("Kronecker indices must share one weight")
    original = (lam, mu, nu)
    patterns = (
        ((), original),
        (("mu", "nu"), (lam, conjugate(mu), conjugate(nu))),
        (("lambda", "nu"), (conjugate(lam), mu, conjugate(nu))),
        (("lambda", "mu"), (conjugate(lam), conjugate(mu), nu)),
    )
    candidates = []
    for flips, triple in patterns:
        boxes = tuple(_first(p) for p in triple)
        candidates.append(
            {
                "conjugate": list(flips),
                "boxes": list(boxes),
                "weight": boxes[0] * boxes[1] * boxes[2] - weight,
            }
        )
    best = min(range(4), key=lambda i: candidates[i]["weight"])
    if candidates[best]["weight"] >= weight:
        return _identity_report("kronecker", original, weight, candidates)
    flips, triple = patterns[best]
    l, m, n = candidates[best]["boxes"]
    chain = []
    if flips:
        chain.append({"op": "conjugate", "arguments": list(flips)})
    outcome = apply_rule("kron-box", triple, l=l, m=m, n=n)
    step = {"op": "complement", "rule": "kron-box", "l": l, "m": m, "n": n}
    if outcome.vanishes:
        step["verdict"] = "vanishes"
        chain.append(step)
        return _vanishing_report("kronecker", original, weight, candidates, chain)
    step["verdict"] = "transformed"
    chain.append(step)
    return ReductionReport(
        "kronecker",
        original,
        chain,
        outcome.transformed,
        weight,
        candidates[best]["weight"],
        candidates,
    )


def reduce_plethysm(lam, mu, nu):
    """Plan the cheaper of the two inner-box reductions for a(lam, mu; nu).

    The identity pattern complements mu in mu_1 x length(nu); the conjugate
    pattern first conjugates mu and nu (and lam too when |mu| is odd, which
    preserves the coefficient) and then complements.  Each pattern needs the
    inner length to fit under the outer length; when mu is too long for nu
    in both patterns the coefficient is zero outright.
    """
    lam, mu, nu = to_partition(lam), to_partition(mu), to_partition(nu)
    weight = sum(nu)
    if sum(lam) * sum(mu) != weight:
        raise WeightMismatch("|nu| must equal |lambda| * |mu|")
    original = (lam, mu, nu)
    odd = sum(mu) % 2 == 1
    candidates = [
        {
            "conjugate": [],
            "m": _first(mu),
            "n": len(nu),
            "weight": _first(mu) * len(nu) * sum(lam) - weight,
            "applicable": len(mu) <= len(nu),
        },
        {
            "conjugate": ["lambda", "mu", "nu"] if odd else ["mu", "nu"],
            "m": len(mu),
            "n": _first(nu),
            "weight": len(mu) * _first(nu) * sum(lam) - weight,
            "applicable": _first(mu) <= _first(nu),
        },
    ]
    if lam and mu and len(mu) > len(nu):
        # s_mu needs more variables than nu provides, so the coefficient is 0
        chain = [{"op": "vanishes", "reason": "length(mu) > length(nu)"}]
        return _vanishing_report("plethysm", original, weight, candidates, chain)
    usable = [i for i in range(2) if candidates[i]["applicable"]]
    if not usable:
        return _identity_report("plethysm", original, weight, candidates)
    best = min(usable, key=lambda i: candidates[i]["weight"])
    if candidates[best]["weight"] >= weight:
        return _identity_report("plethysm", original, weight, candidates)
    chosen = candidates[best]
    triple = original
    chain = []
    if chosen["conjugate"]:
        flipped_lam = conjugate(lam) if odd else lam
        triple = (flipped_lam, conjugate(mu), conjugate(nu))
        chain.append({"op": "conjugate", "arguments": list(chosen["conjugate"])})
    outcome = apply_rule("pleth-box-inner", triple, m=chosen["m"], n=chosen["n"])
    step = {
        "op": "complement",
        "rule": "pleth-box-inner",
        "m": chosen["m"],
        "n": chosen["n"],
    }
    if outcome.vanishes:
        step["verdict"] = "vanishes"
        chain.append(step)
        return _vanishing_report("plethysm", original, weight, candidates, chain)
    step["verdict"] = "transformed"
    chain.append(step)
    return ReductionReport(
        "plethysm",
        original,
        chain,
        outcome.transformed,
        weight,
        chosen["weight"],
        candidates,
    )


def reduce_indices(family, indices):
    if family == "kronecker":
        return reduce_kronecker(*indices)
    if family == "plethysm":
        return reduce_plethysm(*indices)
    raise ValueError(f"no reduction planner for family {family!r}")


def reduced_value(report, ctx=None):
    """Coefficient at the reduced end of a reduction chain."""
    if report.vanishes:
        return 0
    return coefficient_of(FAMILY_KEY[report.family], report.reduced, ctx)


def check_reduction(report, ctx=None):
    """Recompute both ends of the chain; True when the value is preserved."""
    original = coefficient_of(FAMILY_KEY[report.family], report.original, ctx)
    return original == reduced_value(report, ctx)


# ---------------------------------------------------------------------------
# benchmarking


def _timed_value(family, indices, repeats):
    times = []
    value = None
    for _ in range(repeats):
        started = time.perf_counter()
        value = coefficient_of(family, indices, SweepContext())
        times.append(time.perf_counter() - started)
    times.sort()
    return value, times[len(times) // 2]


def bench_reduction(family, indices, repeats=3):
    """Median wall time of the naive computation versus plan-then-compute.

    Fresh caches for every run, so the comparison is between cold paths.  The
    two values must agree; a reduction that changed the answer would be a bug,
    not a speedup, and raises immediately.  repeats must be at least 1, else
    ValueError.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be at least 1, got {repeats}")
    indices = tuple(to_partition(p) for p in indices)
    # planning first rejects a family without a planner before any timing
    report = reduce_indices(family, indices)
    naive_value, naive_s = _timed_value(FAMILY_KEY[family], indices, repeats)
    times = []
    value = None
    for _ in range(repeats):
        started = time.perf_counter()
        report = reduce_indices(family, indices)
        value = reduced_value(report, SweepContext())
        times.append(time.perf_counter() - started)
    times.sort()
    if value != naive_value:
        raise AssertionError(
            f"reduction changed the {family} value: {naive_value} != {value}"
        )
    return {
        "family": family,
        "indices": [list(p) for p in indices],
        "value": _json_value(naive_value),
        "weight_before": report.weight_before,
        "weight_after": report.weight_after,
        "naive_s": round(naive_s, 6),
        "reduced_s": round(times[len(times) // 2], 6),
    }
