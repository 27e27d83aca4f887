"""Rectangle-complement and translation symmetries of the four coefficient
families, exhaustive verification sweeps, and weight-reduction planners.

Every rule has the same shape, declared once in RULES.  Each hypothesis is a
floor on a parameter, read off the index partitions: a box dimension or row
count at least a first part or a length, and a translation amount k at
least p_{r+1} - p_r for the partition p it shifts in its first r rows.  A
parameter below its floor is a caller error (PreconditionViolated, naming the
parameter and the floor), not a mathematical statement.  At or above the
floors a containment test decides between two verdicts: the coefficient
equals the coefficient of a transformed index tuple, or the coefficient is
zero.

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

Every family is declared once, in FAMILIES.  Weight reduction has one
planning tail, _plan.  A family plans by listing its conjugation-plus-
complement candidates, scored from first parts and lengths, and naming its
planner in FAMILIES; the tail picks the lightest, builds the chain and the
report, and conjugates the winner's triple and applies the complement to it.
"""

import os
import time
from dataclasses import asdict, dataclass, field
from itertools import groupby, islice, product
from math import inf

from .coefficients import (
    _kronecker_class_sums,
    kronecker_coefficient,
    kronecker_oracle,
    lr_coefficient,
    lr_coefficient_oracle,
    plethysm_coefficient,
    plethysm_oracle,
)
from .hall_littlewood import kostka_foulkes, kostka_foulkes_oracle
from .partitions import (
    _tableau_count,
    box_complements,
    conjugate,
    partitions_of,
    to_count,
    to_partition,
    translated_partition,
)
from .powersum import CharCache, WeightMismatch


class PreconditionViolated(ValueError):
    """A rule was invoked outside its hypotheses."""

    def __init__(self, rule, clause):
        super().__init__(f"{rule}: {clause}")
        self.rule = rule
        self.clause = clause


class SweepWorkerDied(RuntimeError):
    """A worker process of a parallel sweep died before returning its part."""


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


def _family_of(rule):
    """The family of a rule name, else ValueError (an unhashable name
    included)."""
    if not isinstance(rule, str) or rule not in FAMILY_OF:
        raise ValueError(f"unknown rule {rule!r}")
    return FAMILY_OF[rule]


def _family_key(family):
    """The FAMILIES key of a family spelled by its key or its name, else
    ValueError (an unhashable name included)."""
    if not isinstance(family, str) or family not in _SPELLINGS:
        raise ValueError(f"unknown family {family!r}")
    return _SPELLINGS[family]


def _partitions(name, key, indices):
    """indices as partitions, after checking that there are as many as the
    family with that FAMILIES key takes; name heads the ValueError."""
    arity = FAMILIES[key].arity
    if len(indices) != arity:
        raise ValueError(f"{name} acts on {arity} partitions, got {len(indices)}")
    return tuple(to_partition(p) for p in indices)


def _first(p):
    return p[0] if p else 0


def tableau_ratio(mu, n):
    """q = r|mu|/n, r the number of tableaux of shape mu with entries <= n;
    integral by the degree count over the tableau monomials of s_mu in n
    variables.  A malformed mu, a non-integer n or n <= 0 raises ValueError."""
    n = to_count(n, "n")
    if n == 0:
        raise ValueError("n must be positive")
    return _tableau_count(to_partition(mu), n)[1]


def _shift_floor(p, rows):
    """The least k for which p + (k^rows) is a partition: p_{rows+1} - p_rows,
    parts past the length read as 0.  Every k works when rows is 0, so the
    floor is then -inf."""
    if not rows:
        return -inf
    below = p[rows] if rows < len(p) else 0
    return below - (p[rows - 1] if rows <= len(p) else 0)


# ---------------------------------------------------------------------------
# the rules
#
# An applier gets partitions and parameters at or above their floors, runs
# the rule's containment test and returns the image tuple, or None when the
# coefficient is zero.


def _lr_box(indices, l, m, n):
    lam, mu, nu = indices
    return box_complements((lam, l, n), (mu, m, n), (nu, l + m, n))


def _lr_translate(indices, n, k):
    lam, mu, nu = indices
    nu_t = translated_partition(nu, k, n)
    if len(lam) <= n and nu_t is not None:
        return (translated_partition(lam, k, n), mu, nu_t)
    return None


def _kron_box(indices, l, m, n):
    lam, mu, nu = indices
    return box_complements((lam, l, m * n), (mu, m, l * n), (nu, n, l * m))


def _kron_translate(indices, l, m, k):
    lam, mu, nu = indices
    lam_t = translated_partition(lam, k * m, l)
    mu_t = translated_partition(mu, k * l, m)
    if len(nu) <= l * m and lam_t is not None and mu_t is not None:
        return (lam_t, mu_t, translated_partition(nu, k, l * m))
    return None


def _pleth_box_inner(indices, m, n):
    lam, mu, nu = indices
    image = box_complements((mu, m, n), (nu, m * sum(lam), n))
    return None if image is None else (lam, *image)


def _pleth_translate_inner(indices, n, k):
    lam, mu, nu = indices
    nu_t = translated_partition(nu, k * sum(lam), n)
    if nu_t is not None:
        return (lam, translated_partition(mu, k, n), nu_t)
    return None


def _pleth_box_outer(indices, l, n):
    lam, mu, nu = indices
    r, q = _tableau_count(mu, n)
    image = box_complements((lam, l, r), (nu, q * l, n))
    return None if image is None else (image[0], mu, image[1])


def _pleth_translate_outer(indices, n, k):
    lam, mu, nu = indices
    r, q = _tableau_count(mu, n)
    nu_t = translated_partition(nu, q * k, n)
    if len(lam) <= r and nu_t is not None:
        return (translated_partition(lam, k, r), mu, nu_t)
    return None


def _kf_box(indices, k, n):
    lam, mu = indices
    return box_complements((lam, k, n), (mu, k, n))


def _kf_translate(indices, n, k):
    lam, mu = indices
    mu_t = translated_partition(mu, k, n)
    if len(lam) <= n and mu_t is not None:
        return (translated_partition(lam, k, n), mu_t)
    return None


@dataclass(frozen=True)
class Rule:
    """One rule, declared once; every hypothesis is a lower bound on a
    parameter.  params: the parameter names in --box order.  floors(*indices):
    each box dimension's and row count's floor by name, in sweep nesting
    order.  shift(*indices, **floored): a translation rule's floor of k."""

    params: tuple
    image: object
    floors: object
    shift: object = None


RULES = {
    "lr-box": Rule(
        ("l", "m", "n"), _lr_box,
        lambda lam, mu, nu: {"n": len(nu), "l": _first(lam), "m": _first(mu)},
    ),
    "lr-translate": Rule(
        ("n", "k"), _lr_translate, lambda lam, mu, nu: {"n": len(nu)},
        shift=lambda lam, mu, nu, n: _shift_floor(lam, n),
    ),
    "kron-box": Rule(
        ("l", "m", "n"), _kron_box,
        lambda lam, mu, nu: {"l": _first(lam), "m": _first(mu), "n": _first(nu)},
    ),
    "kron-translate": Rule(
        ("l", "m", "k"), _kron_translate, lambda lam, mu, nu: {"l": len(lam), "m": len(mu)},
        shift=lambda lam, mu, nu, l, m: _shift_floor(nu, l * m),
    ),
    "pleth-box-inner": Rule(
        ("m", "n"), _pleth_box_inner,
        lambda lam, mu, nu: {"n": max(len(mu), len(nu)), "m": _first(mu)},
    ),
    "pleth-translate-inner": Rule(
        ("n", "k"), _pleth_translate_inner, lambda lam, mu, nu: {"n": len(nu)},
        shift=lambda lam, mu, nu, n: _shift_floor(mu, n),
    ),
    "pleth-box-outer": Rule(
        ("l", "n"), _pleth_box_outer,
        lambda lam, mu, nu: {"n": max(1, len(nu)), "l": _first(lam)},
    ),
    "pleth-translate-outer": Rule(
        ("n", "k"), _pleth_translate_outer, lambda lam, mu, nu: {"n": max(1, len(nu))},
        shift=lambda lam, mu, nu, n: _shift_floor(lam, _tableau_count(mu, n)[0]),
    ),
    "kf-box": Rule(("k", "n"), _kf_box, lambda lam, mu: {"n": len(mu), "k": _first(lam)}),
    "kf-translate": Rule(
        ("n", "k"), _kf_translate, lambda lam, mu: {"n": len(mu)},
        shift=lambda lam, mu, n: _shift_floor(lam, n),
    ),
}

RULE_NAMES = tuple(RULES)

FAMILY_OF = {name: name.split("-", 1)[0] for name in RULE_NAMES}

# The parameters of each box rule (a rule without a shift), in the order the
# command line's --box lists them; every one is a box dimension (k is
# kf-box's width).
BOX_PARAMS = {rule: spec.params for rule, spec in RULES.items() if spec.shift is None}


def _apply(rule, indices, params):
    """The image of partitions under a rule with parameters at or above their
    floors (a dict by parameter name): the transformed tuple, or None when
    the coefficient is zero."""
    return RULES[rule].image(indices, **params)


def apply_rule(rule, indices, l=None, m=None, n=None, k=None):
    """Apply one named rule to an index tuple (three partitions, or two for
    the Kostka-Foulkes rules).  Returns an Outcome whose transformed field is
    the image tuple, or None when the rule proves the coefficient is zero.

    Every hypothesis is a floor on a parameter, read off the indices: the
    box dimensions and row counts first, then the translation amount k.  A
    parameter below its floor raises PreconditionViolated naming both (every
    box floor is at least 0, so a negative dimension is refused); so does a
    missing or unused parameter.
    """
    family = _family_of(rule)
    spec = RULES[rule]
    supplied = {"l": l, "m": m, "n": n, "k": k}
    for name, value in supplied.items():
        if value is not None and name not in spec.params:
            raise PreconditionViolated(
                rule, f"takes no parameter {name} (its parameters are {', '.join(spec.params)})"
            )
    params = {}
    for name in spec.params:
        value = supplied[name]
        _require(value is not None, rule, f"parameter {name} is required")
        _require(isinstance(value, int), rule, f"parameter {name} must be an integer")
        params[name] = value
    indices = _partitions(rule, family, indices)
    floors = spec.floors(*indices)
    for name, floor in floors.items():
        _require(params[name] >= floor, rule, f"parameter {name} must be at least {floor}")
    if spec.shift is not None:
        floor = spec.shift(*indices, **{name: params[name] for name in floors})
        _require(params["k"] >= floor, rule, f"parameter k must be at least {floor}")
    return Outcome(rule, tuple(params.items()), _apply(rule, indices, params))


# ---------------------------------------------------------------------------
# verification sweeps


@dataclass(frozen=True)
class SweepBounds:
    """Instance bounds for verify_rule.

    max_weight bounds the weight of the original coefficient, max_box every
    box dimension (and variable count n), max_k the absolute translation
    amount.  max_image_weight caps the weight |nu| of a plethysm rule's image,
    read off the image itself, since those images otherwise grow far beyond
    what exact verification can afford; a transformed instance whose image
    weighs more is counted as skipped, and a vanishing one is always checked.
    Each field must be a nonnegative int, else ValueError.
    """

    max_weight: int = 6
    max_box: int = 3
    max_k: int = 2
    max_image_weight: int = 24

    def __post_init__(self):
        for name, value in asdict(self).items():
            object.__setattr__(self, name, to_count(value, name))


class SweepContext:
    """Caches scoped to one sweep: the character rows of a CharCache (each
    shape's row built block by block, as far as the largest part bound any
    call asked of it), the plethysm engine's caches (powers: the power sum
    route's products prod_i F(rho_i) per mu, keyed by rho, filled only where
    coefficients._by_determinant sends (lam, mu, n) to the power sums; maps:
    the expansion of s_lam[s_mu] per (lam, mu, n): where that predicate
    sends the key to the determinant, its Schur coefficients ({lam: 1} or
    {mu: 1} by a unit law, else from the Jacobi-Trudi determinant), and
    elsewhere its power sum coefficients), and four value memos, one per
    family, keyed as _value reads them: kron by the sorted triple, lr by
    (the heavier of lam and mu, the other, nu), pleth by the ordered triple
    (lam, mu, nu) and kf by the ordered pair (lam, mu); no key uses any of
    the rules the sweeps check.  The keys record every value a sweep read.
    A sweep of a Kronecker rule fills kron a block at a time
    (_kron_blocks); the other memos fill one miss at a time.

    coefficient_of validates its indices before it reads or writes these.
    The sweeps skip that step: they generate their instances as partitions
    with parameters at or above their floors, so they call the appliers and
    _value directly."""

    def __init__(self):
        self.chars = CharCache()
        self.powers = {}
        self.maps = {}
        self.kron = {}
        self.lr = {}
        self.pleth = {}
        self.kf = {}


def _value(family, indices, ctx):
    """Coefficient value of indices that are already partitions, through
    ctx's memo of the family; a miss calls the family's engine on the
    memo's key.  g is symmetric in its three arguments, so the Kronecker
    key is the sorted triple; c^nu_(lam mu) = c^nu_(mu lam), so the LR key
    puts the heavier of lam and mu first, where lr_coefficient takes it as
    the inner shape and leaves the fewest cells to fill.  Neither symmetry
    is one of the rules the sweeps check."""
    memo = getattr(ctx, family)
    key = indices
    if family == "kron":
        key = tuple(sorted(indices))
    elif family == "lr":
        lam, mu, nu = indices
        a, b = sum(lam), sum(mu)
        if a < b or (a == b and lam < mu):
            key = (mu, lam, nu)
    value = memo.get(key)
    if value is None:
        value = memo[key] = FAMILIES[family].engine(key, ctx)
    return value


def coefficient_of(family, indices, ctx=None):
    """Coefficient value for one family, by its FAMILIES key or its name
    ("kron" or "kronecker"); the entry point the command line uses.  The
    family, the number of indices (its arity) and every index being a
    partition (trailing zeros allowed) are checked, else ValueError, before
    ctx is read or written; a call without ctx gets a private one."""
    key = _family_key(family)
    indices = _partitions(family, key, indices)
    if ctx is None:
        ctx = SweepContext()
    return _value(key, indices, ctx)


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
    """Yield (indices, params) for every instance of the rule inside the
    bounds: each floored parameter from its floor to max_box, nested in
    floors order, then k from max(-max_k, its floor) to max_k.  Every one
    meets the rule's hypotheses."""
    spec = RULES[rule]
    top, kk = bounds.max_box, bounds.max_k
    for indices in FAMILIES[FAMILY_OF[rule]].index_tuples(bounds.max_weight):
        floors = spec.floors(*indices)
        names = tuple(floors)
        for values in product(*(range(floor, top + 1) for floor in floors.values())):
            params = dict(zip(names, values))
            if spec.shift is None:
                yield indices, params
                continue
            for k in range(max(-kk, spec.shift(*indices, **params)), kk + 1):
                yield indices, {**params, "k": k}


def _json_value(value):
    return value if isinstance(value, int) else str(value)


def _check_one(rule, family, indices, params, image, report, ctx):
    """Check one instance, whose image under the rule is image, into report;
    False when it is a counterexample.  _instances builds indices from
    partitions_of and params from their floors, so neither is validated
    again here."""
    left = _value(family, indices, ctx)
    if image is None:
        report.vanished += 1
        right = 0
    else:
        report.transformed += 1
        right = _value(family, image, ctx)
    report.checked += 1
    if left != right:
        report.counterexamples.append(
            {
                "rule": rule,
                "indices": [list(p) for p in indices],
                "params": {name: params[name] for name in RULES[rule].params},
                "verdict": "vanishes" if image is None else "transformed",
                "image": None if image is None else [list(p) for p in image],
                "original_value": _json_value(left),
                "image_value": _json_value(right),
            }
        )
    return left == right


def _kron_blocks(checks, ctx):
    """checks, (i, indices, params, image) in enumeration order, passed on a
    block at a time: a block is a run whose indices share their first two
    partitions, where the images' shared pairs of shapes recur.  Before a
    block is passed on, ctx.kron gets every key it reads that the memo
    lacks, from one call to _kronecker_class_sums, looked up by name here at
    call time."""
    memo = ctx.kron
    for _, block in groupby(checks, key=lambda check: check[1][:2]):
        block = list(block)
        missing = {}
        for _, indices, _, image in block:
            for triple in (indices, image):
                if triple is not None:
                    key = tuple(sorted(triple))  # the memo's key, as in _value
                    if key not in memo:
                        missing[key] = None
        if missing:
            memo.update(_kronecker_class_sums(list(missing), ctx.chars))
        yield from block


def _sweep_stride(rule, bounds, start, step, ctx=None):
    """Check every step-th in-bounds instance beginning at start.  Used both
    for the serial sweep (0, 1) and as the worker of the parallel one.
    Every value is read through _value in enumeration order; a Kronecker
    rule's misses are filled a block at a time first (_kron_blocks).
    Returns the report and the enumeration index of each counterexample."""
    if ctx is None:
        ctx = SweepContext()
    family = FAMILY_OF[rule]
    report = RuleReport(rule)
    found = []
    checks = (
        (i, indices, params, _apply(rule, indices, params))
        for i, (indices, params) in islice(enumerate(_instances(rule, bounds)), start, None, step)
    )
    if family == "kron":
        checks = _kron_blocks(checks, ctx)
    for i, indices, params, image in checks:
        if family == "pleth" and image is not None and sum(image[2]) > bounds.max_image_weight:
            report.skipped += 1
            continue
        if not _check_one(rule, family, indices, params, image, report, ctx):
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
    equals the serial one.  ctx serves only the in-process sweep (jobs == 1);
    each worker builds its own; a worker that dies raises SweepWorkerDied.
    An unknown rule, or jobs not an integer of at least 1, raises ValueError
    before any work.
    """
    _family_of(rule)
    jobs = to_count(jobs, "jobs")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    jobs = min(jobs, os.cpu_count() or 1)
    if bounds is None:
        bounds = SweepBounds()
    started = time.perf_counter()
    if jobs == 1:
        parts = [_sweep_stride(rule, bounds, 0, 1, ctx)]
    else:
        from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

        try:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                futures = [
                    pool.submit(_sweep_stride, rule, bounds, start, jobs)
                    for start in range(jobs)
                ]
                parts = [future.result() for future in futures]
        except BrokenExecutor as exc:
            raise SweepWorkerDied(f"{rule}: a sweep worker process died") from exc
    report = RuleReport(rule)
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
    in the given rule order.  Every rule name is checked before the first
    rule runs."""
    for rule in rules:
        _family_of(rule)
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


def _plan(family, original, weight, candidates, options, rule):
    """The tail every planner shares.  candidates[i] scores one pattern (its
    "applicable" defaults to true) and options[i] = (flips, params) realises
    it: the names of the arguments to conjugate, and rule's parameters by
    name, at or above their floors when the candidate is applicable.  A
    planner scores every pattern from first parts and lengths alone, since
    the first part of a conjugate is the length of the partition; the
    conjugated triple is built here, for the winner only, and only when the
    reduction is taken.  The first applicable candidate of least weight
    wins; unless it is strictly below weight the chain is the identity."""
    usable = [i for i, c in enumerate(candidates) if c.get("applicable", True)]
    best = min(usable, key=lambda i: candidates[i]["weight"], default=None)
    if best is None or candidates[best]["weight"] >= weight:
        return ReductionReport(
            family, original, [], original, weight, weight, candidates
        )
    flips, params = options[best]
    chain = [{"op": "conjugate", "arguments": list(flips)}] if flips else []
    image = _apply(rule, _conjugated(original, flips), params)
    verdict = "vanishes" if image is None else "transformed"
    chain.append({"op": "complement", "rule": rule, **params, "verdict": verdict})
    after = None if image is None else candidates[best]["weight"]
    return ReductionReport(
        family, original, chain, image, weight, after, candidates,
        vanishes=image is None,
    )


def _conjugated(original, flips):
    """original with the arguments named in flips conjugated."""
    return tuple(
        conjugate(p) if name in flips else p
        for name, p in zip(("lambda", "mu", "nu"), original)
    )


def reduce_kronecker(lam, mu, nu):
    """Plan the cheapest equivalent Kronecker instance.

    Conjugating two of the three arguments preserves the coefficient, and the
    box complement with the smallest legal boxes (first parts of the possibly
    conjugated partitions) lands at weight l*m*n - N.  A conjugate's first
    part is the partition's length, so every box side is a first part or a
    length of an argument: the pattern that conjugates mu and nu has boxes
    (lam_1, len(mu), len(nu)), and so on.  The planner scores the four
    conjugation patterns and keeps the best strictly-below-N result; when
    none helps, it returns the identity chain.  A complement whose
    containment test fails proves the coefficient is zero.
    """
    lam, mu, nu = to_partition(lam), to_partition(mu), to_partition(nu)
    weight = sum(lam)
    if not (sum(mu) == weight == sum(nu)):
        raise WeightMismatch("Kronecker indices must share one weight")
    original = (lam, mu, nu)
    a, b, c = _first(lam), _first(mu), _first(nu)
    la, lb, lc = len(lam), len(mu), len(nu)
    candidates, options = [], []
    for flips, l, m, n in (
        ((), a, b, c),
        (("mu", "nu"), a, lb, lc),
        (("lambda", "nu"), la, b, lc),
        (("lambda", "mu"), la, lb, c),
    ):
        candidates.append(
            {"conjugate": list(flips), "boxes": [l, m, n], "weight": l * m * n - weight}
        )
        options.append((flips, {"l": l, "m": m, "n": n}))
    return _plan("kronecker", original, weight, candidates, options, "kron-box")


def reduce_plethysm(lam, mu, nu):
    """Plan the cheaper of the two inner-box reductions for a(lam, mu; nu).

    The identity pattern complements mu in mu_1 x length(nu); the conjugate
    pattern first conjugates mu and nu (and lam too when |mu| is odd, which
    preserves the coefficient) and then complements mu' in length(mu) x nu_1.
    Each pattern needs the inner length to fit under the outer length:
    length(mu) <= length(nu), or mu_1 <= nu_1 for the conjugates.  When mu is
    too long for nu in the identity pattern the coefficient is zero outright.
    """
    lam, mu, nu = to_partition(lam), to_partition(mu), to_partition(nu)
    weight = sum(nu)
    if sum(lam) * sum(mu) != weight:
        raise WeightMismatch("|nu| must equal |lambda| * |mu|")
    original = (lam, mu, nu)
    odd = sum(mu) % 2 == 1
    candidates, options = [], []
    for flips, m, n, fits in (
        ((), _first(mu), len(nu), len(mu) <= len(nu)),
        (
            ("lambda", "mu", "nu") if odd else ("mu", "nu"),
            len(mu), _first(nu), _first(mu) <= _first(nu),
        ),
    ):
        candidates.append(
            {
                "conjugate": list(flips),
                "m": m,
                "n": n,
                "weight": m * n * sum(lam) - weight,
                "applicable": fits,
            }
        )
        options.append((flips, {"m": m, "n": n}))
    if lam and mu and len(mu) > len(nu):
        # s_mu needs more variables than nu provides, so the coefficient is 0
        chain = [{"op": "vanishes", "reason": "length(mu) > length(nu)"}]
        return ReductionReport(
            "plethysm", original, chain, None, weight, None, candidates, vanishes=True
        )
    return _plan("plethysm", original, weight, candidates, options, "pleth-box-inner")


# ---------------------------------------------------------------------------
# the families


@dataclass(frozen=True)
class Family:
    """One coefficient family.  name: as the command line and the reduction
    reports spell it.  arity: how many partitions index a coefficient.
    engine(indices, ctx), with ctx's caches, and oracle(indices): the two
    routes, each looking its function up by name at call time.
    index_tuples(max_weight): what its sweeps walk.  planner(*indices): its
    weight-reduction planner, or None."""

    name: str
    arity: int
    engine: object
    oracle: object
    index_tuples: object
    planner: object = None


FAMILIES = {
    "lr": Family(
        "lr", 3, lambda indices, ctx: lr_coefficient(*indices),
        lambda indices: lr_coefficient_oracle(*indices), _split_triples,
    ),
    "kron": Family(
        "kronecker", 3, lambda indices, ctx: kronecker_coefficient(*indices, ctx.chars),
        lambda indices: kronecker_oracle(
            *indices, max(1, len(indices[0])), max(1, len(indices[1]))
        ),
        _same_weight_triples, reduce_kronecker,
    ),
    "pleth": Family(
        "plethysm", 3,
        lambda indices, ctx: plethysm_coefficient(*indices, ctx.chars, ctx.powers, ctx.maps),
        lambda indices: plethysm_oracle(*indices), _pleth_triples, reduce_plethysm,
    ),
    "kf": Family(
        "kostka-foulkes", 2, lambda indices, ctx: kostka_foulkes(*indices),
        lambda indices: kostka_foulkes_oracle(*indices), _same_weight_pairs,
    ),
}

_SPELLINGS = {s: key for key, spec in FAMILIES.items() for s in (key, spec.name)}


def reduce_indices(family, indices):
    """The reduction report of a planned family's index tuple, the family by
    either spelling; the family, the number of indices and every index being
    a partition are checked as in coefficient_of."""
    key = _family_key(family)
    if FAMILIES[key].planner is None:
        raise ValueError(f"no reduction planner for family {family!r}")
    return FAMILIES[key].planner(*_partitions(family, key, indices))


# A report's ends come out of a planner, which made them partitions; they
# go to _value directly, and the Kronecker and plethysm engines still reject
# a malformed index in a report built by hand.


def reduced_value(report, ctx=None):
    """Coefficient at the reduced end of a reduction chain."""
    if report.vanishes:
        return 0
    if ctx is None:
        ctx = SweepContext()
    return _value(_family_key(report.family), report.reduced, ctx)


def check_reduction(report, ctx=None):
    """Recompute both ends of the chain; True when the value is preserved."""
    if ctx is None:
        ctx = SweepContext()
    original = _value(_family_key(report.family), report.original, ctx)
    return original == reduced_value(report, ctx)


# ---------------------------------------------------------------------------
# benchmarking


def _timed(compute, repeats):
    """compute()'s value and its median wall time over repeats calls."""
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        value = compute()
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
    repeats = to_count(repeats, "repeats")
    if repeats < 1:
        raise ValueError(f"repeats must be at least 1, got {repeats}")
    # planning first rejects an unknown family, a family without a planner,
    # or bad indices, before any timing
    report = reduce_indices(family, indices)
    indices = report.original
    naive_value, naive_s = _timed(
        lambda: coefficient_of(family, indices, SweepContext()), repeats
    )
    value, reduced_s = _timed(
        lambda: reduced_value(reduce_indices(family, indices), SweepContext()), repeats
    )
    if value != naive_value:
        raise AssertionError(
            f"reduction changed the {report.family} value: {naive_value} != {value}"
        )
    return {
        "family": report.family,
        "indices": [list(p) for p in indices],
        "value": _json_value(naive_value),
        "weight_before": report.weight_before,
        "weight_after": report.weight_after,
        "naive_s": round(naive_s, 6),
        "reduced_s": round(reduced_s, 6),
    }
