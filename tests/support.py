"""Shared generators, brute-force oracles and the contract table of the suite.

`CONTRACTS` holds one row per public callable, and one for the stacked method
`AlignedBasisSet.member`.  Its columns are `scaling`, the Contract B degree
law or the reason a callable has none; `stacked`, the builder of a stacked
example and its explicit examples, or None; and `errors`, the callable's
error cases, each run by the test of its rule in ``test_kernels.py``.

The oracles deliberately avoid the production shortcuts: distances are
computed by explicitly building candidate matrices and taking norms, never by
the polar-factor identities they are used to check.
"""

import importlib
import math
import re
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import assume
from hypothesis import strategies as st

from subspace_align import (
    NORM_KINDS,
    DimensionMismatch,
    ExperimentConfig,
    InvalidBasis,
    InvalidInput,
    NumericalFailure,
    align,
    align_rotation,
    canonical_angles,
    check_orthonormal,
    default_delta_grid,
    eta,
    evaluate_instance,
    hadamard,
    make_pair,
    matrix_norm,
    optimal_representative,
    orthonormal_completion,
    pinning_matrix,
    polar,
    polar_factor_bound,
    sin_theta_norm,
    singular_values,
    svd,
    wedin_bound,
    xi,
)
from subspace_align.experiments import SIN_CROSS_CHECK_TOL, _closed_form, _delta
from subspace_align.kernels import _gauge, haar_orthogonal, random_orthonormal


def bench_module(name):
    """The module `name` of the benchmark's ``bench/`` directory, imported
    without writing bytecode there."""
    bench = str(Path(__file__).resolve().parent.parent / "bench")
    sys.path.insert(0, bench)
    writes, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        return importlib.import_module(name)
    finally:
        sys.dont_write_bytecode = writes
        sys.path.remove(bench)


#: Rank tolerance (relative to sigma_1) used when a test needs the exact-rank
#: regime: far above the rounding floor of computed products, far below any
#: genuine singular value of the instances built here.
RANK_RTOL = 1e-8


def reference_eta(kind, r, k, sigma_r, sigma_r_tilde, d_norm):
    """The bound coefficient as numpy evaluates it on float64 values, the
    formula `bounds.eta` must match bit for bit; no input checks.

    Overflow gives inf and (for `reference_xi`) inf * 0 gives NaN, silently.
    """
    s, st, d = (np.asarray(v, dtype=np.float64) for v in (sigma_r, sigma_r_tilde, d_norm))
    sqrt2 = math.sqrt(2.0)
    with np.errstate(all="ignore"):
        both = s + st
        largest = np.maximum(s, st)
        if r == k:
            out = sqrt2 * (1.0 + 2.0 * d / both)
        elif kind == "frobenius":
            out = sqrt2 * (1.0 + 2.0 * d / both) + 4.0 * d / largest
        elif kind == "spectral":
            out = (
                sqrt2
                + np.sqrt(8.0 * (d / both) ** 2 + 4.0 * (d / largest) ** 2)
                + 4.0 * d / largest
            )
        else:
            out = sqrt2 * (1.0 + 2.0 * d / both) + (2.0 * sqrt2 + 4.0) * d / largest
    return float(out)


def reference_xi(kind, r, k, sigma_r, sigma_r_tilde, d_norm, sin_theta):
    """``reference_eta(...) * sin_theta`` in float64."""
    with np.errstate(all="ignore"):
        coefficient = reference_eta(kind, r, k, sigma_r, sigma_r_tilde, d_norm)
        return float(np.asarray(coefficient) * np.asarray(sin_theta, dtype=np.float64))


def assert_self_consistent(rep):
    """`rep`'s ``eta``, ``xi`` and ``xi_sharpened`` are, bit for bit, what `eta`
    and `xi` give on the report's own fields, the sharpened bound on
    ``sin_theta_truncated``: a coefficient that `evaluate_instance` misstates
    fails here even where ``measured <= xi`` holds."""
    args = (rep.kind, rep.r, rep.k, rep.sigma_r, rep.sigma_r_tilde, rep.d_norm)
    sharpened = xi(*args, rep.sin_theta_truncated) if rep.r < rep.k else None
    expected = (eta(*args), xi(*args, rep.sin_theta), sharpened)
    got = (rep.eta, rep.xi, rep.xi_sharpened)
    assert list(map(bits, got)) == list(map(bits, expected)), (rep, expected)


def assert_scales(name, out, ref, e, degrees=None):
    """`out`, `name`'s result on an input scaled by 2**e, is bit for bit what
    its CONTRACTS scaling law makes of `ref`, its result on the input as it
    stands; returns `name`, so that a test can collect what it checked."""
    degrees = CONTRACTS[name].scaling if degrees is None else degrees
    if isinstance(degrees, tuple):
        assert len(out) == len(ref) == len(degrees), (name, out, ref)
        for got, want, each in zip(out, ref, degrees):
            assert_scales(name, got, want, e, each)
        return name
    fields = getattr(ref, "__dataclass_fields__", None)
    if isinstance(degrees, dict):
        degrees = {field: degrees.get(field, 0) for field in fields}
    else:
        degrees = dict.fromkeys(fields, degrees) if fields else {None: degrees}
    for field, degree in degrees.items():
        got, want = (out, ref) if field is None else (getattr(out, field), getattr(ref, field))
        if want is not None and degree:
            want = np.ldexp(want, e)
        assert bits(got) == bits(want), (name, field, e, got, want)
    return name


def bits(value):
    """The shape, dtype and bytes of an array or number, None for None, and a
    str as it is."""
    if value is None or isinstance(value, str):
        return value
    value = np.asarray(value)
    return value.shape, value.dtype.str, value.tobytes()


def row(result, i):
    """Row i of a stacked result: of an array, or of each field of a record,
    such as SvdFactors or AngleSpectrum, whose fields are arrays."""
    fields = getattr(result, "__dataclass_fields__", None)
    if fields is None:
        return result[i]
    return type(result)(**{name: getattr(result, name)[i] for name in fields})


def leaves(result):
    """The arrays, numbers, strings and Nones of a result, in order: a tuple
    or a list by its members, a record by its fields."""
    if isinstance(result, (tuple, list)):
        return [leaf for each in result for leaf in leaves(each)]
    fields = getattr(result, "__dataclass_fields__", None)
    if fields is None:
        return [result]
    return [leaf for name in fields for leaf in leaves(getattr(result, name))]


def error_of(call):
    """The class and message of what `call` raises, or None; a failed
    assertion is raised, not returned."""
    try:
        call()
    except AssertionError:
        raise
    except Exception as exc:
        return type(exc), str(exc)
    return None


SEEDS = st.integers(0, 2**64 - 1)


def philox(seed):
    """A generator of the Philox stream keyed by `seed`."""
    return np.random.Generator(np.random.Philox(key=seed))


@st.composite
def shapes(draw):
    """(n, k, r): n from k to 2k + 3, so n == k and 2k > n both come up, and
    the freedom k - r from 0 to 3."""
    k = draw(st.integers(1, 6))
    r = k - draw(st.integers(0, min(3, k - 1)))
    return draw(st.integers(k, 2 * k + 3)), k, r


#: Members at the orthonormality limit to add to a stack, each ``False`` (a
#: few ulps inside ``1e-12 * n``) or ``True`` (a few ulps outside it).
LIMITS = st.lists(st.booleans(), max_size=2)


def limit_members(rng, limits, n, k, r):
    """The pinning matrix and the bases of :func:`at_the_limit` that `limits`
    asks for; (None, []) at k == 1, whose Gram matrix is a scalar near 1, too
    coarse to place a defect by the ulp."""
    if not limits or k < 2:
        return None, []
    d, inside, outside = at_the_limit(rng, n, k, r)
    return d, [outside if limit else inside for limit in limits]


def inserted(rng, stack, members):
    """`stack` with each of `members` inserted at a random place."""
    for member in members:
        stack.insert(int(rng.integers(0, len(stack) + 1)), member)
    return stack


class Stack(NamedTuple):
    """``stacked()`` calls a form on a stack of `size` members, ``alone(i)`` on
    member i; a stack gives the positions `shared` of a tuple result once, not
    per member, and `bad` is the member built to fail alone, or None."""

    stacked: Callable
    alone: Callable
    size: int
    shared: tuple = ()
    bad: int | None = None


class Replay(dict):
    """An explicit example of a stacked builder: its draws by label, read
    where the builder reads a hypothesis ``data`` object."""

    def draw(self, strategy, label):
        return self[label]


def _layouts(call, layouts, bad=None):
    """The Stack of `call` on one stack given in each of `layouts`: every
    layout gives, stacked and member by member, the bits of the first."""

    def same(results):
        first, *rest = results
        for other in rest:
            assert list(map(bits, leaves(other))) == list(map(bits, leaves(first)))
        return first

    return Stack(lambda: same([call(stack) for stack in layouts]),
                 lambda i: same([call(stack[i]) for stack in layouts]), len(layouts[0]), bad=bad)


def _rank_stack(data, exponents=False):
    """m p-by-q matrices, each of a rank of its own, 0 too, and the member
    spoiled by a NaN, or None; with `exponents`, each scaled by 2**0 or by
    2**+-600, outside the kernels' range, where it is rescaled on its own."""
    rng = philox(data.draw(SEEDS, label="seed"))
    m = data.draw(st.integers(1, 5), label="m")
    p, q = data.draw(st.integers(1, 7), label="p"), data.draw(st.integers(1, 7), label="q")
    bs = [rank_matrix(rng, p, q, r) if r else np.zeros((p, q))
          for r in rng.integers(0, min(p, q) + 1, m)]
    if exponents:
        es = data.draw(st.lists(st.sampled_from([0, 0, -600, 600]), min_size=5, max_size=5),
                       label="exponents")
        bs = [np.ldexp(b, e) for b, e in zip(bs, es)]
    bad = data.draw(st.none() | st.integers(0, m - 1), label="bad")  # the member to spoil
    if bad is not None:
        bs[bad] = np.where(bs[bad] == bs[bad].max(), np.nan, bs[bad])
    return bs, bad


def _memory_layouts(bs):
    """`bs` as a list and as a stack, each C-ordered, Fortran-ordered and strided: a
    member of a Fortran stack is neither C- nor F-contiguous."""
    wide = np.repeat(np.array(bs), 2, axis=-1)
    return [bs, np.array(bs), np.asfortranarray(bs), [np.asfortranarray(b) for b in bs],
            wide[..., ::2], [each[:, ::2] for each in wide]]


def _svd_stack(data):
    rtol = data.draw(st.sampled_from([None, RANK_RTOL, 0.5]), label="rtol")
    bs, bad = _rank_stack(data)
    return _layouts(lambda b: svd(b, rtol=rtol), [bs, np.array(bs)], bad)


def _shaped(out, stack, *shapes):
    """`out`, each of whose arrays has the leading axes of `stack` and then the
    shape of its place in `shapes`."""
    for each, shape in zip(out if isinstance(out, tuple) else (out,), shapes, strict=True):
        assert np.shape(each) == np.shape(stack)[:-2] + shape, (np.shape(each), shape)
    return out


def _singular_values_stack(data):
    bs, bad = _rank_stack(data, exponents=True)
    top = (min(bs[0].shape),)
    return _layouts(lambda b: _shaped(singular_values(b), b, top), _memory_layouts(bs), bad)


def _matrix_norm_stack(data):
    # the kinds in a drawn order: a stack with a failing member is checked on the first
    kinds = data.draw(st.permutations(NORM_KINDS), label="kinds")
    bs, bad = _rank_stack(data, exponents=True)
    return _layouts(lambda b: _shaped(tuple(matrix_norm(b, kind) for kind in kinds), b, *[()] * 3),
                    _memory_layouts(bs), bad)


def _member_stack(data):
    rng = philox(data.draw(SEEDS, label="seed"))
    # a 6-by-3 pinned family of rank 1, so of freedom 2
    d = rank_matrix(rng, 6, 3, 1)
    member = align(random_orthonormal(6, 3, rng), d, rtol=RANK_RTOL)[1].member
    ws = haar_stack(2, 2, rng)
    return Stack(lambda: member(ws), lambda i: member(ws[i]), 2)


def _optimal_representative_stack(data):
    n, k, r = data.draw(shapes(), label="shape")
    rng, m = philox(data.draw(SEEDS, label="seed")), data.draw(st.integers(1, 4), label="m")
    _, aset = align(random_orthonormal(n, k, rng), rank_matrix(rng, n, k, r), rtol=RANK_RTOL)
    bases = [random_orthonormal(n, k, rng) for _ in range(m)]
    bad = data.draw(st.none() | st.integers(0, m - 1), label="bad")
    if bad is not None:
        bases[bad] = 1.5 * bases[bad]
    shaped = (n, k), (aset.freedom,) * 2
    return _layouts(lambda b: _shaped(optimal_representative(aset, b), b, *shaped),
                    [bases, np.array(bases)], bad)


def _pinned_stack(data):
    """``(x, a stack of bases near x, d)``, all pinned at rank r, with members at
    the orthonormality limit inserted where `LIMITS` asks for them."""
    n, k, r = data.draw(shapes(), label="shape")
    rng, m = philox(data.draw(SEEDS, label="seed")), data.draw(st.integers(1, 4), label="m")
    d = rank_matrix(rng, n, k, r)
    limit_d, members = limit_members(rng, data.draw(LIMITS, label="limits"), n, k, r)
    d = d if limit_d is None else limit_d
    x_any = random_orthonormal(n, k, rng)
    x, sx = align(x_any, d, rtol=RANK_RTOL)
    stack = []
    for _ in range(m):
        eps = 10.0 ** rng.uniform(-8, -0.2)
        y, sy = align(np.linalg.qr(x_any + eps * rng.standard_normal((n, k)))[0], d, rtol=RANK_RTOL)
        assume(sy.r == r and sy.sigma_r >= 1e-6)
        stack.append(y)
    assume(sx.r == r and sx.sigma_r >= 1e-6)
    return x, inserted(rng, stack, members), d


def _canonical_angles_stack(data):
    x, stack, _ = _pinned_stack(data)
    return Stack(lambda: canonical_angles(x, stack), lambda i: canonical_angles(x, stack[i]),
                 len(stack))


def _evaluate_instance_stack(data):
    x, stack, d = _pinned_stack(data)
    return Stack(lambda: evaluate_instance(x, np.array(stack), d, NORM_KINDS, rtol=RANK_RTOL),
                 lambda i: evaluate_instance(x, stack[i], d, NORM_KINDS, rtol=RANK_RTOL),
                 len(stack))


def _draws(form):
    """The builder of the Stack of ``form(n, k, generators)`` over m Philox
    streams ``(seed, i)``, each generator left where its own draw leaves it."""

    def build(data):
        seed, m = data.draw(SEEDS, label="seed"), data.draw(st.integers(1, 6), label="m")
        n, k = data.draw(st.integers(1, 9), label="n"), data.draw(st.integers(1, 9), label="k")
        assume(k <= n)

        def streams():
            return [philox(np.array([seed, i], dtype=np.uint64)) for i in range(m)]

        def stacked():
            generators = streams()
            many = form(n, k, generators)
            for i, generator in enumerate(generators):
                alone = streams()[i]
                form(n, k, alone)
                assert repr(generator.bit_generator.state) == repr(alone.bit_generator.state)
            return many

        return Stack(stacked, lambda i: form(n, k, streams()[i]), m)

    return build


def _make_pair_stack(data):
    n, k = data.draw(st.sampled_from([(2, 1), (4, 2), (8, 3), (12, 5), (20, 4), (32, 3)]),
                     label="size")
    config = ExperimentConfig(n=n, k=k, seed=data.draw(SEEDS, label="seed"))
    index = data.draw(st.integers(0, 50), label="index")
    deltas = list(data.draw(st.lists(st.floats(0.0, 1.0) | st.sampled_from([0.0, 1.0, 1e-12]),
                                     min_size=1, max_size=5), label="deltas"))
    bad = data.draw(st.none() | st.integers(0, len(deltas) - 1), label="bad")
    if bad is not None:
        deltas[bad] = data.draw(st.sampled_from([1.5, -0.1, "abc"]), label="bad delta")
    # x_diamond, the same at every delta, is given once
    return Stack(lambda: make_pair(config, tuple(deltas), index=index),
                 lambda i: make_pair(config, deltas[i], index=index + i), len(deltas), (0,), bad)


class Error(NamedTuple):
    """`call`, given the arguments of the test of `rule`, gives exactly a `cls`,
    raised or returned, whose text matches `message` from its start; the
    test's id of the case is the row's name followed by `case`."""

    rule: str
    case: str
    call: Callable
    cls: type
    message: str


def _lapack(routine, setup):
    """``setup()`` gives a call that reaches ``numpy.linalg.<routine>``, made to
    fail there; the setting up, which may take the same routine, comes first."""

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError(f"{routine} did not converge")

    def failing(monkeypatch):
        call = setup()
        monkeypatch.setattr(np.linalg, routine, fail)
        call()

    return _case("lapack", "", routine, failing)


#: Each rule's exception class and message pattern, of the argument or
#: routine a case names; the test of each rule in ``test_kernels.py`` says
#: what its cases pass.
_RULES = {
    "lapack": (NumericalFailure, "numpy.linalg.{} failed: "),
    "range": (InvalidBasis, r"{} is not orthonormal: \|\|x\.T x - I\|\|_F = inf > "),
    "integer": (InvalidInput, "{} must be an integer, got "),
    "key": (InvalidInput, "{} must "),
    "unaddressable": (InvalidInput, r"a \d+(x\d+)+ array cannot be addressed\Z"),
    "rtol": (InvalidInput, "rtol must be a real scalar"),
    "matrix": (InvalidInput, "{} must be a real numeric array"),
}


def _case(rule, case, name, call):
    cls, message = _RULES[rule]
    return Error(rule, case, call, cls, message.format(name))


def _raises(case, cls, message, call):
    """`call` raises exactly `cls` with exactly `message`."""
    return Error("raise", case, call, cls, re.escape(message) + r"\Z")


def error_cases(rule):
    """Every error case of `rule` in CONTRACTS, as pytest params."""
    return [pytest.param(error, id=name + error.case)
            for name, row in CONTRACTS.items() for error in row.errors if error.rule == rule]


def assert_error(error, *args):
    """`error.call(*args)` gives its typed result, with no warning on the way."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = error.call(*args)
        except Exception as exc:
            result = exc
    assert type(result) is error.cls and re.match(error.message, str(result)), (error, result)


#: A basis, pinned by itself: its product with itself is the identity.
PLANE = np.eye(3)[:, :2]
_HUGE = np.eye(4, 2) * 1e200  # its Gram matrix overflows
_SMALL = ExperimentConfig(n=8, k=2, deltas=(0.1,))


def _closest_member_call():
    x = np.eye(4, 2)
    _, aset = align(x, np.diag([1.0, 0.0])[[0, 1, 1, 1]])  # rank 1 of 2: freedom 1
    return lambda: optimal_representative(aset, x)


def _pinned_pair_call():
    d = pinning_matrix(8, 2)
    x, _ = align(np.eye(8, 2), d)
    return lambda: evaluate_instance(x, x, d, "trace")


class Contract(NamedTuple):
    """A row of CONTRACTS.  `scaling` is the Contract B law, the degree of 2**e
    that each output gains when the scaled input is multiplied by 2**e (the
    matrix of a kernel, both of a pair, `d` of `align` and `evaluate_instance`,
    ``(sigma_r, sigma_r_tilde, d_norm)`` of `eta` and `xi`): 0 is the same
    bits, 1 the bits times 2**e, by an int for the whole result, a dict per
    field (0 for the rest) or a tuple per element; or a str, why there is no
    law.  `stacked` is ``(build, examples)``: ``build(data)`` draws a Stack
    from a hypothesis ``data`` object, an example its draws by label."""

    scaling: object
    stacked: tuple | None = None
    errors: tuple = ()


_RECORD = "a record of results or settings that a function of this table fills"
_ERROR = "an exception class: it carries a message, not a number"
_BASES = "takes orthonormal bases, which a scale other than 1 makes invalid"
_SIZES = "takes sizes, seeds and generators, none of which scales"
_TEXT = "matrix text: every float64 round-trips exactly at every scale"
_RANK_EXAMPLES = [dict(seed=0, m=1, p=3, q=2, exponents=[0] * 5, bad=None),
                  dict(seed=0, m=1, p=4, q=3, exponents=[600] * 5, bad=None),
                  dict(seed=1, m=4, p=6, q=4, exponents=[600, 0, -600, 0, 0], bad=None)]
_PINNED_EXAMPLES = [dict(shape=(4, 4, 4), seed=0, m=2, limits=[]),
                    dict(shape=(5, 3, 2), seed=1, m=3, limits=[]),
                    dict(shape=(11, 6, 3), seed=2, m=4, limits=[]),
                    dict(shape=(7, 3, 2), seed=3, m=1, limits=[False]),
                    dict(shape=(6, 4, 4), seed=4, m=2, limits=[False, True])]

#: One row per public callable, and one for the stacked method `member`.
CONTRACTS = {
    **dict.fromkeys(("SvdFactors", "CanonicalPolar", "AlignedBasisSet", "WedinBounds",
                     "PolarFactorBounds", "BoundReport", "SweepRow", "AngleSpectrum"),
                    Contract(_RECORD)),
    **dict.fromkeys(("SubspaceAlignError", "InvalidInput", "DimensionMismatch", "ShapeError",
                     "InvalidBasis", "UnsupportedOrder", "RankMismatch", "NotAligned",
                     "NumericalFailure"), Contract(_ERROR)),
    **dict.fromkeys(("format_matrix", "parse_matrix", "save_matrix", "load_matrix"),
                    Contract(_TEXT)),
    "ExperimentConfig": Contract(_RECORD, errors=(
        _case("integer", "-seed", "seed", lambda: ExperimentConfig(seed=1.5)),
        _case("integer", "-seed-bool", "seed", lambda: ExperimentConfig(seed=True)),
        _case("key", "-seed-negative", "seed", lambda: ExperimentConfig(seed=-1)),
        _case("key", "-seed-2**64", "seed", lambda: ExperimentConfig(seed=2**64)),
    )),
    "svd": Contract(
        {"u": 0, "v": 0, "numerical_rank": 0, "sigma": 1, "rank_tolerance": 1},
        (_svd_stack, [dict(seed=0, m=1, p=3, q=2, rtol=None, bad=None),
                      dict(seed=1, m=4, p=6, q=4, rtol=RANK_RTOL, bad=None)]),
        (_raises("-no-rows", InvalidInput, "b must be at least 1x1, got shape (0, 3)",
                 lambda: svd(np.zeros((0, 3)))),
         _case("rtol", "", None, lambda rtol: svd(PLANE, rtol=rtol)),
         _case("matrix", "", "b", svd))),
    "singular_values": Contract(1, (_singular_values_stack, _RANK_EXAMPLES),
                                (_case("matrix", "", "b", singular_values),)),
    "matrix_norm": Contract(
        1, (_matrix_norm_stack, [dict(each, kinds=NORM_KINDS) for each in _RANK_EXAMPLES]),
        (Error("range", "-trace", lambda: matrix_norm(np.eye(4, 2) * 1.7e308, "trace"),
               float, r"inf\Z"),  # a norm past the float range is an inf
         _case("matrix", "", "b", lambda a: matrix_norm(a, "trace")))),
    "polar": Contract({"q": 0, "r": 0, "h": 1, "sigma_r": 1}, errors=(
        _case("rtol", "", None, lambda rtol: polar(PLANE, rtol=rtol)),)),
    "wedin_bound": Contract(0, errors=(
        _case("integer", "", "r", lambda: wedin_bound(np.eye(3), np.eye(3), 3.0, "spectral")),
        _raises("", InvalidInput, "rank r must be at least 1",
                lambda: wedin_bound(np.eye(3), np.eye(3), 0, "spectral")))),
    "polar_factor_bound": Contract(0, errors=(
        _raises("", InvalidInput, "both matrices are numerically zero",
                lambda: polar_factor_bound(np.zeros((3, 2)), np.zeros((3, 2)), "trace")),
        _case("rtol", "", None,
              lambda rtol: polar_factor_bound(PLANE, PLANE, "trace", rtol=rtol)))),
    "align": Contract((0, {"sigma_r": 1, "rank_tolerance": 1}), errors=(
        _case("range", "", "x_any", lambda: align(_HUGE, np.eye(4, 2))),
        _case("rtol", "", None, lambda rtol: align(PLANE, PLANE, rtol=rtol)),
        _case("matrix", "", "x_any", lambda a: align(a, PLANE)))),
    "AlignedBasisSet.member": Contract(_BASES, (_member_stack, [dict(seed=0)]), (
        _case("matrix", "", "w", lambda a: align(PLANE, PLANE)[1].member(a)),)),
    "evaluate_instance": Contract(
        {"sigma_r": 1, "sigma_r_tilde": 1, "d_norm": 1, "rank_tolerance": 1},
        (_evaluate_instance_stack, _PINNED_EXAMPLES),
        (_lapack("eigvalsh", _pinned_pair_call),
         _case("rtol", "", None, lambda rtol: evaluate_instance(
             PLANE, PLANE, PLANE, "trace", rtol=rtol)),
         _case("matrix", "", "x_tilde", lambda a: evaluate_instance(PLANE, a, PLANE, "trace")))),
    "eta": Contract(0, errors=(
        _case("integer", "-r", "r", lambda: eta("spectral", 2.9, 3, 0.5, 0.5, 1.0)),
        _case("integer", "-k", "k", lambda: eta("spectral", 2, 3.5, 0.5, 0.5, 1.0)),
        _case("integer", "-bool", "r", lambda: eta("spectral", True, 3, 0.5, 0.5, 1.0)))),
    "xi": Contract(0),
    "optimal_representative": Contract(
        _BASES, (_optimal_representative_stack, [dict(shape=(4, 4, 4), seed=0, m=1, bad=None),
                                                 dict(shape=(7, 4, 2), seed=1, m=3, bad=None)]),
        (_lapack("svd", _closest_member_call),
         _raises("", DimensionMismatch, "basis shapes differ: (6, 3) vs (7, 3)",
                 lambda: optimal_representative(align(np.eye(6, 3), pinning_matrix(6, 3, 1))[1],
                                                np.eye(7, 3))))),
    "check_orthonormal": Contract(_BASES, errors=(
        _case("range", "", "x", lambda: check_orthonormal(_HUGE)),
        _raises("-no-columns", InvalidInput, "x must be at least 1x1, got shape (3, 0)",
                lambda: check_orthonormal(np.zeros((3, 0)))),
        _case("matrix", "", "x", check_orthonormal))),
    "orthonormal_completion": Contract(_BASES, errors=(
        _case("range", "", "x", lambda: orthonormal_completion(_HUGE)),)),
    "canonical_angles": Contract(_BASES, (_canonical_angles_stack, _PINNED_EXAMPLES), (
        _lapack("svd", lambda: lambda: canonical_angles(np.eye(4, 2), np.eye(4, 2))),
        _case("range", "", "x", lambda: canonical_angles(_HUGE, np.eye(4, 2))),
        _case("range", "-stack", "y",
              lambda: canonical_angles(np.eye(4, 2), [np.eye(4, 2), _HUGE])),
        _case("matrix", "", "y", lambda a: canonical_angles(PLANE, a)))),
    "align_rotation": Contract(_BASES, errors=(
        _lapack("svd", lambda: lambda: align_rotation(np.eye(4, 2), np.eye(4, 2))),
        _case("range", "", "x", lambda: align_rotation(_HUGE, np.eye(4, 2))))),
    "hadamard": Contract(_SIZES, errors=(
        _case("integer", "-bool", "n", lambda: hadamard(True)),
        _case("integer", "-columns", "columns", lambda: hadamard(8, 2.0)),
        _case("integer", "-columns-bool", "columns", lambda: hadamard(8, True)),
        _case("unaddressable", "", None, lambda: hadamard(2**64)),
        _case("unaddressable", "-columns", None, lambda: hadamard(2**62, 1)))),
    "haar_orthogonal": Contract(
        _SIZES, (_draws(lambda n, k, rng: haar_orthogonal(k, rng)), [dict(seed=0, m=1, n=3, k=3)]),
        (_case("integer", "", "size", lambda: haar_orthogonal(2.5, None)),
         _case("integer", "-bool", "size", lambda: haar_orthogonal(True, None)),
         _raises("", InvalidInput, "size must be nonnegative",
                 lambda: haar_orthogonal(-1, np.random.default_rng(0))),
         _case("unaddressable", "", None,
               lambda: haar_orthogonal(2**64, np.random.default_rng(0))))),
    "random_orthonormal": Contract(
        _SIZES, (_draws(random_orthonormal), [dict(seed=0, m=1, n=3, k=3)]),
        (_case("integer", "", "n", lambda: random_orthonormal(10.9, 3, None)),
         _case("integer", "-bool", "k", lambda: random_orthonormal(10, True, None)),
         _raises("", InvalidInput, "need 1 <= k <= n, got n=3, k=4",
                 lambda: random_orthonormal(3, 4, np.random.default_rng(0))),
         _case("unaddressable", "", None,
               lambda: random_orthonormal(2**64, 1, np.random.default_rng(0))),
         _case("unaddressable", "-stack", None, lambda: random_orthonormal(
             2**57, 1, [np.random.default_rng(0)] * 8)))),  # addressable alone, not stacked
    "default_delta_grid": Contract(_SIZES, errors=(
        _case("integer", "", "points", lambda: default_delta_grid(points=3.0)),
        _raises("", InvalidInput, "need at least 2 grid points", lambda: default_delta_grid(1)))),
    "pinning_matrix": Contract(_SIZES, errors=(
        _case("integer", "-n", "n", lambda: pinning_matrix(8.7, 3)),
        _case("integer", "", "zero_last", lambda: pinning_matrix(8, 3, zero_last=1.6)),
        _case("integer", "-bool", "zero_last", lambda: pinning_matrix(8, 3, zero_last=True)),
        _case("unaddressable", "", None, lambda: pinning_matrix(2**64, 1)))),
    "make_pair": Contract(
        _SIZES, (_make_pair_stack, [dict(size=(4, 2), seed=0, index=0, deltas=[0.5], bad=None)]),
        (_case("integer", "", "index", lambda: make_pair(_SMALL, 0.1, index=1.5)),
         _case("integer", "-bool", "index", lambda: make_pair(_SMALL, 0.1, index=True)),
         _case("key", "-index-negative", "index", lambda: make_pair(_SMALL, 0.1, index=-1)),
         _case("key", "-index-2**63", "index", lambda: make_pair(_SMALL, 0.1, index=2**63)))),
    "run_sweep": Contract(_SIZES),
    "sin_theta_norm": Contract("takes sines, which must lie in [0, 1]: most scales are no input"),
    "main": Contract("the command line: text in and out, through the functions of this table"),
    "loglog_svg": Contract("draws a plot on log axes, as text"),
    "write_loglog_svg": Contract("draws a plot on log axes, as a file"),
}


def rank_matrix(rng, m, n, r, smin=0.3, smax=3.0):
    """m-by-n matrix with exact rank r and singular values in [smin, smax]."""
    u = random_orthonormal(m, r, rng)
    v = random_orthonormal(n, r, rng)
    s = np.sort(rng.uniform(smin, smax, r))[::-1]
    return (u * s) @ v.T


def equal_rank_pair(rng, m, n, r, scale=0.1):
    """Pair (b, b_tilde) of exact rank r with a small generic difference.

    The perturbed matrix is the best rank-r truncation of b plus noise whose
    spectral norm stays below sigma_r(b), so both ranks are r by Weyl's
    inequality.
    """
    b = rank_matrix(rng, m, n, r)
    sigma_r = np.linalg.svd(b, compute_uv=False)[r - 1]
    e = rng.standard_normal((m, n))
    e *= scale * sigma_r / np.linalg.norm(e, 2)
    u, s, vt = np.linalg.svd(b + e)
    bt = (u[:, :r] * s[:r]) @ vt[:r]
    return b, bt


def subspace_pair(rng, n, k, eps=None):
    """Two orthonormal bases whose spans differ by a perturbation of size eps."""
    if eps is None:
        eps = 10.0 ** rng.uniform(-8, -0.2)
    x = random_orthonormal(n, k, rng)
    y, _ = np.linalg.qr(x + eps * rng.standard_normal((n, k)))
    return x, y


def at_the_limit(rng, n, k, r):
    """A rank-r pinning matrix d and two n-by-k bases, k >= 2, a few ulps
    apart at the orthonormality limit, ``1e-12 * n`` on ``||x.T x - I||_F``.

    Both are ``I + t s`` on the k rows where d holds ``q diag(l) q.T`` and zero
    elsewhere, with s symmetric of zero diagonal; the bisection on t leaves
    ``check_orthonormal`` accepting the first and rejecting the second at
    adjacent floats t.  Their products with d, ``(I + t s) q diag(l) q.T``,
    are symmetric PSD to within about 1e-11 ``||d||_2``, so both are pinned.
    """
    rows = rng.permutation(n)[:k]
    q = random_orthonormal(k, k, rng)
    d = np.zeros((n, k))
    d[rows] = (q * np.concatenate([rng.uniform(0.3, 3.0, r), np.zeros(k - r)])) @ q.T
    s = rng.standard_normal((k, k))
    s += s.T
    np.fill_diagonal(s, 0.0)
    s /= np.linalg.norm(s)  # ||x.T x - I||_F is about 2t

    def basis(t):
        x = np.zeros((n, k))
        x[rows] = np.eye(k) + t * s
        return x

    def accepted(t):
        try:
            check_orthonormal(basis(t))
        except InvalidBasis:
            return False
        return True

    lo, hi = 0.0, 1e-12 * n
    assert accepted(lo) and not accepted(hi)
    while (mid := (lo + hi) / 2) not in (lo, hi):
        lo, hi = (mid, hi) if accepted(mid) else (lo, mid)
    return d, basis(lo), basis(hi)


def aligned_instance(rng, k_range=(3, 8), n_max=64, drops=(0, 1, 2)):
    """One pinned pair sharing rank r = k - drop, or None to redraw.

    Returns (x, x_tilde, d, r, k) with both products PSD of the same rank and
    the smallest positive singular values comfortably above the rank
    tolerance, so the instance is unambiguous.
    """
    k = int(rng.integers(k_range[0], k_range[1] + 1))
    n = int(rng.integers(2 * k, n_max + 1))
    r = k - int(rng.choice(drops))
    d = rank_matrix(rng, n, k, r)
    x_any, y_any = subspace_pair(rng, n, k)
    x, sx = align(x_any, d, rtol=RANK_RTOL)
    y, sy = align(y_any, d, rtol=RANK_RTOL)
    if sx.r != r or sy.r != r or min(sx.sigma_r, sy.sigma_r) < 1e-6:
        return None
    return x, y, d, r, k


def draw_aligned_instance(rng, **kwargs):
    """Like aligned_instance but retries until a robust instance appears."""
    while True:
        inst = aligned_instance(rng, **kwargs)
        if inst is not None:
            return inst


def _chunked_min_distance(aset, target, ws, kind):
    """Smallest norm(target - member(w)) over a stack of freedom matrices."""
    best = np.inf
    base, fl, fr = aset.base, aset.freedom_left, aset.freedom_right
    for start in range(0, ws.shape[0], 2048):
        chunk = ws[start : start + 2048]
        members = base[None, :, :] + fl @ chunk @ fr.T
        diffs = target[None, :, :] - members
        if kind == "frobenius":
            vals = np.sqrt((diffs * diffs).sum(axis=(1, 2)))
        else:
            sv = np.linalg.svd(diffs, compute_uv=False)
            vals = sv[:, 0] if kind == "spectral" else sv.sum(axis=1)
        best = min(best, float(vals.min()))
    return best


def haar_stack(size, count, rng):
    """`count` Haar-orthogonal matrices of the given size as one stack.

    The same draws, bit for bit, as `count` successive
    ``haar_orthogonal(size, rng)`` calls, leaving `rng` in the same state: the
    Gaussian entries leave the stream in the same order, the stacked QR
    factors each matrix on its own, and the signs of each R diagonal are
    fixed the same way.
    """
    q, r = np.linalg.qr(rng.standard_normal((count, size, size)))
    signs = np.sign(np.diagonal(r, axis1=1, axis2=2))
    signs[signs == 0] = 1.0
    return q * signs[:, None, :]


def rotation_grid(n_grid):
    """Every 2x2 orthogonal matrix on an n_grid-point angle grid."""
    phi = np.linspace(0.0, 2.0 * np.pi, n_grid, endpoint=False)
    c, s = np.cos(phi), np.sin(phi)
    rot = np.stack(
        [np.stack([c, -s], axis=1), np.stack([s, c], axis=1)], axis=1
    )
    refl = rot.copy()
    refl[:, :, 1] *= -1.0
    return np.concatenate([rot, refl], axis=0)


def brute_min_distance(aset, target, kind="frobenius", n_grid=0, n_samples=0, rng=None):
    """Brute-force min distance from target to the family, by enumeration.

    For freedom 2 a dense rotation/reflection grid covers the whole family;
    Haar samples extend the search for any freedom size.  Explicit member
    construction throughout.
    """
    free = aset.freedom
    if free == 0:
        return matrix_norm(target - aset.base, kind)
    if free == 1:
        return min(
            matrix_norm(target - aset.member(np.array([[s]])), kind)
            for s in (1.0, -1.0)
        )
    best = np.inf
    if n_grid and free == 2:
        best = min(best, _chunked_min_distance(aset, target, rotation_grid(n_grid), kind))
    if n_samples:
        ws = haar_stack(free, n_samples, rng)
        best = min(best, _chunked_min_distance(aset, target, ws, kind))
    return best


#: Relative tolerance for the factored, exactly cancelling sine computation.
CLOSED_FORM_RTOL = 1e-9


@dataclass(frozen=True)
class ClosedFormCheck:
    """Outcome of :func:`verify_closed_form` for one delta."""

    delta: float
    closed: dict
    computed: dict
    assembled: dict
    max_relative_error: float


def verify_closed_form(config, delta):
    """Regression check of sine accuracy for the Hadamard pair construction.

    Two computations are checked against the closed forms ``(delta,
    sqrt(k) * delta, k * delta)``:

    * the factored path: the 2k Hadamard columns used satisfy ``c.T @ c ==
      n * I`` (checked exactly in integer arithmetic), so the complement
      product of the pair reduces to ``delta * q2`` with no cancellation, and
      its sines keep full *relative* accuracy at any delta and must match to
      relative `CLOSED_FORM_RTOL`;
    * the general-purpose angle routine on the assembled matrices, whose
      accuracy is capped near 1e-15 absolute once the pair is rounded to
      float64, held to an absolute-plus-relative 1e-9 band.

    Raises AssertionError naming the norm kind and delta on any breach.
    """
    n, k = config.n, config.k
    delta = _delta(delta)  # a scalar: a tuple would ask make_pair for many pairs
    x_diamond, x_tilde_diamond, _, q2 = make_pair(config, delta)

    # x_tilde_diamond = (cos * c[:, :k] @ q1 + delta * c[:, k:] @ q2) / sqrt(n).
    # With c.T @ c == n * I, a complement basis of x_diamond can start with
    # c[:, k:] / sqrt(n), and its product with x_tilde_diamond is then
    # [delta * q2; 0] exactly: the sines are the singular values of delta * q2.
    c = hadamard(n, 2 * k)
    if not np.array_equal(c.T @ c, n * np.eye(2 * k, dtype=np.int64)):
        raise AssertionError(f"the first {2 * k} Hadamard columns are not orthogonal")
    sines = np.linalg.svd(delta * q2, compute_uv=False)

    assembled_angles = canonical_angles(x_diamond, x_tilde_diamond)
    closed, computed, assembled = {}, {}, {}
    worst = 0.0
    for kind in config.norms:
        closed[kind] = _closed_form(kind, k, delta)
        computed[kind] = _gauge(sines, kind)
        assembled[kind] = sin_theta_norm(assembled_angles, kind)
        if closed[kind] == 0.0:
            if computed[kind] > 1e-12:
                raise AssertionError(
                    f"{kind} at delta=0: factored value {computed[kind]:.3e} != 0"
                )
        else:
            rel = abs(computed[kind] - closed[kind]) / closed[kind]
            worst = max(worst, rel)
            if rel > CLOSED_FORM_RTOL:
                raise AssertionError(
                    f"{kind} at delta={delta}: factored value {computed[kind]!r} "
                    f"differs from closed form {closed[kind]!r} by relative {rel:.3e}"
                )
        band = SIN_CROSS_CHECK_TOL * (1.0 + closed[kind])
        if abs(assembled[kind] - closed[kind]) > band:
            raise AssertionError(
                f"{kind} at delta={delta}: assembled value {assembled[kind]!r} "
                f"outside the {band:.3e} band around {closed[kind]!r}"
            )
    return ClosedFormCheck(
        delta=delta,
        closed=closed,
        computed=computed,
        assembled=assembled,
        max_relative_error=worst,
    )


def reference_parse_matrix(text):
    """`matrixio.parse_matrix` as it read files before it used `np.loadtxt`:
    ``int()`` and ``float()`` over a Python walk of the lines.  The reader must
    match it value for value and message for message."""
    if not text.isascii():  # int() and float() read other scripts' digits and spaces
        raise InvalidInput(f"not an ASCII matrix file: {_reference_non_ascii_line(text)}")
    rows = cols = None
    tokens = []  # every value token, converted in one pass at the end
    data = []  # (line number, line) of each data row
    for lineno, raw in enumerate(_reference_lines(text), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if rows is None:
            parts = line.split()
            if len(parts) != 2:
                raise InvalidInput(f"line {lineno}: expected header 'rows cols'")
            try:
                if "_" in line:  # int() would read "1_0" as 10
                    raise ValueError("digit-group underscore")
                rows, cols = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise InvalidInput(f"line {lineno}: bad header {line!r}") from exc
            if rows < 1 or cols < 1:
                raise InvalidInput(f"line {lineno}: dimensions must be positive")
            continue
        parts = line.split()
        if len(parts) != cols:
            _reference_floats(tokens, data)  # a bad number on an earlier row comes first
            raise InvalidInput(
                f"line {lineno}: expected {cols} values, got {len(parts)}"
            )
        tokens += parts
        data.append((lineno, line))
        if len(data) > rows:
            _reference_floats(tokens, data)
            raise InvalidInput(f"line {lineno}: more than {rows} data rows")
    if rows is None:
        raise InvalidInput("no header line found")
    a = np.array(_reference_floats(tokens, data), dtype=np.float64)
    if len(data) != rows:
        raise InvalidInput(f"expected {rows} data rows, got {len(data)}")
    if not np.all(np.isfinite(a)):
        raise InvalidInput("matrix contains non-finite entries")
    return a.reshape(rows, cols)


def _reference_lines(text):
    """The lines of `text`, each ended only by LF, CR LF or CR.

    str.splitlines also ends a line at \\v, \\f and \\x1c to \\x1e.
    """
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def _reference_non_ascii_line(text):
    """``line N: ...`` naming the first line of `text` that is not ASCII."""
    for lineno, raw in enumerate(_reference_lines(text), start=1):
        if not raw.isascii():
            return f"line {lineno}: non-ASCII character in {raw!r}"


def _reference_floats(tokens, data):
    """The tokens as floats; on a bad one, InvalidInput naming its line."""
    try:
        if any("_" in line for _, line in data):  # float() reads "1_0" as 10
            raise ValueError("digit-group underscore")
        return list(map(float, tokens))
    except ValueError:
        for lineno, line in data:
            try:
                if "_" in line:
                    raise ValueError("digit-group underscore")
                list(map(float, line.split()))
            except ValueError as exc:
                raise InvalidInput(f"line {lineno}: bad number in {line!r}") from exc
        raise
