"""One rule for numeric parameters and one for vector and matrix arguments, checked at
every public entry point that takes one.

An integer parameter is any integer but a bool, numpy's included; a real one is any
real number but a bool that is finite as a float. A vector or matrix argument is a numpy
array of integers or floats, or nested sequences of real numbers but bools, finite and
nonempty. A refused value raises the entry's documented error class with "<name> must"
in its message, and a numpy number or array builds exactly what the Python value of the
same numbers builds.
"""

import json
import math
import pathlib
import re

import numpy as np
import pytest

from classm import (
    BadArgument,
    BadParams,
    ClassUWitness,
    EpsilonSchedule,
    InvalidMatrix,
    JetPoint,
    NotInClassM,
    SampleConfig,
    SymmetricMatrix,
    block_compose,
    block_extract,
    class_u_constant,
    counterexample,
    eig_sum,
    eigen_decompose,
    elementary_symmetric,
    gamma_k_member,
    generate_admissible,
    hessian_blocks,
    k_hessian,
    lemma_upper_bound,
    linear_uniform,
    loewner_leq,
    matrix_from_json_obj,
    odd_root_monotone,
    operator_norm,
    p_laplace,
    p_laplace_homog,
    quadratic_doubling,
    sums,
    unit_jet,
    verify_eq1,
    witness_eig_sum,
    witness_p_laplace,
)
from classm import cli, operators
from classm.operators import _jsonable

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "classm"

_BLOCKS = hessian_blocks(quadratic_doubling(1.0, 2))
_SCHEDULE = EpsilonSchedule.geometric(1.0, 0.5, 4)
_FAMILY = generate_admissible(_BLOCKS, _SCHEDULE)
_I2, _Z2 = SymmetricMatrix.identity(2), SymmetricMatrix.zero(2)
_JET1 = JetPoint([0.0], 1.0, [1.0])  # F = c at X = 0 for linear_uniform
_G1 = witness_p_laplace(4.0, unit_jet(2))[0]


# (entry point, parameter, name in the message, error class, call with the value,
#  accepted Python values). An integer parameter lists ints only.
ENTRIES = [
    ("SampleConfig", "seed", "seed", BadArgument, lambda v: SampleConfig(seed=v), (7,)),
    ("SampleConfig", "trials", "trials", BadArgument,
     lambda v: SampleConfig(seed=0, trials=v), (20,)),
    ("SampleConfig", "dim", "dim", BadArgument, lambda v: SampleConfig(seed=0, dim=v), (2,)),
    ("SampleConfig", "scale", "scale", BadArgument,
     lambda v: SampleConfig(seed=0, scale=v), (2, 0.5)),
    ("quadratic_doubling", "alpha", "alpha", BadParams,
     lambda v: quadratic_doubling(v, 2), (2, 0.5)),
    ("quadratic_doubling", "dim", "dim", BadParams, lambda v: quadratic_doubling(1.0, v), (3,)),
    ("TestFunction", "alpha", "alpha", BadParams, lambda v: sums.TestFunction(v, 2), (2, 0.5)),
    ("TestFunction", "dim", "dim", BadParams, lambda v: sums.TestFunction(1.0, v), (3,)),
    ("EpsilonSchedule", "eps0", "eps0", BadArgument,
     lambda v: EpsilonSchedule(v, (0.5,)), (2, 0.75)),
    ("EpsilonSchedule", "values", "each value", BadArgument,
     lambda v: EpsilonSchedule(1.0, (v,)), (0.5,)),
    ("EpsilonSchedule.geometric", "eps0", "eps0", BadArgument,
     lambda v: EpsilonSchedule.geometric(v, 0.5, 3), (2, 0.5)),
    ("EpsilonSchedule.geometric", "ratio", "ratio", BadArgument,
     lambda v: EpsilonSchedule.geometric(1.0, v, 3), (0.5,)),
    ("EpsilonSchedule.geometric", "count", "count", BadArgument,
     lambda v: EpsilonSchedule.geometric(1.0, 0.5, v), (3,)),
    ("generate_admissible", "slack", "slack", BadArgument,
     lambda v: generate_admissible(_BLOCKS, _SCHEDULE, v).pairs, (0, 0.001)),
    ("verify_eq1", "eps", "eps", BadArgument,
     lambda v: verify_eq1(_BLOCKS, v, *_FAMILY.pairs[0]), (1, 0.5)),
    ("lemma_upper_bound", "eps0", "eps0", BadArgument,
     lambda v: lemma_upper_bound(_BLOCKS, v, _FAMILY), (1, 0.75)),
    ("ClassUWitness", "lam", "lam", BadParams,
     lambda v: ClassUWitness(v, lambda _w: 0.0), (2, 0.5)),
    ("class_u_constant", "lam", "lam", BadParams, class_u_constant, (2, 0.5)),
    ("class_u_constant", "h_const", "H", BadParams, lambda v: class_u_constant(1.0, v),
     (2, -0.5)),
    ("linear_uniform", "theta", "theta", BadParams, linear_uniform, (2, 0.5)),
    ("p_laplace", "p", "p", BadParams, p_laplace, (4, 1.5)),
    ("p_laplace_homog", "p", "p", BadParams, p_laplace_homog, (4, 1.5)),
    ("k_hessian", "k", "k", BadParams, k_hessian, (2,)),
    ("odd_root_monotone", "d", "d", BadParams, odd_root_monotone, (5,)),
    ("counterexample inf_laplace", "dim", "dim", BadParams,
     lambda v: counterexample("inf_laplace", dim=v), (3,)),
    ("counterexample inf_laplace", "c", "c", BadParams,
     lambda v: counterexample("inf_laplace", c=v), (-5, -1e6)),
    ("counterexample p1_laplace", "dim", "dim", BadParams,
     lambda v: counterexample("p1_laplace", dim=v), (3,)),
    ("counterexample p1_laplace", "c", "c", BadParams,
     lambda v: counterexample("p1_laplace", c=v), (-7, -100.5)),
    ("counterexample k_hessian", "dim", "dim", BadParams,
     lambda v: counterexample("k_hessian", dim=v), (4,)),
    ("counterexample k_hessian", "k", "k", BadParams,
     lambda v: counterexample("k_hessian", k=v), (3,)),
    ("counterexample k_hessian", "n", "n", BadParams,
     lambda v: counterexample("k_hessian", n=v), (6,)),
    ("counterexample power_not_u", "d", "d", BadParams,
     lambda v: counterexample("power_not_u", d=v), (5,)),
    ("counterexample power_not_u", "dim", "dim", BadParams,
     lambda v: counterexample("power_not_u", dim=v), (3,)),
    ("counterexample power_not_u", "lam", "lam", BadParams,
     lambda v: counterexample("power_not_u", lam=v), (2, 0.5)),
    ("counterexample power_not_u", "h_const", "H", BadParams,
     lambda v: counterexample("power_not_u", h_const=v), (2, -0.5)),
    ("counterexample p_laplace_not_u", "p", "p", BadParams,
     lambda v: counterexample("p_laplace_not_u", p=v), (4, 3.5)),
    ("counterexample p_laplace_not_u", "dim", "dim", BadParams,
     lambda v: counterexample("p_laplace_not_u", dim=v), (3,)),
    ("counterexample p_laplace_not_u", "lam", "lam", BadParams,
     lambda v: counterexample("p_laplace_not_u", lam=v), (2, 0.5)),
    ("counterexample p_laplace_not_u", "h_const", "H", BadParams,
     lambda v: counterexample("p_laplace_not_u", h_const=v), (2, -0.5)),
    ("counterexample bounded_h", "dim", "dim", BadParams,
     lambda v: counterexample("bounded_h", dim=v), (2,)),
    ("loewner_leq", "tol", "tol", BadArgument, lambda v: loewner_leq(_Z2, _I2, v), (0, 1e-9)),
    ("gamma_k_member", "k", "k", BadArgument, lambda v: gamma_k_member(_I2, v), (1, 2)),
    ("gamma_k_member", "tol", "tol", BadArgument,
     lambda v: gamma_k_member(_I2, 1, v), (0, 1e-9)),
    ("elementary_symmetric", "k", "k", BadArgument,
     lambda v: elementary_symmetric(v, [1.0, 2.0]), (1, 2)),
    ("SymmetricMatrix.identity", "n", "n", BadArgument, SymmetricMatrix.identity, (2,)),
    ("SymmetricMatrix.zero", "n", "n", BadArgument, SymmetricMatrix.zero, (2,)),
    ("SymmetricMatrix.scaled", "factor", "factor", BadArgument, _I2.scaled, (2, -0.5)),
    ("matrix_from_json_obj", "dim", "dim", InvalidMatrix,
     lambda v: matrix_from_json_obj({"dim": v, "rows": [[1.0]]}), (1,)),
    ("JetPoint", "r", "r", BadParams, lambda v: JetPoint([0.0], v, [1.0]), (2, -1.5)),
    ("unit_jet", "dim", "dim", BadParams, unit_jet, (2,)),
    ("unit_jet", "axis", "axis", BadParams, lambda v: unit_jet(2, axis=v), (1, -2)),
    ("linear_uniform", "c", "c", BadParams,
     lambda v: linear_uniform(1.0, c=v).evaluate(_JET1, SymmetricMatrix.zero(1)), (2, -0.5)),
    ("linear_uniform callback", "c", "c", BadParams,
     lambda v: linear_uniform(1.0, c=lambda x: v).evaluate(_JET1, SymmetricMatrix.zero(1)),
     (2, -0.5)),
    ("witness_p_laplace", "p", "p", BadParams,
     lambda v: witness_p_laplace(v, unit_jet(2)), (4, 1.5)),
    ("ClassMWitness.evaluate", "t", "t", BadArgument, lambda v: _G1.evaluate(v, _I2), (2, -0.5)),
]

_IDS = [f"{entry}.{param}" for entry, param, *_ in ENTRIES]

# Refused by every parameter. 10**400 is an integer, so only a real parameter refuses it:
# as a float it is infinite. An integer parameter refuses any float, 2.0 included.
_REFUSED = (True, math.nan, math.inf, -math.inf, "1")
_REFUSED_REAL = (10**400,)
_REFUSED_INTEGER = (2.0, 2.5)


def _is_integer(accepted) -> bool:
    return all(type(v) is int for v in accepted)


def _shown(obj) -> str:
    """What a caller reads of a built object: its JSON form, with a callable or any
    value JSON cannot hold (a numpy integer, say) shown by its type name."""
    data = obj.to_json_obj() if hasattr(obj, "to_json_obj") else _jsonable(obj)
    return json.dumps(data, default=lambda value: type(value).__name__)


@pytest.mark.parametrize("entry, param, name, error, call, accepted", ENTRIES, ids=_IDS)
def test_refuses_what_is_not_a_number_of_its_kind(entry, param, name, error, call, accepted):
    refused = _REFUSED + (_REFUSED_INTEGER if _is_integer(accepted) else _REFUSED_REAL)
    for value in refused:
        with pytest.raises(error, match=f"^{re.escape(name)} must") as info:
            call(value)
        assert type(info.value) is error, (value, info.value)


@pytest.mark.parametrize("entry, param, name, error, call, accepted", ENTRIES, ids=_IDS)
def test_numpy_numbers_build_what_python_numbers_build(entry, param, name, error, call,
                                                       accepted):
    for value in accepted:
        as_numpy = np.int64(value) if type(value) is int else np.float64(value)
        assert _shown(call(as_numpy)) == _shown(call(value)), value


# Values of the right kind outside their range, each with the whole message it raises.
REFUSED_IN_FULL = [
    (lambda: unit_jet(-1), BadParams, "dim must be an integer >= 1, got -1"),
    (lambda: unit_jet(2, axis=5), BadParams, "axis must be an integer in -2..1, got 5"),
    (lambda: unit_jet(2, axis=-3), BadParams, "axis must be an integer in -2..1, got -3"),
    (lambda: unit_jet(2, axis=True), BadParams, "axis must be an integer in -2..1, got True"),
    (lambda: SymmetricMatrix.identity(0), BadArgument, "n must be an integer >= 1, got 0"),
    (lambda: elementary_symmetric(3, [1.0, 2.0]), BadArgument,
     "k must be an integer in 1..2, got 3"),
    (lambda: elementary_symmetric(1, [True, 2.0]), BadArgument,
     "values must be finite real numbers, got True"),
    (lambda: elementary_symmetric(2, ["a", "b"]), BadArgument,
     "values must be finite real numbers, got 'a'"),
    (lambda: elementary_symmetric(1, [math.nan, 1.0]), BadArgument,
     "values must be finite real numbers, got nan"),
    (lambda: elementary_symmetric(1, [1.0, -math.inf]), BadArgument,
     "values must be finite real numbers, got -inf"),
    (lambda: elementary_symmetric(1, [1.0, None]), BadArgument,
     "values must be finite real numbers, got None"),
    (lambda: elementary_symmetric(1, [1j, 1.0]), BadArgument,
     "values must be finite real numbers, got 1j"),
    (lambda: gamma_k_member(_I2, 3), BadArgument, "k must be an integer in 1..2, got 3"),
    (lambda: loewner_leq(_Z2, _I2, -1e-9), BadArgument, "tol must be finite and >= 0, got -1e-09"),
    (lambda: gamma_k_member(_I2, 1, -1e-9), BadArgument,
     "tol must be finite and >= 0, got -1e-09"),
    (lambda: matrix_from_json_obj({"dim": 0, "rows": []}), InvalidMatrix,
     "dim must be an integer >= 1, got 0"),
    (lambda: SampleConfig(seed=2**64), BadArgument,
     "seed must be an integer in 0..18446744073709551615, got 18446744073709551616"),
    (lambda: counterexample("k_hessian", dim=3, k=4), BadParams,
     "k must be an integer in 2..3, got 4"),
    (lambda: linear_uniform(1.0, b=[1.0, 2.0, 3.0]).evaluate(unit_jet(2), _I2), BadParams,
     "b(x) has length 3, nu has length 2"),
    (lambda: witness_p_laplace(1.0, unit_jet(2)), NotInClassM,
     "the p-Laplace operator has a witness pair iff 1 < p < inf, got p=1.0"),
    *((lambda d=d: odd_root_monotone(d), BadParams, f"d must be an odd integer >= 3, got {d!r}")
      for d in (1, 4, np.int64(4), 2.5, True, "3")),
]


@pytest.mark.parametrize("call, error, message", REFUSED_IN_FULL,
                         ids=[message for *_, message in REFUSED_IN_FULL])
def test_refusals_name_the_range(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert (type(info.value), str(info.value)) == (error, message)


# A value object of the wrong type, each with the whole message it raises in place of the
# AttributeError its first attribute lookup would raise.
WRONG_TYPES = [
    (lambda: loewner_leq(np.eye(2), _I2), InvalidMatrix, "x must be a SymmetricMatrix, not ndarray"),
    (lambda: loewner_leq(_I2, [[1.0, 0.0], [0.0, 1.0]]), InvalidMatrix,
     "y must be a SymmetricMatrix, not list"),
    (lambda: gamma_k_member(np.eye(2), 1), InvalidMatrix,
     "x must be a SymmetricMatrix, not ndarray"),
    (lambda: operator_norm(np.eye(2)), InvalidMatrix, "x must be a SymmetricMatrix, not ndarray"),
    (lambda: block_extract(np.eye(4)), InvalidMatrix,
     "a2n must be a SymmetricMatrix, not ndarray"),
    (lambda: eigen_decompose(np.eye(2)), InvalidMatrix,
     "x must be a SymmetricMatrix, not ndarray"),
    (lambda: p_laplace(4).evaluate(unit_jet(2), np.eye(2)), InvalidMatrix,
     "x must be a SymmetricMatrix, not ndarray"),
    (lambda: witness_p_laplace(4.0, [1.0, 0.0]), BadParams, "omega must be a JetPoint, not list"),
    (lambda: eig_sum("identity"), BadParams, "h must be a MonotoneFunction, not str"),
    (lambda: witness_eig_sum(None), BadParams, "h must be a MonotoneFunction, not NoneType"),
]


@pytest.mark.parametrize("call, error, message", WRONG_TYPES,
                         ids=[message for *_, message in WRONG_TYPES])
def test_wrong_types_raise_one_toolkit_error_naming_the_type(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert (type(info.value), str(info.value)) == (error, message)


def test_unchecked_evaluation_asks_no_type(monkeypatch):
    """``checked=False`` is the trial loop's path: it makes no type check."""
    def refuse(*args):
        raise AssertionError("the unchecked path checked a type")
    monkeypatch.setattr(operators, "_instance", refuse)
    assert p_laplace(4).evaluate(unit_jet(2), _I2, checked=False) == -4.0


def test_elementary_symmetric_keeps_integers_exact_at_any_size():
    big = 10**400  # past the float range, which a float value may not be
    assert elementary_symmetric(2, [big, big + 1, 3]) == big * (big + 1) + 3 * (2 * big + 1)
    assert elementary_symmetric(2, (np.int64(2), np.float64(0.5), 4)) == 11.0


_JET2 = JetPoint([0.0, 0.0], 0.0, [1.0, 0.5])
_X2 = SymmetricMatrix([[1.0, 0.25], [0.25, 2.0]])


# (entry point, argument, name in the message, error class, ndim, call with the value and
#  return what it built, JSON only: a value that must pass through json.dumps)
ARRAYS = [
    ("SymmetricMatrix", "entries", "entries", InvalidMatrix, 2,
     lambda v: SymmetricMatrix(v).entries, False),
    ("SymmetricMatrix.diagonal", "values", "values", InvalidMatrix, 1,
     lambda v: SymmetricMatrix.diagonal(v).entries, False),
    ("block_compose", "b", "B", InvalidMatrix, 2, lambda v: block_compose(_I2, v, _I2).B, False),
    ("matrix_from_json_obj", "rows", "rows", InvalidMatrix, 2,
     lambda v: matrix_from_json_obj({"dim": 2, "rows": v}).entries, False),
    ("JetPoint", "x", "x", BadParams, 1, lambda v: JetPoint(v, 0.0, [1.0, 0.0]).x, False),
    ("JetPoint", "nu", "nu", BadParams, 1, lambda v: JetPoint([0.0, 0.0], 0.0, v).nu, False),
    ("linear_uniform", "sigma", "sigma", BadParams, 2,
     lambda v: linear_uniform(1.0, sigma=v).evaluate(_JET2, _X2), False),
    ("linear_uniform", "b", "b", BadParams, 1,
     lambda v: linear_uniform(1.0, b=v).evaluate(_JET2, _X2), False),
    ("linear_uniform", "b callback", "b", BadParams, 1,
     lambda v: linear_uniform(1.0, b=lambda x: v).evaluate(_JET2, _X2), False),
    ("quadratic_doubling", "x_hat", "x_hat", BadParams, 1,
     lambda v: quadratic_doubling(1.0, 2, x_hat=v).x_hat, False),
    ("quadratic_doubling", "y_hat", "y_hat", BadParams, 1,
     lambda v: quadratic_doubling(1.0, 2, y_hat=v).y_hat, False),
    ("classm --nu", "nu", "nu", BadParams, 1,
     lambda v: cli._default_jets(2, json.dumps(v))[0].nu, True),
]

_ARRAY_IDS = [f"{entry}.{arg}" for entry, arg, *_ in ARRAYS]
_ACCEPTED_ARRAY = {1: [3.0, -1.0], 2: [[2.0, -1.0], [-1.0, 3.0]]}


def _refused_arrays(ndim: int, json_only: bool) -> list:
    """Each refused value: an entry that is no finite real number but a bool in the first
    place, a string, ragged nesting, the other ndim, an empty array, and numpy arrays of
    bools or complex numbers. None is refused as an entry; as the whole value, sigma, b and
    the anchors read it as "not given"."""
    def first(entry):
        return [entry, 0.0] if ndim == 1 else [[entry, 0.0], [0.0, 1.0]]
    entries = ["1", True, None, 10**400, math.nan, math.inf, -math.inf]
    ragged, other, empty = (([[1.0], 0.0], [[1.0, 0.0]], []) if ndim == 1
                            else ([[1.0, 0.0], [0.0]], [1.0, 0.0], [[]]))
    refused = [first(entry) for entry in entries] + ["ab", ragged, other, empty]
    if not json_only:  # JSON has no complex numbers and no numpy arrays
        refused += [first(1j), np.ones(np.shape(first(0.0)), dtype=bool),
                    np.ones(np.shape(first(0.0)), dtype=complex)]
    return refused


@pytest.mark.parametrize("entry, arg, name, error, ndim, call, json_only", ARRAYS,
                         ids=_ARRAY_IDS)
def test_refuses_what_is_not_an_array_of_finite_reals(entry, arg, name, error, ndim, call,
                                                      json_only):
    for value in _refused_arrays(ndim, json_only):
        with pytest.raises(error, match=f"^{re.escape(name)} must") as info:
            call(value)
        message = str(info.value)
        assert type(info.value) is error, (value, message)
        assert "\n" not in message and "[" not in message and "array(" not in message, message


@pytest.mark.parametrize("entry, arg, name, error, ndim, call, json_only", ARRAYS,
                         ids=_ARRAY_IDS)
def test_numpy_arrays_build_what_float_lists_build(entry, arg, name, error, ndim, call,
                                                   json_only):
    floats = _ACCEPTED_ARRAY[ndim]
    expected = np.asarray(call(floats))
    same = [np.asarray(floats, dtype=int).tolist()]
    if not json_only:
        same += [np.asarray(floats), np.asarray(floats, dtype=np.int64),
                 np.asarray(floats, dtype=np.float32), np.asarray(floats, dtype=object)]
    for value in same:
        built = np.asarray(call(value))
        assert (built.dtype, built.tobytes()) == (expected.dtype, expected.tobytes()), value


# isinstance(..., int), isinstance(..., bool) and isinstance(..., (int, float)) as well as
# the numbers ABCs
_NUMBER_TESTS = re.compile(r"numbers\.(Integral|Real)\b"
                           r"|isinstance\([^()]*,\s*(int|bool|\(int, float\))\)")
# np.asarray(..., dtype=float) and np.array(..., float), on one line
_ARRAY_CONVERSIONS = re.compile(r"np\.(asarray|array)\(.*\bfloat.*")


def test_only_errors_py_decides_what_a_number_is():
    """The rules live in errors.py; no other module tests a value's numeric type, asks whether
    it is a bool, or turns a value into a float array itself. The exceptions are cli.main,
    which reads SystemExit.code (argparse exits with an int code or a message, which is no
    number a caller hands in), and ``Spectrum`` and ``SymmetricMatrix.eigenvalues``, which
    hold the Jacobi eigensolver's own output, no value a caller hands in: past the float
    range it may be +-inf."""
    asking = sorted((path.name, match.group(0)) for path in SRC.glob("*.py")
                    for match in _NUMBER_TESTS.finditer(path.read_text()))
    assert {name for name, _ in asking} == {"errors.py", "cli.py"}
    assert [test for name, test in asking if name == "cli.py"] == ["isinstance(code, int)"]
    converting = sorted((path.name, match.group(0)) for path in SRC.glob("*.py")
                        if path.name != "errors.py"
                        for match in _ARRAY_CONVERSIONS.finditer(path.read_text()))
    assert converting == [
        ("symmat.py", "np.array(eigenvalues, dtype=float)"),
        ("symmat.py", "np.array(eigenvectors, dtype=float)"),
        ("symmat.py", "np.array(sorted(diag), dtype=float)"),
    ]


# numpy's dispatch wrappers around the ndarray methods the package calls instead:
# np.trace(a) is a.trace(), and np.linalg.norm of a float vector is sqrt(v.dot(v))
_NUMPY_WRAPPERS = re.compile(r"np\.trace\(|np\.linalg\.norm\(")


def test_no_numpy_wrapper_where_a_method_does():
    found = [(path.name, match.group(0)) for path in SRC.glob("*.py")
             for match in _NUMPY_WRAPPERS.finditer(path.read_text())]
    assert found == []
