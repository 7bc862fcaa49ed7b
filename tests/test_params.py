"""One rule for numeric parameters, checked at every public entry point that takes one.

An integer parameter is any integer but a bool, numpy's included; a real one is any
real number but a bool that is finite as a float. A refused value raises the entry's
documented error class with "<name> must" in its message, and a numpy number builds
exactly what the Python number of the same value builds.
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
    SampleConfig,
    class_u_constant,
    counterexample,
    generate_admissible,
    hessian_blocks,
    k_hessian,
    lemma_upper_bound,
    linear_uniform,
    odd_root_monotone,
    p_laplace,
    p_laplace_homog,
    quadratic_doubling,
    sums,
    verify_eq1,
)
from classm.operators import _jsonable

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "classm"

_BLOCKS = hessian_blocks(quadratic_doubling(1.0, 2))
_SCHEDULE = EpsilonSchedule.geometric(1.0, 0.5, 4)
_FAMILY = generate_admissible(_BLOCKS, _SCHEDULE)


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


def test_only_errors_py_decides_what_a_number_is():
    """The rule lives in errors._integer and errors._real; no other module asks
    numbers.Integral or numbers.Real for itself."""
    asking = sorted(path.name for path in SRC.glob("*.py")
                    if re.search(r"numbers\.(Integral|Real)\b", path.read_text()))
    assert asking == ["errors.py"]
