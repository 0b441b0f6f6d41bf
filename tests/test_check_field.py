"""Every config value passes `errors.check_field`: the message of each single fault."""

from dataclasses import fields
from math import inf, nan

import pytest

from bicopterlab.errors import ValidationError
from bicopterlab.estimator import EstimatorConfig
from bicopterlab.model import PlantParams
from bicopterlab.sim import SimConfig
from bicopterlab.trajectory import EllipseSpec, HilbertSpec

FAULTS = (nan, inf, -inf, 0.0, -1.0)
FINITE, POSITIVE = "must be finite", "must be > 0"
# Message suffix per entry of FAULTS; None means the value is accepted.
ANY_FINITE = (FINITE, FINITE, FINITE, None, None)
ANY_POSITIVE = (FINITE, FINITE, FINITE, POSITIVE, POSITIVE)

# (class, field, suffixes) of every scalar float field.
SCALARS = [
    (PlantParams, "m", ANY_POSITIVE),
    (PlantParams, "J", ANY_POSITIVE),
    (EstimatorConfig, "c1", ANY_POSITIVE),
    (EstimatorConfig, "c2", ANY_POSITIVE),
    (EstimatorConfig, "alpha1", (FINITE,) * 3 + ("must lie in (0, 1)",) * 2),
    (EstimatorConfig, "alpha2", (FINITE,) * 3 + ("must be > 1",) * 2),
    (EstimatorConfig, "forgetting", ANY_POSITIVE),
    (EstimatorConfig, "gamma", ANY_POSITIVE),
    (EllipseSpec, "a", ANY_POSITIVE),
    (EllipseSpec, "b", ANY_POSITIVE),
    (EllipseSpec, "phi_deg", ANY_FINITE),
    (EllipseSpec, "omega", ANY_POSITIVE),
    (HilbertSpec, "size", ANY_POSITIVE),
    (HilbertSpec, "seg_time", ANY_POSITIVE),
    (SimConfig, "dt", ANY_POSITIVE),
    (SimConfig, "t_end", (FINITE,) * 3 + ("must be >= dt",) * 2),
]

# (class, field, a valid value, suffixes per faulty entry) of every tuple field.
TUPLES = [
    (HilbertSpec, "origin", (0.0, 0.0), ANY_FINITE),
    (SimConfig, "theta0", (2.0, 10.0), ANY_POSITIVE),
    (SimConfig, "x0", (0.0,) * 6, ANY_FINITE),
]


def _cases():
    for cls, name, suffixes in SCALARS:
        for value, suffix in zip(FAULTS, suffixes):
            message = suffix and f"{cls.__name__}.{name} {suffix}"
            yield pytest.param(cls, name, value, message, id=f"{cls.__name__}.{name}={value}")
    for cls, name, valid, suffixes in TUPLES:
        label = f"{cls.__name__}.{name}"
        for i in range(len(valid)):
            for value, suffix in zip(FAULTS, suffixes):
                bad = valid[:i] + (value,) + valid[i + 1 :]
                message = suffix and f"{label} entries {suffix}"
                yield pytest.param(cls, name, bad, message, id=f"{label}[{i}]={value}")
        for bad in (valid[:-1], valid + (1.0,)):
            message = f"{label} must have {len(valid)} entries"
            yield pytest.param(cls, name, bad, message, id=f"{label} of {len(bad)}")
    whole = "a whole number"
    for value, suffix in ((0, ">= 1"), (-1, ">= 1"), (nan, ">= 1"), (2.5, whole), (inf, whole)):
        message = f"SimConfig.log_every must be {suffix}"
        yield pytest.param(SimConfig, "log_every", value, message, id=f"SimConfig.log_every={value}")


@pytest.mark.parametrize("cls, name, value, message", list(_cases()))
def test_single_fault_message(cls, name, value, message):
    if message is None:
        cls(**{name: value})
        return
    with pytest.raises(ValidationError) as err:
        cls(**{name: value})
    assert str(err.value) == message


def test_length_is_checked_before_entries():
    with pytest.raises(ValidationError, match=r"^SimConfig\.theta0 must have 2 entries$"):
        SimConfig(theta0=(nan,))


def test_the_fault_tables_name_every_numeric_field():
    # poles is checked by place_gains, adaptive is a flag, plant, est and traj are sections
    skipped = {"SimConfig.poles", "SimConfig.adaptive", "SimConfig.plant", "SimConfig.est",
               "SimConfig.traj"}
    tabled = {f"{row[0].__name__}.{row[1]}" for row in SCALARS + TUPLES} | {"SimConfig.log_every"}
    configs = (PlantParams, EstimatorConfig, EllipseSpec, HilbertSpec, SimConfig)
    every = {f"{cls.__name__}.{f.name}" for cls in configs for f in fields(cls)}
    assert tabled == every - skipped
