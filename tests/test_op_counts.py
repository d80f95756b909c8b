"""Pinned operation counts for one fixed verification workload.

The ring layers are wrapped from outside with counting wrappers, and
``verify_axioms`` runs on a fresh q3torus demo system.  The counts are
deterministic, so an algorithmic regression (an extra product per term
pair, a lost cache, a unit phase multiplied in again) fails here without
relying on timing.
"""

from nctorus.algebra import TwistedPoly
from nctorus.dynamics import TorusAction
from nctorus.factor_system import from_cleft, verify_axioms
from nctorus.phases import Phase, QQi
from nctorus.q3torus import standard_angles, twist3

# every product on this workload multiplies two monomials: one Phase.mul
# and one QQi product per TwistedPoly product.  A morphism caches the image
# of each monomial, and scaling a cached image by its phase is one
# Phase.mul with no TwistedPoly product, so the counts no longer match one
# to one.  A monomial image is the product of its generator powers with no
# unit factor, and each isometry column costs one product for s* s = 1.
EXPECTED = {
    "TwistedPoly.__mul__": 1380,
    "Phase.mul": 1620,
    "QQi.__mul__": 1620,
}


def test_verify_axioms_operation_counts(monkeypatch):
    counts = dict.fromkeys(EXPECTED, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for cls, attr in ((TwistedPoly, "__mul__"), (Phase, "mul"), (QQi, "__mul__")):
        name = f"{cls.__name__}.{attr}"
        monkeypatch.setattr(cls, attr, counting(name, cls.__dict__[attr]))

    # a fresh system: its gamma/omega caches start empty
    fs = from_cleft(TorusAction(twist3(*standard_angles()), (2,)))
    report = verify_axioms(fs, char_range=2, gen_degree=2)

    assert report.passed and report.checks == 512
    assert counts == EXPECTED
