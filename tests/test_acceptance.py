"""Acceptance suite: runs every criterion of the check registry at full size
and its pinned tolerances, and prints one pass/fail line per criterion
(visible with ``pytest -s``; the lines are also embedded in assertion
messages on failure).

Each criterion gets its own test, named after its id and check name
(``test_a1_haldane_degenerate_env``, ...).  A2 dominates the runtime; the
module finishes in about 22 s on a 2-core x86-64 host.
"""


from haldane import verify

# The names of ``haldane verify --level fast``, in their order.
FAST_NAMES = [
    "pgf-monotone-convex",
    "shape-bounds",
    "shape-lf-constant",
    "shape-defining-identity",
    "offspring-moments-mc",
    "env-moments-mc",
    "expansion-decay",
    "log-mean-sign",
    "representation-identity",
    "extinction-monotone",
    "lf-oracle-agreement",
    "gw-fixed-point",
    "annuity-fixed-point",
    "sampler-equivalence",
    "perpetuity-mean",
    "gamma-complementarity",
    "invgamma-cdf-pdf",
    "laplace-ode",
    "ks-statistics",
    "stream-determinism",
    "stream-independence",
    "haldane-prediction",
]


# The acceptance criteria, in id order.
CRITERIA = sorted((c for c in verify.CHECKS if c.aid), key=lambda c: int(c.aid[1:]))


def _criterion_test(check):
    def test():
        result = verify.run_check(check, "full")
        line = f"{result.aid} {result.name}: {'PASS' if result.passed else 'FAIL'} — {result.detail}"
        print(line)
        assert result.passed, line

    test.__name__ = f"test_{check.aid.lower()}_{check.name.replace('-', '_')}"
    return test


for _check in CRITERIA:
    _test = _criterion_test(_check)
    globals()[_test.__name__] = _test
del _check, _test


def test_criteria_registry_complete():
    names = [c.name for c in verify.CHECKS]
    assert len(names) == len(set(names))
    assert [c.name for c in verify.CHECKS if c.fast] == FAST_NAMES
    assert [c.aid for c in CRITERIA] == [f"A{i}" for i in range(1, 9)]
    # the full-level-only criteria, in id order
    assert [c.aid for c in verify.CHECKS if not c.fast] == ["A1", "A2", "A3", "A4", "A8"]


def test_expansion_decay_keeps_fast_threshold(monkeypatch):
    """Errors decaying at exponent 1.45 meet A7's 1.4 but not the fast 1.5,
    so the merged check must fail at both sizes; only the full size (A7)
    fits the log-mean expansion too."""
    monkeypatch.setattr(verify, "expansion_check", lambda model, r: model.epsilon**1.45)
    check = next(c for c in verify.CHECKS if c.name == "expansion-decay")
    for level in ("fast", "full"):
        result = verify.run_check(check, level)
        assert not result.passed, result.detail
        assert "exponent=1.45" in result.detail
        assert ("log:" in result.detail) == (level == "full")
