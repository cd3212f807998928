"""The per-command result memo of `radius`: what it remembers, for how
long, and that a suite run gives the same records with it and without."""

import contextlib
import contextvars
import dataclasses
import math
import sys

import numpy as np
import pytest

from radiuslab import cli, inequalities, norms, radius
from radiuslab.ensembles import EnsembleSpec, generate, parse_ensemble_id
from radiuslab.matfile import save_matrix
from radiuslab.norms import (NormSpec, frobenius_norm_spec, numerical_radius_norm_spec,
                             omega_norm_spec, operator_norm_spec)

SUITE_ENSEMBLES = [EnsembleSpec(kind, n, 31) for kind, n in
                   (("ginibre", 2), ("normal", 3), ("square_zero", 2),
                    ("hermitian_contraction", 2), ("commuting_hermitian_pair", 2))]


def _memo_off(monkeypatch):
    # a context var that always reads as "a memoized call is running"
    monkeypatch.setattr(radius, "_MEMO", contextvars.ContextVar("off", default=radius._BYPASS))


def _entries(memo, fn):
    # fn is a stack search wrapped by radius.memo_per_matrix
    return [key for key in memo if key[0] is fn.__wrapped__]


def _batched(evaluate):
    # the evaluate_many of a scalar evaluator: one call per matrix
    return lambda stack: np.array([evaluate(a) for a in stack])


def _cheap_radius(t, norm):
    # w_N(t) by the grid path of generalized_radius on a coarse grid
    return radius._circle_radii(t[None], norm, 16, 1e-3, radius.CIRCLE_BRACKETS)[0]


def _count_searches(monkeypatch, record):
    """Rebind radius._circle_radii to the same memoized search, around a spy
    that calls record(arrs, norm) for every raw grid search (memo hits
    make none)."""
    raw = radius._circle_radii.__wrapped__

    def counting(arrs, norm, *settings, **kw):
        record(arrs, norm)
        return raw(arrs, norm, *settings, **kw)

    monkeypatch.setattr(radius, "_circle_radii",
                        radius.memo_per_matrix(radius._BLANK_RADIUS)(counting))


# the stack searches that keep their results in the memo, by name
STACK_SEARCHES = (("numerical_radius_many", radius.numerical_radius_many),
                  ("omega_norm_many", radius.omega_norm_many),
                  ("_circle_radii", radius._circle_radii),
                  ("omega_radius_slow_many", radius.omega_radius_slow_many),
                  ("_phase_sups", inequalities._phase_sups))


def test_suite_records_are_the_same_with_the_memo_off(monkeypatch):
    def run():
        return inequalities.run_suite(SUITE_ENSEMBLES, trials=1)

    with_memo = run()
    _memo_off(monkeypatch)
    without = run()
    assert repr(with_memo) == repr(without)
    assert with_memo.errors == 0 and len(with_memo.records) > 50


def test_suite_shares_radii_and_forgets_them(monkeypatch):
    seen = []

    def spy(T, *, tol=inequalities.DEFAULT_TOL):
        seen.append(radius._MEMO.get())
        return inequalities.check_basic_bounds(T, tol=tol)

    defn = inequalities.CheckDef(name="spy", tag="selftest", runner=spy, kinds=("ginibre",))
    a = generate(EnsembleSpec("ginibre", 3, 40))
    inequalities.run_suite([EnsembleSpec("ginibre", 3, 40)], checks=["dragomir", defn],
                           trials=1)
    memo = seen[0]
    # dragomir computed w(T) and w(T^2); the spy's basic check reused w(T)
    assert len(_entries(memo, radius.numerical_radius_many)) == 2
    assert radius._MEMO.get() is None
    # a later call outside the run computes afresh
    calls = []
    original = radius._level_crossings
    monkeypatch.setattr(radius, "_level_crossings",
                        lambda *args: calls.append(1) or original(*args))
    radius.numerical_radius(a)
    assert calls


def test_suite_opens_one_memo_per_trial():
    seen = []

    def spy(T, *, tol=inequalities.DEFAULT_TOL):
        seen.append(radius._MEMO.get())
        return inequalities.check_basic_bounds(T, tol=tol)

    golden = (inequalities.GoldenCase("eye", (np.eye(2),)),
              inequalities.GoldenCase("e12", (np.array([[0.0, 1.0], [0.0, 0.0]]),)))
    defn = inequalities.CheckDef(name="spy", tag="selftest", runner=spy,
                                 kinds=("ginibre",), golden=golden)
    ensembles = [EnsembleSpec("ginibre", 3, 40), EnsembleSpec("ginibre", 2, 40)]
    rep = inequalities.run_suite(ensembles, checks=["dragomir", defn], trials=3)
    assert rep.errors == 0
    # the golden block, then one block per trial holding both ensembles; in
    # each, the spy's two cells run once in the dry run and once for their records
    assert len(seen) == 16
    memos = seen[::4]
    assert all(memo is memos[b] for b in range(4) for memo in seen[4 * b:4 * b + 4])
    assert len({id(memo) for memo in memos}) == 4
    # golden: w of the spy's two cases (dragomir's golden cases add theirs);
    # a trial: dragomir's w(T) and w(T^2) per draw, which the spy reuses
    assert len(_entries(memos[0], radius.numerical_radius_many)) >= 2
    assert [len(memo) for memo in memos[1:]] == [4, 4, 4]
    assert radius._MEMO.get() is None


def test_compute_opens_and_closes_a_memo(monkeypatch, tmp_path):
    path = tmp_path / "t.json"
    save_matrix(str(path), generate(EnsembleSpec("ginibre", 3, 41)))
    seen = []
    original = cli.hs_radius_sq

    def spy(T):
        seen.append(radius._MEMO.get())
        return original(T)

    monkeypatch.setattr(cli, "hs_radius_sq", spy)
    out = tmp_path / "out.txt"
    assert cli.main(["compute", "--matrix", str(path), "--format", "machine",
                     "--out", str(out)]) == 0
    memo = seen[0]
    # w and w_N[op] are one entry; Omega is the other
    assert len(_entries(memo, radius.numerical_radius_many)) == 1
    assert len(_entries(memo, radius.omega_norm_many)) == 1
    assert radius._MEMO.get() is None


def test_every_omega_chain_cell_runs_the_slow_path(monkeypatch):
    # matrices per search of the slow path (the grid path with Omega as N)
    slow_stacks = []
    _count_searches(monkeypatch, lambda arrs, norm: norm.id == "omega"
                    and slow_stacks.append(arrs.shape[0]))
    ensembles = [EnsembleSpec("ginibre", 2, 50), EnsembleSpec("square_zero", 2, 50)]
    rep = inequalities.run_suite(ensembles, checks=["omega-chain"], trials=2)
    assert [r.status for r in rep.records] == ["ok"] * 5
    assert sum(slow_stacks) == len(rep.records)
    # the golden case alone, then each trial's two n = 2 draws together
    assert slow_stacks == [1, 2, 2]


def test_a_raising_call_is_not_remembered():
    calls = []

    def flaky(a):
        calls.append(1)
        if len(calls) == 1:
            raise RuntimeError("first call fails")
        return float(np.linalg.norm(a, 2))

    norm = NormSpec(id="flaky", evaluate=flaky, evaluate_many=_batched(flaky),
                    self_adjoint=True, algebra=True, weakly_unitarily_invariant=True)
    a = generate(EnsembleSpec("ginibre", 2, 60))
    with radius.result_memo():
        with pytest.raises(RuntimeError):
            _cheap_radius(a, norm)
        first = _cheap_radius(a, norm)
        spent = len(calls)
        assert _cheap_radius(a, norm) is first
        assert len(calls) == spent


def test_omega_settings_never_share_an_entry():
    t = generate(EnsembleSpec("ginibre", 2, 70))
    specs = (omega_norm_spec(), omega_norm_spec(**radius.SLOW_OMEGA_INNER))
    assert specs[0].id == specs[1].id == "omega"
    alone = [(spec.evaluate(t), _cheap_radius(t, spec)) for spec in specs]
    with radius.result_memo():
        memo = radius._MEMO.get()
        for k in (0, 1, 1, 0):
            spec = specs[k]
            assert (spec.evaluate(t), _cheap_radius(t, spec)) == alone[k]
        assert len(_entries(memo, radius.omega_norm_many)) == 2
        assert len(_entries(memo, radius._circle_radii)) == 2


def test_nested_calls_bypass_the_memo():
    t = generate(EnsembleSpec("ginibre", 3, 80))
    with radius.result_memo():
        memo = radius._MEMO.get()
        res = _cheap_radius(t, numerical_radius_norm_spec())
        # the inner numerical radii of the wnum grid are not remembered
        assert len(memo) == 1 and len(_entries(memo, radius._circle_radii)) == 1
        with radius.result_memo():
            assert radius._MEMO.get() is memo
    assert res == _cheap_radius(t, numerical_radius_norm_spec())


def test_op_radius_is_the_numerical_radius_entry():
    t = generate(EnsembleSpec("ginibre", 3, 90))
    with radius.result_memo():
        w = radius.numerical_radius(t)
        assert radius.generalized_radius(t, operator_norm_spec()) is w
        assert len(radius._MEMO.get()) == 1


def test_an_unhashable_norm_runs_unremembered():
    @dataclasses.dataclass
    class Scaled:   # a callable dataclass is unhashable
        factor: float

        def __call__(self, a):
            return self.factor * float(np.linalg.norm(a, 2))

    norm = NormSpec(id="scaled", evaluate=Scaled(2.0), evaluate_many=_batched(Scaled(2.0)),
                    self_adjoint=True, algebra=True, weakly_unitarily_invariant=True)
    a = generate(EnsembleSpec("ginibre", 2, 100))
    alone = _cheap_radius(a, norm)
    with radius.result_memo():
        assert _cheap_radius(a, norm) == alone
        assert len(radius._MEMO.get()) == 0


def test_stacked_searches_share_the_one_matrix_entries(monkeypatch):
    kinds = ("ginibre", "square_zero", "normal")
    stack = np.stack([generate(EnsembleSpec(kind, 3, 110 + k)) for k, kind in enumerate(kinds)])
    stack = np.concatenate((stack, stack[:1]))   # the first matrix twice
    fro = frobenius_norm_spec()
    searched = []
    _count_searches(monkeypatch, lambda arrs, norm: searched.append(arrs.shape[0]))
    with radius.result_memo():
        memo = radius._MEMO.get()
        first = radius.generalized_radius(stack[1], fro)
        many = radius.generalized_radius_many(stack, fro)
        # the memo's entry is reused, and the repeated matrix searched once
        assert searched == [1, 2] and many[1] is first and many[3] is many[0]
        assert all(radius.generalized_radius(t, fro) is r for t, r in zip(stack, many))
        assert len(_entries(memo, radius._circle_radii)) == 3
        slow = radius.omega_radius_slow_many(stack[:2])
        assert all(radius.omega_radius_slow(t) is r for t, r in zip(stack, slow))
        assert searched == [1, 2, 2]
    assert many == [radius.generalized_radius(t, fro) for t in stack]


def test_one_omega_call_per_step_per_size_group(monkeypatch):
    sizes = []
    original = norms.omega_norm_many

    def spy(stack, **opts):
        sizes.append(len(stack))
        return original(stack, **opts)

    monkeypatch.setattr(norms, "omega_norm_many", spy)
    ensembles = [EnsembleSpec("ginibre", 2, 120), EnsembleSpec("square_zero", 2, 120),
                 EnsembleSpec("ginibre", 3, 120), EnsembleSpec("normal", 3, 120)]
    # the calls of each matrix's slow search on its own
    alone = []
    for spec in ensembles:
        sizes.clear()
        radius.omega_radius_slow(generate(spec))
        alone.append(len(sizes))
    sizes.clear()
    # the check without its golden case, whose block would add its own calls
    (chain,) = [d for d in inequalities.default_checks() if d.name == "omega-chain"]
    rep = inequalities.run_suite(ensembles, checks=[dataclasses.replace(chain, golden=())],
                                 trials=1)
    assert [r.status for r in rep.records] == ["ok"] * 4
    # per size group: one grid call, then one per Brent step, as many steps
    # as its longest search
    assert len(sizes) == max(alone[:2]) + max(alone[2:])
    grid = radius.SLOW_OMEGA_OUTER["grid"] // 2
    assert [k for k, size in enumerate(sizes) if size == 2 * grid] == [0, max(alone[:2])]


def test_stacked_work_that_raises_changes_no_record(monkeypatch):
    ensembles = [EnsembleSpec("ginibre", 2, 130), EnsembleSpec("square_zero", 2, 130)]
    checks = ["inf-upper", "lower-bound", "omega-chain"]

    def run():
        return inequalities.run_suite(ensembles, checks=checks, trials=1)

    expected = run()
    for module, name in ((radius, "omega_radius_slow_many"), (radius, "_circle_radii"),
                         (inequalities, "_phase_sups")):
        raised = []
        search = getattr(module, name)

        def fail(arrs, *args, _raw=search.__wrapped__, **kwargs):
            # a stack fails; the cells' one-matrix searches run as before
            if len(arrs) > 1:
                raised.append(name)
                raise RuntimeError("stacked search failed")
            return _raw(arrs, *args, **kwargs)

        # the same search, memoized with the blank of its kind
        blank = (math.nan, math.nan) if name == "_phase_sups" else radius._BLANK_RADIUS
        with monkeypatch.context() as patch:
            patch.setattr(module, name, radius.memo_per_matrix(blank)(fail))
            assert repr(run()) == repr(expected)
        assert raised
    assert expected.errors == 0


def test_stacked_work_fills_only_what_the_cells_read(monkeypatch):
    searched = []
    _count_searches(monkeypatch, lambda arrs, norm: searched.append(len(arrs)))
    # wnum is no algebra norm: lower-bound reads nothing, so nothing is searched
    rep = inequalities.run_suite([EnsembleSpec("ginibre", 2, 140)], checks=["lower-bound"],
                                 trials=1, norm=numerical_radius_norm_spec())
    assert [r.status for r in rep.records] == ["inapplicable"] and searched == []

    # an unhashable norm's results cannot be remembered: only the cell searches
    @dataclasses.dataclass
    class Scaled:
        factor: float

        def __call__(self, a):
            return self.factor * float(np.linalg.norm(a, 2))

    norm = NormSpec(id="scaled", evaluate=Scaled(2.0), evaluate_many=_batched(Scaled(2.0)),
                    self_adjoint=True, algebra=True, weakly_unitarily_invariant=True)
    rep = inequalities.run_suite([EnsembleSpec("ginibre", 2, 140)], checks=["inf-upper"],
                                 trials=1, norm=norm)
    assert [r.status for r in rep.records] == ["ok"] and searched == [1]


def test_one_matrix_calls_read_the_stack_entries():
    kinds = ("ginibre", "square_zero", "normal")
    stack = np.stack([generate(EnsembleSpec(kind, 2, 150 + k)) for k, kind in enumerate(kinds)])
    stack = np.concatenate((stack, stack[:1]))   # the first matrix twice
    fro = frobenius_norm_spec()
    quad = inequalities._negated_quadrature
    # per stack search: its stack call, and the one-matrix call that reads it
    cases = {
        "numerical_radius_many": (lambda: radius.numerical_radius_many(stack),
                                  radius.numerical_radius),
        "omega_norm_many": (lambda: radius.omega_norm_many(stack), radius.omega_norm),
        "_circle_radii": (lambda: radius.generalized_radius_many(stack, fro),
                          lambda t: radius.generalized_radius(t, fro)),
        "omega_radius_slow_many": (lambda: radius.omega_radius_slow_many(stack),
                                   radius.omega_radius_slow),
        "_phase_sups": (lambda: inequalities._phase_sups(stack, fro, quad),
                        lambda t: inequalities._phase_sups(t[None], fro, quad)[0]),
    }
    searches = dict(STACK_SEARCHES)
    with radius.result_memo():
        memo = radius._MEMO.get()
        for name, (many, one) in cases.items():
            results = many()
            assert results[3] is results[0]
            assert all(one(t) is r for t, r in zip(stack, results)), name
            assert len(_entries(memo, searches[name])) == 3, name
        held = len(memo)
        # inf-upper reads its radius and inf search from the memo
        report = inequalities.check_inf_upper(stack[1], fro)
        assert len(memo) == held
    assert report.terms["inf_argmin_phi"] == inequalities._phase_sups(stack[1:2], fro, quad)[0][0]


def test_rebound_names_leave_the_memo_keys_alone(monkeypatch):
    # what perfbench's tracer does: every radiuslab binding of a function is
    # replaced by a plain wrapper, which must not change any memo key
    def run():
        counts = []
        opened = inequalities.result_memo

        @contextlib.contextmanager
        def counting():
            with opened():
                yield
                memo = radius._MEMO.get()
                counts.append({name: len(_entries(memo, fn)) for name, fn in STACK_SEARCHES})

        with monkeypatch.context() as patch:
            patch.setattr(inequalities, "result_memo", counting)
            report = inequalities.run_suite(SUITE_ENSEMBLES, trials=1)
        return report, counts

    plain, plain_counts = run()
    rebound = [radius.numerical_radius, radius.generalized_radius, radius.omega_norm,
               radius.omega_radius_slow] + [fn for _, fn in STACK_SEARCHES]
    for original in rebound:
        def passing(*args, _original=original, **kwargs):
            return _original(*args, **kwargs)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "radiuslab" or mod_name.startswith("radiuslab."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, attr, passing)
    assert radius.numerical_radius is not rebound[0]
    wrapped, wrapped_counts = run()
    assert repr(wrapped) == repr(plain)
    assert wrapped_counts == plain_counts
    # the golden block and the trial's block; every search kept entries
    assert len(plain_counts) == 2
    assert all(sum(block[name] for block in plain_counts) > 0 for name, _ in STACK_SEARCHES)


def test_the_dry_run_fills_every_entry_the_cells_read(monkeypatch):
    # per block, a copy of the memo after its dry run (`_stack_trial`) and
    # the memo as the block ends
    filled, final = [], []
    stack_trial, opened = inequalities._stack_trial, inequalities.result_memo

    def spy(*args):
        stack_trial(*args)
        filled.append(dict(radius._MEMO.get()))

    @contextlib.contextmanager
    def counting():
        with opened():
            yield
            final.append(radius._MEMO.get())

    monkeypatch.setattr(inequalities, "_stack_trial", spy)
    monkeypatch.setattr(inequalities, "result_memo", counting)
    ensembles = [EnsembleSpec(*parse_ensemble_id(text), 2024) for text in cli.DEFAULT_ENSEMBLES]
    rep = inequalities.run_suite(ensembles, trials=1)
    assert rep.errors == 0 and rep.failures == 0
    # the golden block and the trial's: the cells add no entry and replace none
    assert len(filled) == len(final) == 2
    for before, after in zip(filled, final):
        assert before and after.keys() == before.keys()
        assert all(after[key] is value for key, value in before.items())
        # no blank was stored: every entry is a finished search
        for value in after.values():
            if isinstance(value, tuple):
                assert all(math.isfinite(x) for x in value)
            else:
                assert math.isfinite(value.value)


def test_no_blank_reaches_a_record(monkeypatch):
    # the dry runs answer these checks' searches blank; the records are those
    # of the same cells with the memo off, which makes every search for real
    ensembles = [EnsembleSpec("ginibre", 2, 170), EnsembleSpec("square_zero", 3, 170)]
    checks = ["omega-chain", "product", "lower-bound", "inf-upper"]

    def run():
        return inequalities.run_suite(ensembles, checks=checks, trials=2)

    rep = run()
    assert rep.records and all(rec.status == "ok" and math.isfinite(rec.slack)
                               for rec in rep.records)
    _memo_off(monkeypatch)
    assert repr(run()) == repr(rep)


def test_what_raises_in_the_dry_run_still_makes_its_record():
    seen = []

    def blank_averse(T, *, tol=inequalities.DEFAULT_TOL):
        # raises on the blank the dry run answers, never on a searched value
        w = radius.numerical_radius(T).value
        seen.append(w)
        if math.isnan(w):
            raise RuntimeError("a blank value")
        return inequalities.check_basic_bounds(T, tol=tol)

    spy = inequalities.CheckDef(name="spy", tag="selftest", runner=blank_averse,
                                kinds=("ginibre",))
    # no anticommuting pair has an odd size: the draw raises, in the dry run too;
    # lower-bound raises RequiresAlgebraNorm for wnum, which is no algebra norm
    ensembles = [EnsembleSpec("ginibre", 2, 180),
                 EnsembleSpec("anticommuting_hermitian_pair", 3, 180)]
    rep = inequalities.run_suite(ensembles, checks=[spy, "commuting-product", "lower-bound"],
                                 trials=1, norm=norms.parse_norm_id("wnum"))
    status = {(r.name, r.ensemble): (r.status, r.note) for r in rep.records}
    assert status[("spy", "ginibre:2")] == ("ok", "")
    assert math.isnan(seen[0]) and math.isfinite(seen[1]) and len(seen) == 2
    assert status[("commuting-product[wnum]", "anticommute:3")] == (
        "error", "ValueError: anticommuting_hermitian_pair needs an even dim")
    assert status[("lower-bound[wnum]", "ginibre:2")][0] == "inapplicable"
